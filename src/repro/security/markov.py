"""Markov-chain security model for Non-Uniform Probability (Section 8.2).

MoPAC-D with NUP samples a row with probability p/2 while its PRAC counter
is zero and probability p afterwards. The counter's trajectory over A
activations is the Markov chain of Figure 16:

    state 0 --p/2--> state 1 --p--> state 2 --p--> ...

(each state also self-loops with the complementary probability). After A
steps the chain's distribution y gives the probability the row ends with
each number of updates; the critical count C is the largest value whose
cumulative mass stays below the escape budget P_e1 (Eq. 9), and
ATH* = C / p as usual (:func:`repro.security.csearch.mopac_d_params`
with ``nup``).

With uniform edge probabilities the chain reproduces the binomial model
exactly (the paper's footnote-8 sanity check, covered by our tests).
"""

from __future__ import annotations

import numpy as np


def counter_distribution(activations: int, p: float,
                         p_first: float | None = None) -> np.ndarray:
    """Distribution of the update count after ``activations`` steps.

    ``p_first`` is the transition probability out of state 0 (p/2 for NUP,
    p for the uniform sanity check). Returns a vector y where ``y[i]`` is
    the probability of exactly i updates.
    """
    if activations < 0:
        raise ValueError("activations must be non-negative")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    p_first = p / 2 if p_first is None else p_first

    y = np.zeros(activations + 1, dtype=np.float64)
    y[0] = 1.0
    for _ in range(activations):
        moved = np.empty_like(y)
        moved[0] = 0.0
        # state 0 advances with p_first, states >= 1 with p
        moved[1] = y[0] * p_first
        moved[2:] = y[1:-1] * p
        stay = y.copy()
        stay[0] *= 1.0 - p_first
        stay[1:] *= 1.0 - p
        y = stay
        y[1:] += moved[1:]
    return y


def critical_updates_markov(activations: int, p: float, epsilon: float,
                            p_first: float | None = None) -> int:
    """Largest C with P(N <= C) <= epsilon under the NUP chain (Eq. 9)."""
    y = counter_distribution(activations, p, p_first)
    cumulative = np.cumsum(y)
    best = 0
    for c in range(activations + 1):
        if cumulative[c] <= epsilon:
            best = c
        else:
            break
    return best
