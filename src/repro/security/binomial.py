"""Binomial tail probabilities in log space.

Section 5.3: given that each activation is selected for a counter update
independently with probability ``p``, the number of updates N a row receives
in A activations is Binomial(A, p). MoPAC fails (undercounts) when
N < C, so the quantity of interest is the *lower tail*

    P(N < C) = sum_{i=0}^{C-1} C(A, i) p^i (1-p)^(A-i)          (Eq. 2)

The probabilities involved are ~1e-8 to 1e-17, far below what naive
floating-point summation of pmf terms loses to underflow, so each pmf term
is evaluated with ``math.lgamma`` and the sum is accumulated with
``math.fsum`` for exactness.
"""

from __future__ import annotations

import math
from functools import lru_cache


def log_binomial_pmf(k: int, n: int, p: float) -> float:
    """log P(X = k) for X ~ Binomial(n, p)."""
    if not 0 <= k <= n:
        return -math.inf
    if p <= 0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1:
        return 0.0 if k == n else -math.inf
    log_choose = (math.lgamma(n + 1) - math.lgamma(k + 1)
                  - math.lgamma(n - k + 1))
    return log_choose + k * math.log(p) + (n - k) * math.log1p(-p)


def binomial_pmf(k: int, n: int, p: float) -> float:
    """P(X = k) for X ~ Binomial(n, p)."""
    log_pmf = log_binomial_pmf(k, n, p)
    return 0.0 if log_pmf == -math.inf else math.exp(log_pmf)


@lru_cache(maxsize=4096)
def undercount_probability(critical: int, activations: int,
                           p: float) -> float:
    """P(N < critical) for N ~ Binomial(activations, p) — paper Eq. (2).

    ``critical`` is C, the critical number of counter updates; the result
    is the probability a row activated ``activations`` times receives
    fewer than C updates.
    """
    if critical <= 0:
        return 0.0
    if activations < 0:
        raise ValueError("activations must be non-negative")
    upper = min(critical - 1, activations)
    terms = [binomial_pmf(i, activations, p) for i in range(upper + 1)]
    return min(math.fsum(terms), 1.0)


def survival_probability(critical: int, activations: int, p: float) -> float:
    """P(N >= critical): the row *is* caught with enough updates."""
    return 1.0 - undercount_probability(critical, activations, p)


def escape_probability_bernoulli(n_acts: int, p: float) -> float:
    """P(row never selected in n_acts Bernoulli(p) trials) = (1-p)^n.

    Used by the PARA/PrIDE-style baseline models in
    :mod:`repro.security.tolerated`.
    """
    if n_acts < 0:
        raise ValueError("n_acts must be non-negative")
    return math.exp(n_acts * math.log1p(-p)) if 0 < p < 1 else (
        1.0 if p <= 0 else 0.0)
