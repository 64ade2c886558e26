"""Host-speed-corrected timing.

The benchmark machine is a shared VM whose CPU speed moves in plateaus
lasting seconds to minutes: a fixed Python loop timed in 1 ms slices
runs whole seconds at 0.68 ms and others at 1.02 ms, and the two cores
drift only loosely together (their 2 s speeds correlate at about 0.55).
Host seconds of the same work therefore spread by 20-45% between runs,
far past any useful bound.

A :class:`SpeedClock` measures that speed while the work runs, by
timing ``spin``, a fixed pure-Python loop, every ``PERIOD_S``. The
*reference seconds* of an interval are its host seconds times
``SPIN_REF_S`` over the mean spin time inside the interval: how long
the interval would take on a host where the loop takes ``SPIN_REF_S``,
which is about the reference VM at its faster speed
(``SAMPLER_SPIN_REF_S`` for the sampler processes below).

Where the samples come from follows where the work runs:

* ``per_core=False``: a ``SIGALRM`` handler in this process, so every
  sample lands on the core doing this process's work. For work done by
  this one thread: it cut ``mitigation-table``'s pass-to-pass spread
  from 14-22% to 3-4% of the median.
* ``per_core=True``: one sampler process pinned to each core this
  process may use, the interval's speed being the mean over cores. For
  work spread over pool workers or a daemon: it cut ``cold-campaign``'s
  pass-to-pass spread from 21% to 6% (arithmetic loop alone), where
  samples taken in this mostly idle process only reached 18%.

Either costs about 1% of a core. Pool workers forked and commands
started while the clock runs inherit neither the timer nor the pinning.
``siginterrupt(SIGALRM, False)`` makes interrupted system calls restart
instead of failing. A sampler exits when it sees its parent gone.
"""

from __future__ import annotations

import bisect
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

#: iterations of the calibration loop's two halves (together about
#: 0.15 ms on the reference VM)
SPIN_ARITHMETIC, SPIN_OBJECTS = 1_000, 300
#: the loop's time on the reference host, a 2 vCPU Linux VM running
#: CPython 3.11, at its faster speed plateau (5th percentile), timed in
#: the process doing the work
SPIN_REF_S = 1.3e-4
#: the same, timed by a pinned sampler while pool workers keep both
#: cores busy: the sampler wakes with caches the work has taken over
SAMPLER_SPIN_REF_S = 1.95e-4
#: sampling period
PERIOD_S = 0.02


class _Cell:
    def __init__(self, value: int):
        self.value = value


def spin() -> int:
    """The fixed calibration loop: integer arithmetic, then object
    allocation with attribute, dict and list traffic. Each half alone
    tracked one workload well and the other badly: over the same runs,
    arithmetic left a pass-to-pass spread of 3% on ``mitigation-table``
    and 12% on ``cold-campaign``, objects 6% and 8%, both together 3%
    on ``mitigation-table``."""
    total = 0
    for value in range(SPIN_ARITHMETIC):
        total += value * value % 7
    latest: dict[int, _Cell] = {}
    for value in range(SPIN_OBJECTS):
        cell = _Cell(value)
        latest[value & 31] = cell
        total += cell.value + len(latest)
    return total


def reference_seconds(host_s: float, spin_means: list[float],
                      reference_s: float) -> float:
    """``host_s`` on a host where ``spin`` takes ``reference_s``, given
    the loop's mean time during the interval on each sampled core."""
    return host_s * reference_s / statistics.fmean(spin_means)


class Samples:
    """``spin`` times of one source, in the order they were taken."""

    def __init__(self) -> None:
        self.starts: list[float] = []  #: ``perf_counter`` at each sample
        self.spins: list[float] = []  #: host seconds of each ``spin``

    def add(self, start: float, seconds: float) -> None:
        self.spins.append(seconds)
        self.starts.append(start)

    def mean(self, start: float, end: float) -> float:
        """Mean spin time inside ``[start, end)``; an interval holding
        no sample takes the nearest one."""
        count = len(self.starts)
        low = bisect.bisect_left(self.starts, start, 0, count)
        high = bisect.bisect_left(self.starts, end, 0, count)
        if low == high:
            low = min(low, count - 1)
            high = low + 1
        return statistics.fmean(self.spins[low:high])


class SpeedClock:
    """Context manager sampling the host's speed while it is open."""

    def __init__(self, per_core: bool, directory: pathlib.Path,
                 period_s: float = PERIOD_S):
        self.per_core = per_core
        self.directory = directory  #: sampler output files (per_core)
        self.period_s = period_s
        self.sources: list[Samples] = []
        self._samplers: list[tuple[subprocess.Popen, pathlib.Path]] = []
        self._offsets: list[int] = []
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        spin()
        self.sources[0].add(start, time.perf_counter() - start)

    def __enter__(self) -> "SpeedClock":
        if not self.per_core:
            self.sources = [Samples()]
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.siginterrupt(signal.SIGALRM, False)
            signal.setitimer(signal.ITIMER_REAL, self.period_s,
                             self.period_s)
            return self
        self.directory.mkdir(parents=True, exist_ok=True)
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                path = self.directory / f"speed-{cpu}.txt"
                path.write_bytes(b"")
                self._samplers.append((subprocess.Popen(
                    [sys.executable, __file__, str(cpu), str(path),
                     str(self.period_s)], stdin=subprocess.DEVNULL),
                    path))
                self.sources.append(Samples())
                self._offsets.append(0)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        if not self.per_core:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            return
        self._refresh()
        for process, _ in self._samplers:
            process.terminate()
        for process, _ in self._samplers:
            process.wait()
        self._samplers = []

    def _refresh(self) -> None:
        """Read the samplers' complete new lines."""
        for index, (_, path) in enumerate(self._samplers):
            with open(path, "rb") as handle:
                handle.seek(self._offsets[index])
                data = handle.read()
            complete = data[:data.rfind(b"\n") + 1]
            self._offsets[index] += len(complete)
            for line in complete.splitlines():
                start, seconds = line.split()
                self.sources[index].add(float(start), float(seconds))

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the ``perf_counter`` interval
        ``[start, end)``."""
        self._refresh()
        means = [source.mean(start, end) for source in self.sources
                 if source.starts]
        if not means:
            raise RuntimeError("the speed clock took no sample")
        return reference_seconds(
            end - start, means,
            SAMPLER_SPIN_REF_S if self.per_core else SPIN_REF_S)

    def mean_spin_s(self) -> float:
        """Mean spin time over every sample so far, all sources."""
        self._refresh()
        spins = [s for source in self.sources for s in source.spins]
        return statistics.fmean(spins) if spins else 0.0


def sample(cpu: int, path: str, period_s: float) -> None:
    """Sampler process: pinned to ``cpu``, append ``start seconds``
    lines to ``path`` every ``period_s`` until the parent is gone."""
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    with open(path, "a", encoding="ascii", buffering=1) as out:
        while os.getppid() == parent:
            time.sleep(period_s)
            start = time.perf_counter()
            spin()
            out.write(f"{start!r} {time.perf_counter() - start!r}\n")


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    sample(int(sys.argv[1]), sys.argv[2], float(sys.argv[3]))
