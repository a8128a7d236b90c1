"""Host-speed reference: express measured times at a fixed host speed.

On the shared 2-vCPU VM where this benchmark was built, each vCPU's speed
drifts by up to 1.7x within minutes, independently of the other, although
steal time stays under 1% and process CPU time tracks wall time.  Longer runs
barely help: the IQR of 50-second block means of one fixed route was still
10%.  A small pure-Python kernel, written here and sharing no code with the
router, slows down in step with the router when the two run close together.

So while operations are timed, a timer signal runs the kernel every
``SAMPLE_EVERY_S`` seconds, also in the middle of an operation.  An
operation's time is its elapsed time minus the samples taken inside it,
multiplied by ``REFERENCE_SAMPLE_S`` over the mean of the samples inside it
and next to it.  It then reads as the time on a host where one sample takes
``REFERENCE_SAMPLE_S``.  Over two sets of ten runs of each workload, the IQR
of ``compile_gates_per_s`` was 8-34% unscaled and 1.6-6.5% scaled.  A change to
the router moves the scaled times exactly as it moves the raw ones; the run
also prints the raw medians.
"""
from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from collections import deque
from time import perf_counter

# About the median sample time on the build host; it only fixes the scale.
REFERENCE_SAMPLE_S = 0.015
SAMPLE_EVERY_S = 0.2

_SIDE = 12


def _grid_adjacency() -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(_SIDE * _SIDE)]
    for r in range(_SIDE):
        for c in range(_SIDE):
            q = r * _SIDE + c
            if c + 1 < _SIDE:
                adj[q].append(q + 1)
                adj[q + 1].append(q)
            if r + 1 < _SIDE:
                adj[q].append(q + _SIDE)
                adj[q + _SIDE].append(q)
    return adj


_ADJ = _grid_adjacency()


def kernel() -> int:
    """Breadth-first search from every node of a 12x12 grid."""
    total = 0
    for src in range(len(_ADJ)):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in _ADJ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(sorted(dist.values())[-10:])
    return total


class HostClock:
    """Kernel samples over a run; as a context manager, samples on a timer."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._previous = None

    def sample(self, *_signal) -> None:
        start = perf_counter()
        kernel()
        kernel()
        end = perf_counter()
        self.at.append(end)
        self.took.append(end - start)

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def op_time(self, start: float, end: float, scaled: bool) -> float:
        """Seconds in [start, end] minus the samples inside, optionally host-scaled."""
        lo = bisect_left(self.at, start)
        hi = bisect_right(self.at, end)
        inside = self.took[lo:hi]
        elapsed = end - start - sum(inside)
        if not scaled:
            return elapsed
        near = inside + [self.took[k] for k in (lo - 1, hi) if 0 <= k < len(self.took)]
        return elapsed * REFERENCE_SAMPLE_S * len(near) / sum(near)
