"""Call timing in seconds at a fixed reference speed.

The shared machines this benchmark runs on change speed by tens of
percent within a second, as other tenants come and go; a pure-Python
loop slows down as much as ``run_job`` does.  So while a call runs,
SIGALRM fires every ``PERIOD_S`` and its handler times a fixed
pure-Python snippet.  The call's time at reference speed is its wall
time minus the snippets' own time, multiplied by ``REF_SNIPPET_S`` over
the interquartile mean of the snippet times during the call.  The
snippet runs with the garbage collector off; its working set still
shares the caches with the call's, so a call that grows its working set
slows the snippets a little and reads a little faster than its wall
time says.  On a shared 2-core
machine this cut the call-to-call spread (interquartile range over
median) of ``run_job`` on a5-g0-n3 from 0.36 to 0.04.  Raw wall times
are kept beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.05
SNIPPET_ROUNDS = 200
# The unit: a snippet takes this long at reference speed.
REF_SNIPPET_S = 2.0e-4
MIN_SNIPPETS = 4

_P = tuple(range(12))
_Q = (3, 7, 0, 11, 5, 1, 9, 2, 10, 4, 8, 6)


def _interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half, so one outlying snippet moves it little."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.mean(ordered[k:len(ordered) - k])


class SpeedClock:
    """Measures calls; ``snippets`` keeps (start, duration) of every snippet."""

    def __init__(self) -> None:
        self.snippets: list[tuple[float, float]] = []

    def _snippet(self) -> float:
        # gc off, so collections that the measured call's heap sets off
        # are not timed as the machine's speed
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        x, seen = _P, set()
        for _ in range(SNIPPET_ROUNDS):
            x = tuple(_Q[i] for i in x)
            seen.add(x)
        duration = time.perf_counter() - t0
        if was_enabled:
            gc.enable()
        self.snippets.append((t0, duration))
        return duration

    def _on_alarm(self, signum, frame) -> None:
        self._snippet()

    @contextmanager
    def measure(self):
        """Time the body; the yielded dict gets wall_s, factor and scaled_s."""
        rec: dict = {}
        first = len(self.snippets)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            inside = [d for _, d in self.snippets[first:]]
            durations = inside + [
                self._snippet() for _ in range(MIN_SNIPPETS - len(inside))
            ]
            rec["start"], rec["end"] = start, end
            rec["wall_s"] = end - start
            rec["factor"] = REF_SNIPPET_S / _interquartile_mean(durations)
            rec["scaled_s"] = (end - start - sum(inside)) * rec["factor"]

    def inside(self, start: float, end: float) -> float:
        """Total snippet time that started within [start, end]."""
        return sum(d for s, d in self.snippets if start <= s <= end)
