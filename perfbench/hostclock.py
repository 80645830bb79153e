"""A clock that corrects measured time for the host's speed.

On a shared host the interpreter's speed changes by up to 2x from one
second to the next, as other tenants come and go; a slow spell lasts
seconds to tens of seconds.  A run's raw times then spread more from the
host than from the program.  This clock measures the host while the
program runs: a SIGALRM timer interrupts the program every
``INTERVAL_S`` and runs a *probe*, a fixed pure-Python computation of
about a millisecond that imports nothing from glracks, so no change to
the program can move it.  Each stretch of program time between two
probes is then rescaled by how slow the probes around it ran:

    corrected = sum over stretches of  program_time * NOMINAL_PROBE_S / probe_time

where ``probe_time`` is the median of the four probes nearest the
stretch.  The corrected figure is the time the program would have taken
had the host run every probe in ``NOMINAL_PROBE_S``.  Probe time itself
is left out of both the raw and the corrected program time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1
# Nominal probe time.  Probes took 0.8 to 1.1 ms, averaged over a pass, on a
# shared 2.1 GHz Xeon vCPU under CPython 3.11.  The constant only scales the
# corrected figures, and must stay fixed for them to compare across runs.
NOMINAL_PROBE_S = 0.001


def _dihedral(n: int) -> list[list[int]]:
    """Rows of the dihedral quandle of order n: x ▷ y = 2x - y mod n."""
    return [[(2 * x - y) % n for y in range(n)] for x in range(n)]


_SOURCE, _TARGET = _dihedral(3), _dihedral(9)


def _count_homs(s: list[list[int]], t: list[list[int]]) -> int:
    """Maps phi with phi(s[x][y]) == t[phi(x)][phi(y)], by backtracking."""
    n, m = len(s), len(t)
    phi = [-1] * n
    found = 0

    def extend(k: int) -> None:
        nonlocal found
        if k == n:
            found += 1
            return
        for v in range(m):
            phi[k] = v
            ok = True
            for x in range(k + 1):
                for y in range(k + 1):
                    z = s[x][y]
                    if z <= k and phi[z] != t[phi[x]][phi[y]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                extend(k + 1)
        phi[k] = -1

    extend(0)
    return found


def _closure(n: int) -> int:
    """Order of the group generated by an n-cycle and a transposition."""
    gens = [tuple(list(range(1, n)) + [0]), (1, 0) + tuple(range(2, n))]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


# 27 homs from the order-3 to the order-9 dihedral quandle; |S_5| = 120.
PROBE_RESULT = 27 * 1000 + 120


def probe_work() -> int:
    """The fixed probe computation; returns ``PROBE_RESULT``."""
    return _count_homs(_SOURCE, _TARGET) * 1000 + _closure(5)


class HostClock:
    """Program time, raw and corrected for host speed (module docstring).

    ``mark()`` takes a probe now and returns its index; ``between(i, j)``
    gives the program time from mark ``i`` to mark ``j``.  Between
    ``start()`` and ``stop()`` a timer also takes a probe every
    ``INTERVAL_S``.
    """

    def __init__(self) -> None:
        # One entry per probe: program wall and CPU ns since the previous
        # probe ended, then the probe's own wall and CPU ns.
        self.samples: list[tuple[int, int, int, int]] = []
        self.probe_ns = 0  # wall ns spent in probes so far
        self.bad_probes = 0
        self._busy = False
        self._last = (time.perf_counter_ns(), time.process_time_ns())

    def mark(self) -> int:
        if self._busy:  # a timer probe inside a mark: skip it
            return len(self.samples) - 1
        self._busy = True
        w0, c0 = time.perf_counter_ns(), time.process_time_ns()
        result = probe_work()
        w1, c1 = time.perf_counter_ns(), time.process_time_ns()
        if result != PROBE_RESULT:
            self.bad_probes += 1
        self.samples.append((w0 - self._last[0], c0 - self._last[1], w1 - w0, c1 - c0))
        self.probe_ns += w1 - w0
        self._last = (w1, c1)
        self._busy = False
        return len(self.samples) - 1

    def _on_alarm(self, _signum, _frame) -> None:
        self.mark()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        # The handler stays installed, so that an alarm already raised
        # only takes one more probe.
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _speed(self, k: int, field: int) -> float:
        """Median probe time (s) of the four probes nearest stretch k."""
        window = self.samples[max(0, k - 2):k + 2]
        return statistics.median(s[field] for s in window) / 1e9

    def between(self, i: int, j: int) -> dict[str, float]:
        """Program seconds from mark i to mark j: ``wall``, ``cpu`` (raw)
        and ``wall_corr``, ``cpu_corr`` (corrected)."""
        out = {"wall": 0.0, "cpu": 0.0, "wall_corr": 0.0, "cpu_corr": 0.0}
        for k in range(i + 1, j + 1):
            wall, cpu = self.samples[k][0] / 1e9, self.samples[k][1] / 1e9
            out["wall"] += wall
            out["cpu"] += cpu
            out["wall_corr"] += wall * NOMINAL_PROBE_S / self._speed(k, 2)
            out["cpu_corr"] += cpu * NOMINAL_PROBE_S / self._speed(k, 3)
        return out

    def factor(self, k: int) -> float:
        """Correction factor (nominal over measured probe time) at mark k."""
        return NOMINAL_PROBE_S / self._speed(k, 2)

    def current_factor(self) -> float:
        """Correction factor from the two latest probes, for a short span
        of program time that ends now."""
        last = self.samples[-2:]
        return NOMINAL_PROBE_S * 1e9 * len(last) / sum(s[2] for s in last)
