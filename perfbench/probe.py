"""A fixed probe of the host's speed, for times that follow the program.

A shared host changes its speed from one second to the next, by up to a
factor of two, and the raw wall time of a benchmark pass swings by a third
between runs.  Timing a fixed piece of interpreter work close in time to the
measured code tells how fast the host ran then; dividing by it rescales a
measured time to the time it would take on a host where one probe takes
``REFERENCE_PROBE_S``.

The module imports little, because the child imports it inside the set-up it
measures.
"""

import signal
import time

PROBE_INTERVAL_S = 0.05
# a typical duration of one probe run between the ops on a 2-core Xeon at
# 2.1 GHz with CPython 3.11; it only sets the scale of the rescaled times
REFERENCE_PROBE_S = 0.0024
# A busy host slows the probe a little more than it slows the ops.  Over 18
# runs of the three workloads on that host, scaling by (reference / probe)
# to this power left run-to-run spreads of 0.015-0.021 of the median, against
# 0.019-0.046 with the plain ratio.
SENSITIVITY = 0.9


def _probe() -> None:
    """Fixed interpreter work of the kind the crystal operators do: tuple
    keys, small sorts, dict updates."""
    table = {}
    for i in range(1200):
        key = ((i % 7, i % 13), i % 5)
        row = sorted(((i * 31 + j * 17) % 97, j) for j in range(4))
        table[key] = table.get(key, 0) + row[0][0]


def timed_probe() -> float:
    start = time.perf_counter()
    _probe()
    return time.perf_counter() - start


def rescale(seconds: float, probes_s: list[float]) -> float:
    """``seconds`` measured while probes took ``probes_s``, at reference speed."""
    return seconds * (REFERENCE_PROBE_S * len(probes_s) / sum(probes_s)) ** SENSITIVITY


class SpeedProbe:
    """Measures how fast the host runs while a block of code runs.

    It times ``_probe`` when entered, every ``PROBE_INTERVAL_S`` on SIGALRM
    (so it runs between the block's bytecodes, on the same CPU), and when
    left.  Each stretch of the block between two probes is rescaled by the
    mean duration of those two probes (see ``rescale``).
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    def _run(self, *_signal) -> None:
        start = time.perf_counter()
        _probe()
        self.marks.append((start, time.perf_counter()))

    def __enter__(self) -> "SpeedProbe":
        self._run()
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._run()

    def probe_seconds(self) -> float:
        return sum(end - start for start, end in self.marks)

    def work_seconds(self) -> float:
        work = 0.0
        for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:]):
            work += rescale(s1 - e0, [e0 - s0, e1 - s1])
        return work

    def median_probe(self) -> float:
        durations = sorted(end - start for start, end in self.marks)
        return durations[len(durations) // 2]
