"""Machine-speed calibration for timing on a shared, noisy host.

On a small shared virtual machine (2 vCPUs, Intel Xeon), the same Python
code runs up to 2x slower for stretches of milliseconds to minutes, and process
CPU time stretches the same way, so no clock isolates the program from its
neighbours. The timed loop therefore runs a fixed piece of pure-Python work,
independent of youngbounds, right after every operation, for a fixed share
of that operation's latency. An operation's latency is then rescaled by
``REF_CHUNK_S / c``, with c the mean chunk time just before and just after
it: the result is the latency at the reference speed, where one chunk
takes ``REF_CHUNK_S``. On a quiet machine c is close to REF_CHUNK_S and the
rescaled latency close to the raw one; the raw figures are kept in the run
record.
"""

from __future__ import annotations

import math
import time

REF_CHUNK_S = 145e-6  # one chunk on an uncontended core of the reference machine
SHARE = 0.05          # calibration time as a share of the operation just timed


def chunk() -> float:
    """Fixed interpreter work: a loop of float arithmetic and C calls. Of the
    candidates tried (this loop, list-building power-series products, and a
    recursive expression-tree walk), its time tracked the program's own
    slow-downs most closely."""
    s = 0.0
    for i in range(1500):
        s += math.sqrt(i * 1.5) * 0.5
    return s


class Speedometer:
    """Chunk timings taken between operations, and the rescaling they give."""

    def __init__(self):
        self.marks: list[tuple[float, int]] = []  # (chunk seconds, chunks)
        self.sample(0.0)

    def sample(self, budget_s: float) -> None:
        """Run chunks for ``budget_s`` seconds, at least one."""
        clock = time.perf_counter
        start = clock()
        n = 0
        while True:
            chunk()
            n += 1
            now = clock()
            if now - start >= budget_s:
                self.marks.append((now - start, n))
                return

    def after(self, latency: float) -> None:
        """Sample right after an operation that took ``latency`` seconds."""
        self.sample(SHARE * latency)

    def rescale(self, latencies: list[float]) -> list[float]:
        """Latency i, timed between marks i and i + 1, at the reference speed.

        Slow stretches as short as a few operations move the tail, so each
        operation is scaled by the chunks run right next to it; averaging
        over 2 s around it left the p99.8 of ``oracle-grid`` three times as
        spread over seeds.
        """
        scaled = []
        for i, latency in enumerate(latencies):
            (s0, n0), (s1, n1) = self.marks[i], self.marks[i + 1]
            scaled.append(latency * REF_CHUNK_S * (n0 + n1) / (s0 + s1))
        return scaled

    def machine_speed(self) -> float:
        """REF_CHUNK_S over the mean chunk time of the whole run."""
        return REF_CHUNK_S * sum(n for _, n in self.marks) / math.fsum(s for s, _ in self.marks)
