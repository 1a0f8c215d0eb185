"""Speed calibration: scales measured times to a reference interpreter speed.

On a shared machine the interpreter's speed can drift by a quarter or
more within minutes, far beyond any bound a benchmark could hold.  A calibration block is fixed
pure-Python work of the kind the kernels do (list-indexed butterflies
through ring method calls), kept here so that no tftkit change can
move it.  It runs before each request (at most every CALIBRATE_EVERY_S),
around each set-up, and once at the end.  A time taken between two
blocks is multiplied by REFERENCE_BLOCK_S over their mean.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

CALIBRATE_EVERY_S = 0.02
REFERENCE_BLOCK_S = 0.003
TIME_UNITS = {"s": 1, "ms": 1, "ns": 1, "1/s": -1}


class Calibration:
    """Times of a fixed block of interpreter work, taken during the run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._buf = list(range(1, 4097))
        self._last = -math.inf

    def run(self) -> int:
        """Time one block; return its index."""
        t0 = perf_counter()
        _calibration_block(self._buf)
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1
        return len(self.samples) - 1

    def due(self) -> int:
        """Time a block if the last one is old; return the latest index."""
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.run()
        return len(self.samples) - 1

    def scale(self, block: int) -> float:
        """Factor for a time taken between block and the next one."""
        return 2 * REFERENCE_BLOCK_S / (self.samples[block] + self.samples[block + 1])

    @property
    def factor(self) -> float:
        """Reference block time over the run's median block time."""
        return REFERENCE_BLOCK_S / statistics.median(self.samples)


class _Ring:
    """Modular arithmetic behind method calls, as the ring protocol has it."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.modulus

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.modulus

    def mul(self, x: int, y: int) -> int:
        return x * y % self.modulus


def _calibration_block(buf, ring=_Ring(998244353), w=3) -> None:
    # list-indexed butterflies through ring method calls, the interpreter
    # work the kernels do; kept here so that no tftkit change can move it
    add, sub, mul = ring.add, ring.sub, ring.mul
    half = len(buf) // 2
    for _ in range(3):
        for j in range(half):
            u = buf[j]
            t = mul(w, buf[j + half])
            buf[j] = add(u, t)
            buf[j + half] = sub(u, t)


def normalized(metrics: dict, factor: float) -> dict:
    """Times multiplied by factor (rates divided); other metrics unchanged."""
    out = {}
    for name, (value, unit) in metrics.items():
        power = TIME_UNITS.get(unit, 0)
        out[name] = (value * factor ** power if power else value, unit)
    return out
