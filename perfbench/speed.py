"""Host speed reference for the benchmark's timings.

A shared host runs the same code up to 1.6 times slower, in spells that
last from under a second to minutes.  Process CPU time slows with wall time
(no time is stolen from the process; its instructions run slower), so
neither gives times that two runs can compare.  The benchmark therefore
interleaves a fixed pure-Python calibration with the measured work and
reports each time in *reference seconds*: the time measured, scaled by
REFERENCE_S over the mean of the calibrations taken just before and just
after it.  The calibration multiplies sparse polynomials held as dicts of
exponent tuples, the same kind of interpreter work as the program's, and
uses nothing of the program, so a change to the program moves the measured
time and leaves the calibration alone.  Raw times stay in the result file.
"""

from __future__ import annotations

import gc
import random
import time

# a calibration's time on this 2-core VM with the host quiet; it only fixes
# the unit, so that reference seconds read close to seconds on such a host
REFERENCE_S = 0.012
# the host's speed stays put for a few hundred ms (measured correlation 0.8
# between calibrations 0.3 s apart, none at 15 s), so calibrate that often
INTERVAL_S = 0.2
UNITS = 60

_rng = random.Random(0)
_A = {(_rng.randrange(8), _rng.randrange(8)): _rng.randrange(1, 7) for _ in range(40)}
_B = {(_rng.randrange(8), _rng.randrange(8)): _rng.randrange(1, 7) for _ in range(40)}


def _product() -> dict:
    out: dict = {}
    for (a1, a2), c in _A.items():
        for (b1, b2), e in _B.items():
            key = (a1 + b1, a2 + b2)
            s = (out.get(key, 0) + c * e) % 7
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def calibrate() -> float:
    """Seconds for UNITS fixed products, with the collector off so that the
    program's heap does not slow the calibration."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(UNITS):
            _product()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedTrack:
    """Calibrations interleaved with measured work.

    Call ``mark()`` before each measured item: it calibrates when INTERVAL_S
    has passed since the last calibration and returns the index of the
    latest one.  After the items, ``close()`` calibrates once more; then
    ``scale(seconds, index)`` turns the time of an item marked with
    ``index`` into reference seconds, using calibrations ``index`` and
    ``index + 1``, the last before and the first after the item.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.close()

    def close(self) -> int:
        self.samples.append(calibrate())
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def mark(self) -> int:
        if time.perf_counter() - self._last >= INTERVAL_S:
            return self.close()
        return len(self.samples) - 1

    def scale(self, seconds: float, index: int) -> float:
        around = (self.samples[index] + self.samples[index + 1]) / 2
        return seconds * REFERENCE_S / around

    def measure(self, fn) -> tuple[float, float, object]:
        """Run fn between two fresh calibrations: (reference s, raw s, result)."""
        index = self.close()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        self.close()
        return self.scale(raw, index), raw, result
