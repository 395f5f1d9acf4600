"""Host-speed calibration and the normalization arithmetic.

The host CPU runs in fast and slow phases that last seconds, so raw wall
times of identical work spread widely from run to run.  A fixed calibration
kernel, timed between every pair of invocations, measures the host's current
speed; each invocation's wall time is rescaled by the calibration next to it
into "reference seconds":

    t_ref_i = wall_i * C_REF / c_i

where c_i is the geometric mean of the calibrations timed just before and
just after invocation i, and C_REF is a frozen constant close to the
kernel's time on the reference host, so reference seconds stay near real
seconds.  The kernel never calls the program under test.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median calibration time on the reference host (2 vCPU Intel Xeon, single
# BLAS thread).  Frozen: changing it rescales every normalized number.
C_REF = 0.105

EIGH_REPEATS = 24
EIGH_DIM = 200
LOOP_ITERATIONS = 700_000

_EIGH_MATRIX = np.random.default_rng(20140424).normal(size=(EIGH_DIM, EIGH_DIM))
_EIGH_MATRIX = _EIGH_MATRIX + _EIGH_MATRIX.T


def _time_eigh() -> float:
    start = time.perf_counter()
    for _ in range(EIGH_REPEATS):
        np.linalg.eigh(_EIGH_MATRIX)
    return time.perf_counter() - start


def _time_interpreter() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(LOOP_ITERATIONS):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    elapsed = time.perf_counter() - start
    if x < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def calibrate() -> float:
    """One calibration sample: geometric mean of a LAPACK and an interpreter kernel."""
    return math.sqrt(_time_eigh() * _time_interpreter())


def bracket(cal_before: float, cal_after: float) -> float:
    """The calibration c_i of an invocation timed between two calibrations."""
    return math.sqrt(cal_before * cal_after)


def to_reference(wall_s: float, c: float, c_ref: float = C_REF) -> float:
    """Wall seconds rescaled to reference seconds by the calibration c."""
    return wall_s * c_ref / c


@dataclass(frozen=True)
class Sample:
    """One timed invocation with the calibrations on either side of it."""

    wall_s: float
    cal_before: float
    cal_after: float
    records: int
    slot: int = 0

    @property
    def c(self) -> float:
        return bracket(self.cal_before, self.cal_after)

    @property
    def ref_s(self) -> float:
        return to_reference(self.wall_s, self.c)

    @property
    def speed(self) -> float:
        """Host speed relative to the reference host (above 1 is faster)."""
        return C_REF / self.c


def _per_slot_rate(samples: list[Sample], seconds) -> float:
    """Records per second, from the median invocation time of each slot.

    Slots group invocations of equal expected cost (one rung of an input
    ladder); summing per-slot medians keeps the cost mix fixed when a run
    ends part-way through a ladder cycle.  Medians keep an invocation that
    straddled a host stall from moving the result.
    """
    if not samples:
        raise ValueError("no samples")
    slots: dict[int, list[Sample]] = {}
    for s in samples:
        slots.setdefault(s.slot, []).append(s)
    records = sum(statistics.median(s.records for s in group) for group in slots.values())
    elapsed = sum(statistics.median(seconds(s) for s in group) for group in slots.values())
    return records / elapsed


def points_per_s(samples: list[Sample]) -> float:
    """Records per reference second."""
    return _per_slot_rate(samples, lambda s: s.ref_s)


def wall_points_per_s(samples: list[Sample]) -> float:
    """Records per raw wall second, the unnormalized twin of points_per_s."""
    return _per_slot_rate(samples, lambda s: s.wall_s)


def median_speed(samples: list[Sample]) -> float:
    return statistics.median(s.speed for s in samples)

