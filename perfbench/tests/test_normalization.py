import math

import pytest

from perfbench import calibrate as cal


def test_bracket_is_geometric_mean():
    assert cal.bracket(0.1, 0.4) == pytest.approx(0.2)


def test_reference_seconds_rescale_by_calibration():
    assert cal.to_reference(2.0, cal.C_REF) == pytest.approx(2.0)
    # A host running twice as slow doubles both the wall time and c.
    assert cal.to_reference(4.0, 2.0 * cal.C_REF) == pytest.approx(2.0)
    assert cal.to_reference(1.0, 0.2, c_ref=0.1) == pytest.approx(0.5)


def test_sample_uses_both_neighbouring_calibrations():
    s = cal.Sample(wall_s=3.0, cal_before=0.1, cal_after=0.4, records=6)
    assert s.c == pytest.approx(0.2)
    assert s.ref_s == pytest.approx(3.0 * cal.C_REF / 0.2)
    assert s.speed == pytest.approx(cal.C_REF / 0.2)


def test_normalized_rate_ignores_host_slowdown_raw_rate_does_not():
    fast = [cal.Sample(1.0, cal.C_REF, cal.C_REF, 10)] * 3
    slow = [cal.Sample(2.5, 2.5 * cal.C_REF, 2.5 * cal.C_REF, 10)] * 3
    assert cal.points_per_s(fast) == pytest.approx(10.0)
    assert cal.points_per_s(slow) == pytest.approx(10.0)
    assert cal.wall_points_per_s(slow) == pytest.approx(4.0)


def test_rate_is_records_over_median_reference_seconds():
    samples = [
        cal.Sample(1.0, cal.C_REF, cal.C_REF, 9),
        cal.Sample(2.0, cal.C_REF, 2.0 * cal.C_REF, 9),
        cal.Sample(9.0, cal.C_REF, cal.C_REF, 9),
    ]
    # Reference seconds 1, sqrt(2) and 9: the stalled third call does not count.
    assert cal.points_per_s(samples) == pytest.approx(9 / math.sqrt(2.0))


def test_slots_weigh_equally_whatever_their_sample_count():
    cheap = cal.Sample(1.0, cal.C_REF, cal.C_REF, 1, slot=0)
    dear = cal.Sample(3.0, cal.C_REF, cal.C_REF, 1, slot=1)
    balanced = cal.points_per_s([cheap, dear])
    assert balanced == pytest.approx(2 / 4.0)
    assert cal.points_per_s([cheap, cheap, cheap, dear]) == pytest.approx(balanced)


def test_median_speed():
    samples = [cal.Sample(1.0, c, c, 1) for c in (cal.C_REF, 2 * cal.C_REF, cal.C_REF / 2)]
    assert cal.median_speed(samples) == pytest.approx(1.0)

