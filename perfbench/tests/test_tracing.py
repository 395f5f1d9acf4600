import numpy as np
import pytest

import twirlqfi
from perfbench.tracing import Invocation, Span, Tracer, layer_metrics, report_coverage
from twirlqfi import HermitianOperator, Scenario, StateVector, hilbert, metrology


def _scenario():
    return Scenario(
        fiducial=StateVector(np.ones(4)),
        k_generator=HermitianOperator(np.diag([0.0, 1, 2, 3])),
        g_generator=HermitianOperator(np.diag([0.0, 1, 1, 2])),
        lam=0.7,
    )


def test_install_wraps_every_binding_and_uninstall_restores_them():
    originals = (metrology.report, twirlqfi.report, hilbert.eigh_matrix,
                 hilbert.DensityMatrix.__post_init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert metrology.report is not originals[0]
        assert twirlqfi.report is metrology.report
        twirlqfi.report(_scenario())
    finally:
        tracer.uninstall()
    assert (metrology.report, twirlqfi.report, hilbert.eigh_matrix,
            hilbert.DensityMatrix.__post_init__) == originals
    names = {s.name for s in tracer.spans}
    assert {"metrology.report", "channels.spectral_projectors", "hilbert.eigh",
            "metrology.qfi_mixed", "hilbert.density_matrix"} <= names
    report = next(s for s in tracer.spans if s.name == "metrology.report")
    assert report.parent is None
    assert all(s.parent is not None for s in tracer.spans if s is not report)
    assert [s.attrs["d"] for s in tracer.spans if s.name == "hilbert.eigh"] == [4] * 4


def _span(id_, name, start, end, parent=None, invocation=0, **attrs):
    return Span(id_, name, start, end, parent, invocation, attrs)


def test_layer_metrics_self_time_scaling_and_counts():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "cli.load_config", 0.0, 2.0, parent=0),
        _span(2, "metrology.report", 2.0, 9.0, parent=0),
        _span(3, "channels.spectral_projectors", 2.0, 3.0, parent=2, clusters=5),
        _span(4, "hilbert.eigh", 2.0, 2.5, parent=3, d=10),
        _span(5, "metrology.qfi_eigenvector_form", 3.0, 5.0, parent=2),
        _span(6, "hilbert.eigh", 3.0, 4.0, parent=5, d=10),
        _span(7, "metrology.qfi_twirled_pure", 5.0, 6.0, parent=2),
        _span(8, "metrology.qfi_mixed", 6.0, 8.0, parent=2),
    ]
    m = layer_metrics(spans, [Invocation(0, factor=0.5, records=2)], window={0})
    assert m["cli.load_config.s"] == pytest.approx(1.0)
    assert m["cli.self.s"] == pytest.approx((10 - 2 - 7) * 0.5 / 2)
    assert m["metrology.report.s"] == pytest.approx(7 * 0.5 / 2)
    assert m["metrology.report.self_s"] == pytest.approx(1 * 0.5 / 2)
    assert m["metrology.verify_frac"] == pytest.approx(4 / 7)
    assert m["metrology.forms.s"] == pytest.approx(0.25)
    assert m["hilbert.eigh.calls"] == 1
    assert m["hilbert.eigh.n3"] == 1000
    assert m["hilbert.eigh.s"] == pytest.approx(1.5 * 0.5 / 2)
    assert m["channels.clusters"] == 2.5
    assert m["metrology.mixed_skipped"] == 0
    assert m["probeopt.trace_len"] == 0.0


def test_counts_cover_only_the_window_and_untraced_spans_are_ignored():
    spans = [
        _span(0, "probeopt.optimize_probe", 0.0, 1.0, invocation=1, trace_len=10, converged=True),
        _span(1, "probeopt.optimize_probe", 1.0, 4.0, invocation=3, trace_len=30, converged=False),
        _span(2, "probeopt.optimize_probe", 4.0, 9.0, invocation=2, trace_len=99, converged=True),
    ]
    traced = [Invocation(1, 1.0, 1, shortfall=1e-3), Invocation(3, 2.0, 1, shortfall=5e-3)]
    m = layer_metrics(spans, traced, window={1})
    assert m["probeopt.trace_len"] == 10
    assert m["probeopt.converged_frac"] == 1.0
    assert m["probeopt.qfi_shortfall_max"] == 1e-3
    assert m["probeopt.optimize_probe.s"] == pytest.approx((1.0 + 6.0) / 2)


def test_report_coverage():
    spans = [
        _span(0, "metrology.report", 0.0, 10.0),
        _span(1, "hilbert.eigh", 0.0, 4.0, parent=0),
        _span(2, "metrology.qfi_mixed", 5.0, 10.0, parent=0),
    ]
    assert report_coverage(spans) == [pytest.approx(0.9)]
