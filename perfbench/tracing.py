"""In-memory span tracer around twirlqfi's public functions, from outside.

The tracer replaces module attributes with timing wrappers, in every
twirlqfi module that bound the same function object, so calls made inside
the library are traced too; nothing under src/ changes.  Spans are kept in
memory and written out when the run ends.  Per-layer metrics are computed
from the spans: times are rescaled to reference seconds with the factor of
the invocation the span belongs to, and self time is a span's duration
minus its direct children's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# Functions report() evaluates only to compare against the value it returns.
VERIFY_ONLY = frozenset(
    {
        "metrology.qfi_pure",
        "metrology.qfi_anticommutator_form",
        "metrology.qfi_covariance_form",
        "metrology.qfi_eigenvector_form",
        "metrology.qfi_mixed",
        "metrology.qfi_loss",
        "metrology.loss_covariance_form",
        "channels.twirl",
        "channels.twirl_hermitian",
        "hilbert.density_matrix",  # rho_lambda, built only for the mixed-state check
    }
)
# The cheap closed-form evaluations report() makes, returned or not.
FORMS = (
    "qfi_unitary",
    "qfi_pure",
    "qfi_twirled_pure",
    "qfi_anticommutator_form",
    "qfi_covariance_form",
    "qfi_loss",
    "loss_covariance_form",
    "check_no_loss",
    "necessary_conditions",
)
COVERAGE_WARN = 0.9


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.invocation)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, result)
                return result

        return traced

    def install(self) -> None:
        """Wrap every target in every twirlqfi module that binds it."""
        from twirlqfi import channels, cli, hilbert, metrology, models, probeopt

        modules = _twirlqfi_modules()
        for name, fn, annotate in _targets(channels, cli, hilbert, metrology, models, probeopt):
            wrapper = self.wrap(name, fn, annotate)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        post_init = hilbert.DensityMatrix.__post_init__
        self._restore.append((hilbert.DensityMatrix, "__post_init__", post_init))
        hilbert.DensityMatrix.__post_init__ = self.wrap("hilbert.density_matrix", post_init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _twirlqfi_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "twirlqfi" or n.startswith("twirlqfi.")]


def _note_dim(span, args, result):
    span.attrs["d"] = int(args[0].shape[0])


def _note_clusters(span, args, result):
    span.attrs["clusters"] = result.n_projectors


def _note_solve(span, args, result):
    span.attrs["trace_len"] = len(result.trace)
    span.attrs["converged"] = bool(result.converged)


def _targets(channels, cli, hilbert, metrology, models, probeopt):
    targets = [
        ("cli.main", cli.main, None),
        ("cli.load_config", cli.load_config, None),
        # Every eigendecomposition in the library goes through eigh_matrix.
        ("hilbert.eigh", hilbert.eigh_matrix, _note_dim),
        ("channels.spectral_projectors", channels.spectral_projectors, _note_clusters),
        ("channels.twirl", channels.twirl, None),
        ("channels.twirl_hermitian", channels.twirl_hermitian, None),
        ("metrology.report", metrology.report, None),
        ("metrology.qfi_mixed", metrology.qfi_mixed, None),
        ("metrology.check_max_loss", metrology.check_max_loss, None),
        ("metrology.qfi_eigenvector_form", metrology.qfi_eigenvector_form, None),
        ("probeopt.optimize_probe", probeopt.optimize_probe, _note_solve),
    ]
    targets += [(f"metrology.{name}", getattr(metrology, name), None) for name in FORMS]
    for name in models.__all__:
        value = getattr(models, name)
        if inspect.isfunction(value) and value.__module__ == models.__name__:
            targets.append((f"models.{name}", value, None))
    return targets


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.


@dataclass(frozen=True)
class Invocation:
    """A traced invocation: its rescaling factor C_REF / c_i and record count."""

    index: int
    factor: float
    records: int
    shortfall: float = 0.0


def _group(name: str) -> str:
    if name.startswith("models."):
        return "models"
    if name.startswith("metrology.") and name.split(".", 1)[1] in FORMS:
        return "metrology.forms"
    if name == "channels.twirl_hermitian":
        return "channels.twirl"
    return name


def layer_metrics(spans: list[Span], traced: list[Invocation], window: set[int]) -> dict:
    """Per-layer metrics of the traced invocations.

    Times are reference seconds per record (cli.load_config.s: per
    invocation).  Counts, and the probe quality figures, cover only the
    invocations in `window` -- one whole input cycle -- so that they repeat
    exactly for a seed whatever the host speed.
    """
    info = {inv.index: inv for inv in traced}
    spans = [s for s in spans if s.invocation in info]
    children: dict[int, list[Span]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def ref(s: Span, seconds: float | None = None) -> float:
        return (s.duration if seconds is None else seconds) * info[s.invocation].factor

    def self_time(s: Span) -> float:
        return ref(s, s.duration - sum(c.duration for c in children[s.id]))

    def outermost(s: Span) -> bool:
        group, parent = _group(s.name), s.parent
        while parent is not None:
            if _group(by_id[parent].name) == group:
                return False
            parent = by_id[parent].parent
        return True

    records = sum(inv.records for inv in traced)
    time_by_group: dict[str, float] = defaultdict(float)
    for s in spans:
        if outermost(s):
            time_by_group[_group(s.name)] += ref(s)

    reports = [s for s in spans if s.name == "metrology.report"]
    report_time = sum(s.duration for s in reports)
    verify_time = sum(
        c.duration for r in reports for c in children[r.id] if c.name in VERIFY_ONLY
    )

    counted = [s for s in spans if s.invocation in window]
    counted_records = sum(info[i].records for i in window)
    solves = [s for s in counted if s.name == "probeopt.optimize_probe"]
    per_record = {
        "models.calls": sum(1 for s in counted if _group(s.name) == "models" and outermost(s)),
        "hilbert.eigh.calls": sum(1 for s in counted if s.name == "hilbert.eigh"),
        "hilbert.eigh.n3": sum(s.attrs["d"] ** 3 for s in counted if s.name == "hilbert.eigh"),
        "channels.clusters": sum(
            s.attrs["clusters"] for s in counted if s.name == "channels.spectral_projectors"
        ),
        "metrology.mixed_skipped": sum(
            1
            for s in counted
            if s.name == "metrology.report"
            and not any(c.name == "metrology.qfi_mixed" for c in children[s.id])
        ),
    }
    metrics = {name: value / counted_records for name, value in per_record.items()}
    for name in (
        "models",
        "hilbert.eigh",
        "hilbert.density_matrix",
        "channels.spectral_projectors",
        "channels.twirl",
        "metrology.report",
        "metrology.qfi_mixed",
        "metrology.check_max_loss",
        "metrology.qfi_eigenvector_form",
        "metrology.forms",
        "probeopt.optimize_probe",
    ):
        metrics[f"{name}.s"] = time_by_group[name] / records
    metrics["cli.load_config.s"] = time_by_group["cli.load_config"] / len(traced)
    metrics["cli.self.s"] = sum(self_time(s) for s in spans if s.name == "cli.main") / records
    metrics["metrology.report.self_s"] = sum(self_time(s) for s in reports) / records
    metrics["metrology.verify_frac"] = verify_time / report_time if reports else 0.0
    metrics["probeopt.trace_len"] = (
        sum(s.attrs["trace_len"] for s in solves) / len(solves) if solves else 0.0
    )
    metrics["probeopt.converged_frac"] = (
        sum(s.attrs["converged"] for s in solves) / len(solves) if solves else 0.0
    )
    metrics["probeopt.qfi_shortfall_max"] = (
        max(info[s.invocation].shortfall for s in solves) if solves else 0.0
    )
    return metrics


def report_coverage(spans: list[Span]) -> list[float]:
    """Share of each metrology.report span covered by its direct children."""
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    return [
        children[s.id] / s.duration
        for s in spans
        if s.name == "metrology.report" and s.duration > 0
    ]
