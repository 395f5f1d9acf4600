"""Command-line interface: scenario execution, sweeps, audits, optimization.

The tool reads a JSON config, runs the requested scenario (or sweep), and
emits plot-ready flat records; no plotting happens here.  All state enters
through flags and the config file, never the environment, and identical
configs produce byte-identical output files (floats are written with
shortest round-trip formatting, columns in a frozen order).

The config is validated once, when it loads: finite numbers, integral
counts (N, truncation, n_total_max, which may be written as 4.0), and for a
custom scenario the shapes, the [re, im] number pairs, finite Hermitian
generators and nonzero norm, so `load` rejects a custom scenario exactly
when `run` and `check` would.  A custom array's parsed lists are walked
level by level, each level's items checked for type and length and chained
into the next, and its leaves become one float array read as complex; no
numpy object array is built, whose shape discovery over the 65,536 pairs of
a d = 256 matrix is slower than the whole walk.

orjson parses the file's bytes, 3 to 4 times faster than the stdlib parser on
a dense config's [re, im] lists.  Where orjson refuses them (malformed
JSON, NaN and Infinity literals, numbers beyond the double range, lone
surrogate escapes, invalid UTF-8), the stdlib parser reads the same bytes,
decoded as `open(path, encoding="utf-8")` would, and its tree or its error
is the answer.  So a config keeps the tree and a broken one the message
that the stdlib parser alone gives, with one difference: orjson reads an
integer literal beyond 64 bits as a float, which fails a count's integer
check and is the same double wherever a float is read.  A config nested more
than 64 brackets deep skips orjson, which crashes the interpreter on a
document nested ~150,000 deep, and goes straight to the stdlib parser; a
bracket count over the bytes, strings left out, reads the depth first.

The load runs with Python's cyclic garbage collector paused, and the
caller's setting comes back when it returns or raises: a parsed JSON tree
holds no reference cycle, so a collection could free nothing there, yet
orjson building the [re, im] lists of a dense d = 256 config would set off
about 190 of them.

Every scenario kind is one lambda-independent system (psi0, K, G); each
point is psi0 at its lambda on the system's Generators pair at cluster_tol.
A lambda sweep builds both once, so the scenarios on one pair share each
per-pair decomposition; a sweep over N, alpha_sq or z builds them again at
each point.  report()'s docstring counts the eigendecompositions in both.

Exit codes: 0 success, 2 config error, 3 numerical error, 4 I/O error.
On failure a machine-readable JSON error record goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np
import orjson

from .channels import DEFAULT_CLUSTER_TOL
from .hilbert import HermitianOperator, StateVector
from .metrology import DEFAULT_CONDITION_TOL, Generators, Scenario, report
from .models import (
    QrfStateSpec,
    example1_qfi_closed_form,
    example1_scenario,
    example2_system,
    example3_scenario,
    qrf_amplitudes,
)
from .probeopt import (
    FIXED_MEAN_ENERGY,
    OptProblem,
    coherent_weight_profile,
    optimize_probe,
)

__all__ = ["main", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_SCENARIOS = ("example1", "example2", "example3", "custom")
_TOP_KEYS = {
    "scenario",
    "sweep",
    "qrf",
    "params",
    "output",
    "dim",
    "k_matrix",
    "g_matrix",
    "psi0",
}
_SWEEP_KEYS = {"variable", "start", "stop", "points"}
_QRF_KEYS = {"kind", "N", "alpha", "r", "x_fraction", "amplitudes"}
_OUTPUT_KEYS = {"path", "format"}
_ALLOWED_PARAMS = {
    "example1": {"lambda", "cluster_tol", "truncation", "N", "alpha_sq", "opt_tol"},
    "example2": {"lambda", "cluster_tol", "omega", "kappa", "N", "n_total_max"},
    "example3": {"lambda", "cluster_tol", "z", "x", "y"},
    "custom": {"lambda", "cluster_tol"},
}
_COUNT_PARAMS = {"N", "truncation", "n_total_max"}
_SWEEP_VARIABLES = {
    "example1": {"N", "alpha_sq", "lambda", "mean_energy"},
    "example2": {"lambda", "N"},
    "example3": {"lambda", "z"},
    "custom": {"lambda"},
}


class ConfigError(ValueError):
    """The config file failed to parse or validate."""


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    sweep: SweepSpec | None
    qrf: QrfStateSpec | None
    params: dict
    out_path: str | None
    out_format: str
    custom: Scenario | None  # custom's (psi0, K, G), validated once, at load


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_number(value, kinds=(int, float)) -> bool:
    """A finite JSON number of the given kinds (int for a count), never bool.

    An integer literal beyond the largest double is not finite.
    """
    if not isinstance(value, kinds) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _complex_array(raw, shape: tuple[int, ...], where: str) -> np.ndarray:
    """Complex array of the given shape from nested [re, im] pairs of JSON numbers.

    The parsed lists are walked level by level, one level per axis and one
    for the pairs: every item of a level must be a list of that axis's
    length, and the next level chains them.  The leaves, all ints and
    floats, become one float array read as complex.  A fault gets the
    message an object array's shape would give: a structure off at some
    level is a shape error, a leaf that is no number a pair error.
    """
    level, wrong_shape = [raw], f"{where}: expected {' x '.join(map(str, shape))} [re, im] pairs"
    for n in shape + (2,):
        _require(set(map(type, level)) == {list} and set(map(len, level)) == {n}, wrong_shape)
        level = list(itertools.chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        # leaves that are all lists of one length would be one more axis
        _require(set(map(type, level)) != {list} or len(set(map(len, level))) != 1, wrong_shape)
        raise ConfigError(f"{where}: complex entries must be [re, im] number pairs")
    try:
        values = np.array(level, dtype=float)
    except OverflowError as exc:  # an integer literal beyond the largest double
        raise ConfigError(f"{where}: entries must be finite numbers") from exc
    # each [re, im] pair read as one complex number, not formed as
    # re + 1j * im, which would turn a -0.0 real part into +0.0
    return values.view(complex).reshape(shape)


def _parse_qrf(raw) -> QrfStateSpec:
    _require(isinstance(raw, dict), "qrf must be an object")
    unknown = set(raw) - _QRF_KEYS
    _require(not unknown, f"unknown qrf keys: {sorted(unknown)}")
    _require("kind" in raw, "qrf needs a 'kind'")
    _require(raw.get("N") is None or _is_number(raw["N"], int), "qrf.N must be an integer")
    for key in ("alpha", "r", "x_fraction"):
        _require(
            raw.get(key) is None or _is_number(raw[key]), f"qrf.{key} must be a finite number"
        )
    amplitudes = raw.get("amplitudes")
    if amplitudes is not None:
        _require(
            isinstance(amplitudes, list) and len(amplitudes) > 0,
            "qrf.amplitudes must be a non-empty list of [re, im] pairs",
        )
        amplitudes = tuple(
            _complex_array(amplitudes, (len(amplitudes),), "qrf.amplitudes").tolist()
        )
    try:
        return QrfStateSpec(
            kind=raw["kind"],
            n_fock=raw.get("N"),
            alpha=raw.get("alpha"),
            r=raw.get("r"),
            x_fraction=raw.get("x_fraction"),
            amplitudes=amplitudes,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid qrf spec: {exc}") from exc


def load_config(path: str, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Parse and validate a config file; flag overrides win over file values."""
    # a JSON tree holds no reference cycle, so a collection during the load
    # frees nothing; the tree dies with _load_config's frame, before the
    # collector resumes
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_config(path, overrides)
    finally:
        if enabled:
            gc.enable()


# A valid config nests at most 5 deep; orjson crashes the interpreter on a
# document nested ~150,000 deep, so one deeper than this goes to the stdlib
# parser, whose RecursionError is a ConfigError.
_ORJSON_MAX_DEPTH = 64
_NOT_SCANNED = bytes(c for c in range(256) if c not in b'[]{}"\\')
_STRING = re.compile(rb'"(?:[^"\\]|\\.)*"', re.DOTALL)
_NESTING = np.zeros(256, dtype=np.intp)
_NESTING[list(b"[{")], _NESTING[list(b"]}")] = 1, -1


def _depth(data: bytes) -> int:
    """The deepest bracket nesting in JSON bytes, brackets inside strings left out.

    Strings are stripped as a JSON lexer reads them, so the count is exact up
    to the first syntax error, where orjson stops.  They are stripped from the
    brackets and quotes alone, or from the whole text once a backslash appears.
    """
    kept = data.translate(None, _NOT_SCANNED)
    if b"\\" in kept:
        kept = _STRING.sub(b"", data).translate(None, _NOT_SCANNED)
    else:
        kept = _STRING.sub(b"", kept)
    return int(np.cumsum(_NESTING[np.frombuffer(kept, dtype=np.uint8)]).max(initial=0))


def _parse(path: str):
    """The config file's JSON tree: orjson's, or the stdlib's where orjson refuses
    it or where it nests too deep for orjson to be safe."""
    with open(path, "rb") as fh:
        data = fh.read()
    if _depth(data) <= _ORJSON_MAX_DEPTH:
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    # the bytes already read, decoded as open(path, encoding="utf-8") would
    # (newlines translated), so a pipe gives the same answer as a file
    try:
        return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc


def _load_config(path: str, overrides: argparse.Namespace | None) -> RunConfig:
    raw = _parse(path)
    _require(isinstance(raw, dict), "config root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    scenario = raw.get("scenario")
    _require(scenario in _SCENARIOS, f"scenario must be one of {_SCENARIOS}")

    sweep = None
    if raw.get("sweep") is not None:
        s = raw["sweep"]
        _require(isinstance(s, dict), "sweep must be an object")
        unknown = set(s) - _SWEEP_KEYS
        _require(not unknown, f"unknown sweep keys: {sorted(unknown)}")
        _require(_SWEEP_KEYS <= set(s), "sweep needs variable, start, stop, points")
        _require(
            isinstance(s["variable"], str) and s["variable"] in _SWEEP_VARIABLES[scenario],
            f"scenario {scenario} cannot sweep {s['variable']!r}",
        )
        _require(
            all(_is_number(s[key]) for key in ("start", "stop")),
            "sweep start and stop must be finite numbers",
        )
        points = s["points"]
        _require(_is_number(points, int) and points >= 1, "sweep points must be an integer >= 1")
        sweep = SweepSpec(s["variable"], float(s["start"]), float(s["stop"]), points)

    params = raw.get("params", {})
    _require(isinstance(params, dict), "params must be an object")
    unknown = set(params) - _ALLOWED_PARAMS[scenario]
    _require(not unknown, f"unknown params for {scenario}: {sorted(unknown)}")
    for key, value in params.items():
        _require(_is_number(value), f"param {key} must be a finite number")
        # a count may be written as an integral float, 4.0 say
        _require(key not in _COUNT_PARAMS or float(value).is_integer(),
                 f"param {key} must be an integer")

    qrf = _parse_qrf(raw["qrf"]) if raw.get("qrf") is not None else None

    out_path, out_format = None, "csv"
    if raw.get("output") is not None:
        out = raw["output"]
        _require(isinstance(out, dict), "output must be an object")
        unknown = set(out) - _OUTPUT_KEYS
        _require(not unknown, f"unknown output keys: {sorted(unknown)}")
        out_path = out.get("path")
        _require(out_path is None or isinstance(out_path, str), "output path must be a string")
        out_format = out.get("format", "csv")

    custom = None
    if scenario == "custom":
        for key in ("dim", "k_matrix", "g_matrix", "psi0"):
            _require(key in raw, f"custom scenario needs {key!r}")
        dim = raw["dim"]
        _require(_is_number(dim, int) and dim >= 1, "dim must be a positive integer")
        # popped, so each parsed list is freed before validation allocates
        k_matrix = _complex_array(raw.pop("k_matrix"), (dim, dim), "k_matrix")
        g_matrix = _complex_array(raw.pop("g_matrix"), (dim, dim), "g_matrix")
        psi0 = _complex_array(raw.pop("psi0"), (dim,), "psi0")
        try:
            custom = Scenario(
                fiducial=StateVector(psi0),
                k_generator=HermitianOperator(k_matrix),
                g_generator=HermitianOperator(g_matrix),
                lam=float(params.get("lambda", 0.0)),
            )
        except ValueError as exc:
            raise ConfigError(f"validation error in custom scenario: {exc}") from exc
    else:
        for key in ("dim", "k_matrix", "g_matrix", "psi0"):
            _require(key not in raw, f"{key!r} is only valid for scenario 'custom'")

    if overrides is not None:
        if getattr(overrides, "out", None):
            out_path = overrides.out
        if getattr(overrides, "format", None):
            out_format = overrides.format
        if getattr(overrides, "cluster_tol", None) is not None:
            params = dict(params)
            params["cluster_tol"] = overrides.cluster_tol
    cluster_tol = params.get("cluster_tol", DEFAULT_CLUSTER_TOL)  # NaN fails this too
    _require(0 < cluster_tol < math.inf, "cluster_tol must be positive and finite")
    _require(out_format in ("csv", "json"), "output format must be csv or json")
    return RunConfig(
        scenario=scenario,
        sweep=sweep,
        qrf=qrf,
        params=dict(params),
        out_path=out_path,
        out_format=out_format,
        custom=custom,
    )


def _system(cfg: RunConfig, variable: str, params: dict) -> tuple[Scenario, dict]:
    """The lambda-independent system at one point and its resolved non-lambda params."""
    kind = cfg.scenario
    if kind == "custom":
        return cfg.custom, {}
    _require(
        kind != "example1" or cfg.qrf is not None or {"N", "alpha_sq"} & params.keys(),
        "example1 needs a qrf spec or an N/alpha_sq parameter",
    )
    _require(kind != "example3" or "z" in params, "example3 needs a z parameter (fixed or swept)")
    try:
        if kind == "example1":
            if variable == "N" or (cfg.qrf is None and "N" in params):
                spec = QrfStateSpec.uniform(int(params["N"]))
            elif variable == "alpha_sq" or (cfg.qrf is None and "alpha_sq" in params):
                spec = QrfStateSpec.coherent(math.sqrt(params["alpha_sq"]))
            else:
                spec = cfg.qrf
            # 0 or absent: qrf_amplitudes picks the truncation
            qrf = qrf_amplitudes(spec, int(params.get("truncation", 0)) or None)
            resolved = {"truncation": qrf.dim}
            if variable in ("N", "alpha_sq"):
                resolved[variable] = params[variable]
            return example1_scenario(qrf), resolved
        if kind == "example2":
            n_fock = int(params.get("N", 4))
            n_total_max = int(params.get("n_total_max", n_fock))
            # omega and kappa default in example2_system only
            given = {key: float(params[key]) for key in ("omega", "kappa") if key in params}
            system = example2_system(n_total_max=n_total_max, **given)
            qrf = qrf_amplitudes(QrfStateSpec.uniform(n_fock), n_fock)
            return system.scenario(qrf), {"N": n_fock, "omega": system.omega,
                                          "kappa": system.kappa, "n_total_max": n_total_max}
        z = float(params["z"])
        x = float(params.get("x", 0.0))
        y = float(params.get("y", math.sqrt(max(0.0, 1.0 - z * z - x * x))))
        return example3_scenario((x, y, z)), {"x": x, "y": y, "z": z}
    except ValueError as exc:  # a TruncationError too
        raise ConfigError(f"invalid parameters: {exc}") from exc


def _reports(cfg: RunConfig):
    """(variable, value, resolved params, report) at each point of the run.

    Without a sweep the run is one point of a lambda sweep.  The system is
    built once for a lambda sweep and at every point of any other sweep,
    with one Generators pair at cluster_tol that puts psi0 at each lambda.
    """
    variable, grid = "lambda", [cfg.params.get("lambda", 0.0)]
    if cfg.sweep is not None:
        variable, grid = cfg.sweep.variable, cfg.sweep.grid()
        if variable == "N":
            grid = np.rint(grid)
    cluster_tol = float(cfg.params.get("cluster_tol", DEFAULT_CLUSTER_TOL))
    params = dict(cfg.params)
    system = None
    for value in map(float, grid):
        params[variable] = value
        if system is None or variable != "lambda":
            system, resolved = _system(cfg, variable, params)
            pair = Generators(system.k_generator, system.g_generator, cluster_tol)
        lam = float(params.get("lambda", 0.0))
        rep = report(pair.scenario(system.fiducial, lam))
        yield variable, value, {"lambda": lam, **resolved}, rep


def _record(cfg: RunConfig, point: int, variable: str, value, resolved, rep) -> dict:
    record = {
        "scenario": cfg.scenario,
        "point": point,
        "variable": variable,
        "value": value,
    }
    for key in sorted(resolved):
        record[f"param_{key}"] = resolved[key]
    record["alice_qfi"] = rep.alice_qfi
    record["bob_qfi"] = rep.bob_qfi
    record["loss"] = rep.loss
    record["no_loss"] = rep.no_loss
    record["max_loss"] = rep.max_loss
    record["cov_gk"] = rep.cov_gk
    record["mean_commutator_re"] = rep.mean_commutator.real
    record["mean_commutator_im"] = rep.mean_commutator.imag
    return record


def _format_cell(value) -> str:
    """A record value (a Python bool, int, float or str) as a CSV cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_records(records: list[dict], path: str, fmt: str) -> None:
    if fmt == "csv":
        header = list(records[0].keys())
        lines = [",".join(header)]
        for record in records:
            lines.append(",".join(_format_cell(record[key]) for key in header))
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps({"records": records}, indent=2) + "\n"
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except UnicodeEncodeError as exc:
        raise OSError(f"cannot encode output path {path!r}: {exc}") from exc
    with fh:
        fh.write(payload)


def cmd_run(cfg: RunConfig, quiet: bool) -> int:
    _require(cfg.out_path is not None, "run needs an output path (config or --out)")
    swept = cfg.sweep.variable if cfg.sweep is not None else None
    _require(swept != "mean_energy", "mean_energy is swept only by optimize")
    records = [_record(cfg, point, *values) for point, values in enumerate(_reports(cfg))]
    _write_records(records, cfg.out_path, cfg.out_format)
    if not quiet:
        print(f"wrote {len(records)} record(s) to {cfg.out_path}")
    return EXIT_OK


def cmd_check(cfg: RunConfig, quiet: bool, fmt: str | None) -> int:
    _require(cfg.sweep is None, "check expects a single-point config (no sweep)")
    _, _, resolved, rep = next(_reports(cfg))
    residual_real, residual_kernel = rep.max_loss_residuals
    tol = DEFAULT_CONDITION_TOL
    payload = {
        "scenario": cfg.scenario,
        "params": resolved,
        "alice_qfi": rep.alice_qfi,
        "bob_qfi": rep.bob_qfi,
        "loss": rep.loss,
        "no_loss": rep.no_loss,
        "no_loss_residual": rep.no_loss_residual,
        "max_loss": rep.max_loss,
        "max_loss_real_residual": residual_real,
        "max_loss_kernel_residual": residual_kernel,
        "cov_gk": rep.cov_gk,
        "mean_commutator_re": rep.mean_commutator.real,
        "mean_commutator_im": rep.mean_commutator.imag,
        "tolerance": tol,
    }
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"scenario = {cfg.scenario}")
    print(f"alice_qfi = {rep.alice_qfi!r}")
    print(f"bob_qfi = {rep.bob_qfi!r}")
    print(f"loss = {rep.loss!r}")
    verdict = "passed" if rep.no_loss else "failed"
    print(f"no_loss = {_format_cell(rep.no_loss)} (clause {verdict}: residual {rep.no_loss_residual:.3e} vs tol {tol:.0e})")
    verdict = "passed" if rep.max_loss else "failed"
    print(
        f"max_loss = {_format_cell(rep.max_loss)} (clause {verdict}: "
        f"real residual {residual_real:.3e}, kernel residual {residual_kernel:.3e} vs tol {tol:.0e})"
    )
    print(f"cov_gk = {rep.cov_gk!r}")
    print(f"mean_commutator = {rep.mean_commutator.real!r} {rep.mean_commutator.imag:+}j")
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, quiet: bool) -> int:
    _require(cfg.scenario == "example1", "optimize runs in the example1 context")
    _require(cfg.out_path is not None, "optimize needs an output path (config or --out)")
    _require(
        cfg.sweep is not None and cfg.sweep.variable == "mean_energy",
        "optimize needs a sweep over mean_energy",
    )
    n_levels = cfg.params.get("N", 24)
    _require(_is_number(n_levels, int), "param N must be an integer")
    try:
        opt_tol = float(cfg.params.get("opt_tol", 1e-5))
        # every problem is validated before the first solve
        free = OptProblem(n_levels=n_levels, tol=opt_tol)
        problems = [
            OptProblem(
                n_levels=n_levels,
                constraint=FIXED_MEAN_ENERGY,
                energy_target=float(energy),
                tol=opt_tol,
            )
            for energy in cfg.sweep.grid()
        ]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid optimize parameters: {exc}") from exc
    unconstrained = optimize_probe(free)
    records = []
    for point, problem in enumerate(problems):
        energy = problem.energy_target
        matched = min(n_levels, max(1, int(round(2.0 * energy + 1.0))))
        uniform = np.zeros(n_levels)
        uniform[:matched] = 1.0 / math.sqrt(matched)
        qfi_uniform = example1_qfi_closed_form(uniform)
        coherent = np.sqrt(coherent_weight_profile(n_levels, energy))
        qfi_coherent = example1_qfi_closed_form(coherent)
        constrained = optimize_probe(problem)
        records.append(
            {
                "point": point,
                "mean_energy": energy,
                "qfi_uniform": qfi_uniform,
                "qfi_coherent": qfi_coherent,
                "qfi_optimal": constrained.qfi,
                "qfi_optimal_unconstrained": unconstrained.qfi,
                "energy_residual": constrained.energy_residual,
                "converged": constrained.converged,
            }
        )
    _write_records(records, cfg.out_path, cfg.out_format)
    if not quiet:
        print(f"wrote {len(records)} record(s) to {cfg.out_path}")
    return EXIT_OK


def cmd_load(cfg: RunConfig, quiet: bool) -> int:
    scenario = cfg.custom
    _require(scenario is not None, "scenario is not 'custom'")
    if not quiet:
        print(f"custom scenario ok: dim={scenario.dim} lambda={scenario.lam!r}")
        print(f"psi0 norm = {float(np.linalg.norm(scenario.fiducial.amplitudes))!r}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on bad arguments, so they get the JSON error record."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent and reads -1e-8 as an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every main()
    call: parse_args keeps no state on it, and no caller modifies it."""
    parser = _Parser(
        prog="twirlqfi",
        description="Fisher-information diagnostics for dephasing from imperfect reference frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute a scenario or sweep and write records"),
        ("check", "audit the loss-theorem conditions for a single point"),
        ("optimize", "probe optimization over a mean-energy grid (example1)"),
        ("load", "validate a custom-scenario config without running it"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", help="output file path (overrides config)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--cluster-tol", dest="cluster_tol", type=float,
                       help="eigenvalue clustering tolerance")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config, overrides=args)
        if args.command == "run":
            return cmd_run(cfg, args.quiet)
        if args.command == "check":
            return cmd_check(cfg, args.quiet, args.format)
        if args.command == "optimize":
            return cmd_optimize(cfg, args.quiet)
        return cmd_load(cfg, args.quiet)
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _emit_error("io", str(exc))
        return EXIT_IO
    except (ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
        _emit_error("numerical", str(exc))
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
