"""Benchmark harness: timed loop, set-up samples, oracles, metrics, run record.

An untraced run (--trace 0) alternates calibrations and invocations for
--seconds, then takes SETUP_SAMPLES fresh-interpreter set-up samples, each
between two calibrations, and reports the end-to-end metrics.  A traced run
(--trace 1) alternates untraced and traced invocations of the same input
slot, so the tracer's overhead is measured next to the per-layer numbers.
Oracles run after the timed loop.  The run record, with every invocation's
raw wall time and calibrations, goes to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import calibrate as cal
from .tracing import COVERAGE_WARN, Invocation, Tracer, layer_metrics, report_coverage
from .workloads import WORKLOADS

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
SETUP_SCRIPT = Path(__file__).resolve().parent / "setup_sample.py"

END_TO_END_UNITS = {"points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.load_config.s": "s/invocation",
    "cli.self.s": "s/point",
    "models.calls": "count/point",
    "models.s": "s/point",
    "hilbert.eigh.calls": "count/point",
    "hilbert.eigh.n3": "count/point",
    "hilbert.eigh.s": "s/point",
    "hilbert.density_matrix.s": "s/point",
    "channels.spectral_projectors.s": "s/point",
    "channels.twirl.s": "s/point",
    "channels.clusters": "count/point",
    "metrology.report.s": "s/point",
    "metrology.report.self_s": "s/point",
    "metrology.qfi_mixed.s": "s/point",
    "metrology.check_max_loss.s": "s/point",
    "metrology.qfi_eigenvector_form.s": "s/point",
    "metrology.forms.s": "s/point",
    "metrology.verify_frac": "ratio",
    "metrology.mixed_skipped": "count/point",
    "probeopt.optimize_probe.s": "s/point",
    "probeopt.trace_len": "count/point",
    "probeopt.converged_frac": "ratio",
    "probeopt.qfi_shortfall_max": "qfi",
    "host.speed": "ratio",
    "host.wall_points_per_s": "1/s",
    "host.calibration_frac": "ratio",
    "trace.overhead": "ratio",
}


class Run:
    """One benchmark run's invocations, in order, with their calibrations."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.cals = [cal.calibrate()]
        self.rows: list[dict] = []
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def invoke(self, index: int, slot: int, tracer: Tracer | None = None) -> None:
        prepared = self.workload.prepare(index, slot)
        if tracer is not None:
            tracer.invocation = index
            tracer.install()
        try:
            begin = time.perf_counter()
            outcome = self.workload.invoke(prepared)
            wall = time.perf_counter() - begin
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.cals.append(cal.calibrate())
        sample = cal.Sample(
            wall, self.cals[-2], self.cals[-1], self.workload.records_per_invocation, slot
        )
        self.rows.append({"index": index, "slot": slot, "traced": tracer is not None,
                          "sample": sample, "outcome": outcome})

    def samples(self, traced: bool | None = None) -> list[cal.Sample]:
        return [r["sample"] for r in self.rows if traced is None or r["traced"] == traced]

    def check(self) -> tuple[int, int]:
        """Run the oracle on every invocation; (attempted, failed) records."""
        attempted = failed = 0
        for row in self.rows:
            records = self.workload.records_per_invocation
            failures = self.workload.check(row["index"], row["slot"], row["outcome"])
            row["failures"] = failures[:records]
            attempted += records
            failed += len(row["failures"])
            for message in row["failures"]:
                sys.stderr.write(f"perfbench: oracle failure: {message}\n")
        return attempted, failed

    def record(self) -> list[dict]:
        out = []
        for row in self.rows:
            s, outcome = row["sample"], row["outcome"]
            out.append({
                "index": row["index"], "slot": row["slot"], "traced": row["traced"],
                "wall_s": s.wall_s, "cal_before": s.cal_before, "cal_after": s.cal_after,
                "c": s.c, "ref_s": s.ref_s, "records": s.records,
                "sha256": outcome.sha256, "failures": row.get("failures", []),
            })
        return out


def setup_samples(workload, src: Path, count: int) -> dict:
    """Fresh-interpreter set-up times, each between two calibrations."""
    config = workload.setup_config()
    argv = [sys.executable, str(SETUP_SCRIPT), str(src)] + ([str(config)] if config else [])
    cals = [cal.calibrate()]
    walls = []
    for _ in range(count):
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
        )
        walls.append(float(proc.stdout.strip().splitlines()[-1]))
        cals.append(cal.calibrate())
    refs = [cal.Sample(wall, cals[i], cals[i + 1], 1).ref_s for i, wall in enumerate(walls)]
    return {"walls": walls, "cals": cals, "ref_s": refs, "median_ref_s": statistics.median(refs)}


def plain_run(workload, seconds: float, src: Path) -> tuple[Run, dict, dict, dict]:
    """End-to-end metrics, their sample counts, and the extra run-record fields."""
    run = Run(workload)
    index = 0
    while index == 0 or run.elapsed() < seconds:
        run.invoke(index, index % workload.cycle)
        index += 1
    loop_s = run.elapsed()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = setup_samples(workload, src, SETUP_SAMPLES)
    samples = run.samples()
    metrics = {
        "points_per_s": cal.points_per_s(samples),
        "setup_s": setup["median_ref_s"],
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {"points_per_s": len(samples), "setup_s": SETUP_SAMPLES, "peak_rss_mb": 1}
    extra = {
        "loop_s": loop_s,
        "setup": setup,
        "wall_points_per_s": cal.wall_points_per_s(samples),
        "calibration_frac": sum(run.cals) / loop_s,
    }
    return run, metrics, counts, extra


def traced_run(workload, seconds: float, spans_path: Path) -> tuple[Run, Tracer, dict]:
    """Pairs of untraced and traced invocations on one slot, order alternating."""
    run = Run(workload)
    tracer = Tracer()
    pair = 0
    while pair < workload.cycle or run.elapsed() < seconds:
        order = (False, True) if pair % 2 == 0 else (True, False)
        for traced in order:
            run.invoke(2 * pair + traced, pair % workload.cycle, tracer if traced else None)
        pair += 1
    loop_s = run.elapsed()
    tracer.write(spans_path)
    return run, tracer, {"loop_s": loop_s, "calibration_frac": sum(run.cals) / loop_s}


def traced_metrics(run: Run, tracer: Tracer, extra: dict) -> dict:
    traced = [
        Invocation(r["index"], r["sample"].speed, r["sample"].records, r["outcome"].shortfall)
        for r in run.rows
        if r["traced"]
    ]
    window = {inv.index for inv in traced[: run.workload.cycle]}
    metrics = layer_metrics(tracer.spans, traced, window)
    plain, with_trace = run.samples(traced=False), run.samples(traced=True)
    metrics["host.speed"] = cal.median_speed(run.samples())
    metrics["host.wall_points_per_s"] = cal.wall_points_per_s(plain)
    metrics["host.calibration_frac"] = extra["calibration_frac"]
    metrics["trace.overhead"] = cal.points_per_s(plain) / cal.points_per_s(with_trace) - 1.0
    coverage = report_coverage(tracer.spans)
    low = [c for c in coverage if c < COVERAGE_WARN]
    if low:
        sys.stderr.write(
            f"perfbench: warning: {len(low)} of {len(coverage)} metrology.report spans are "
            f"less than {COVERAGE_WARN:.0%} covered by child spans (lowest {min(low):.1%})\n"
        )
    return metrics


# ---------------------------------------------------------------------------
# Environment record.


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> list[dict]:
    """Version string and thread count of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                            and line.rstrip().endswith(".so")})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    entry.update(config=config().decode(), threads=threads())
        found.append(entry)
    return found


def _commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, seed: int, host_speed: float) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "commit": _commit(root),
        "seed": seed,
        "c_ref": cal.C_REF,
        "host_speed_median": host_speed,
    }


# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, root: Path) -> int:
    """Every workload in its own interpreter; one combined summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        *table, last = proc.stdout.strip().splitlines()
        print("\n".join(table))
        result = json.loads(last)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def run(argv: list[str], root: Path) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        raise SystemExit("perfbench: --seed must be non-negative")
    if args.workload == "all":
        return run_all(args, root)
    runs_dir = root / ".perfbench_runs"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = runs_dir / stem
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warmup()
        if args.trace:
            bench, tracer, extra = traced_run(workload, args.seconds, runs_dir / f"{stem}.spans.jsonl")
            attempted, failed = bench.check()
            metrics = traced_metrics(bench, tracer, extra)
            units = PER_LAYER_UNITS
            counts = {name: sum(r["traced"] for r in bench.rows) for name in units}
        else:
            bench, metrics, counts, extra = plain_run(workload, args.seconds, root / "src")
            attempted, failed = bench.check()
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    host_speed = cal.median_speed(bench.samples())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, args.seed, host_speed),
        "invocations": bench.record(),
        "cals": bench.cals,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        **extra,
    }
    (runs_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  host.speed {host_speed:.3f}  "
          f"records {attempted}  failed {failed}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit:14s} n={counts[name]}")
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0
