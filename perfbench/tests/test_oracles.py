import csv
import json

import numpy as np
import pytest

from perfbench import oracles, workloads
from twirlqfi import cli, models
from twirlqfi.probeopt import FIXED_MEAN_ENERGY, OptProblem, OptResult, optimize_probe

SIZES = (3, 1, 4, 1, 2, 1)


def _run(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert cli.main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def dense_case(tmp_path):
    inputs = workloads.dense_inputs(np.random.default_rng(5), sum(SIZES), SIZES)
    rows = _run(tmp_path, workloads.custom_config(inputs, 4))
    return inputs, rows


def test_dense_cluster_sizes_partition_the_dimension():
    assert sum(workloads.DENSE_CLUSTER_SIZES) == workloads.DENSE_DIM
    assert len(workloads.DENSE_CLUSTER_SIZES) == workloads.DENSE_DIM // 4


def test_dense_oracle_accepts_the_program_output(dense_case):
    inputs, rows = dense_case
    assert oracles.check_dense(rows, inputs, SIZES, 4) == []


@pytest.mark.parametrize(
    "column, corrupt",
    [
        ("bob_qfi", lambda v: v * (1 + 1e-6)),
        ("alice_qfi", lambda v: v + 1e-5),
        ("value", lambda v: v + 1e-3),
        ("bob_qfi", lambda v: float("nan")),
    ],
)
def test_dense_oracle_rejects_a_corrupted_record(dense_case, column, corrupt):
    inputs, rows = dense_case
    rows[2][column] = repr(corrupt(float(rows[2][column])))
    assert len(oracles.check_dense(rows, inputs, SIZES, 4)) == 1


def test_dense_oracle_rejects_missing_records(dense_case):
    inputs, rows = dense_case
    assert len(oracles.check_dense(rows[:-1], inputs, SIZES, 4)) == 4


def test_coherent_reference_matches_the_library_closed_form():
    for x in (0.3, 4.1, 17.0, 40.2):
        assert oracles.coherent_reference(x) == pytest.approx(
            models.coherent_qfi_hypergeometric(x), abs=1e-13
        )


def test_coherent_oracle(tmp_path):
    scan = workloads.CoherentScan(3, tmp_path)
    config = scan.config(0, points=3, stop=12.0)
    rows = _run(tmp_path, config)
    sweep = config["sweep"]
    grid = np.linspace(sweep["start"], sweep["stop"], sweep["points"])
    assert oracles.check_coherent(rows, grid) == []
    rows[1]["bob_qfi"] = repr(float(rows[1]["bob_qfi"]) + 2e-6)
    assert len(oracles.check_coherent(rows, grid)) == 1


def test_example1_objective_matches_the_library():
    q = np.random.default_rng(0).dirichlet(np.ones(9))
    q[4] = q[5] = 0.0
    q /= q.sum()
    assert oracles.example1_objective(q) == pytest.approx(
        models.example1_qfi_closed_form(np.sqrt(q)), abs=1e-14
    )


def test_supergradient_bounds_the_concave_objective():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q0, q1 = rng.dirichlet(np.ones(7)), rng.dirichlet(np.ones(7))
        q0[2:4] = 0.0
        bound = oracles.example1_objective(q0) + oracles.example1_supergradient(q0) @ (q1 - q0)
        assert oracles.example1_objective(q1) <= bound + 1e-12


@pytest.fixture(scope="module")
def solve():
    problem = OptProblem(n_levels=6, constraint=FIXED_MEAN_ENERGY, energy_target=1.5, seeds=3)
    return optimize_probe(problem), problem


def test_probe_oracle_accepts_the_program_solve(solve):
    result, problem = solve
    failures, shortfall = oracles.check_probe(result, problem.energy_target, problem.tol)
    assert failures == []
    assert -1e-6 <= shortfall <= oracles.PROBE_SHORTFALL_MAX


def _with(result, **changes):
    fields = {k: getattr(result, k) for k in ("amplitudes", "qfi", "trace", "converged",
                                              "energy_residual", "message")}
    fields.update(changes)
    return OptResult(**fields)


def test_probe_oracle_rejects_corrupted_solves(solve):
    result, problem = solve
    e, tol = problem.energy_target, problem.tol
    uniform = np.full(6, 1.0 / np.sqrt(6))  # mean energy 2.5, not 1.5
    matched = np.zeros(6)
    matched[:4] = 0.5  # mean energy 1.5, but far from optimal
    corrupted = [
        _with(result, converged=False),
        _with(result, qfi=result.qfi + 1e-6),
        _with(result, amplitudes=uniform, qfi=oracles.example1_objective(uniform**2)),
        _with(result, amplitudes=matched, qfi=oracles.example1_objective(matched**2)),
    ]
    for bad in corrupted:
        failures, _ = oracles.check_probe(bad, e, tol)
        assert len(failures) == 1
