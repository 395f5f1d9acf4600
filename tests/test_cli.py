import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import ROOT, src_env

from twirlqfi.cli import ConfigError, _complex_array, load_config, main
from twirlqfi.hilbert import HermitianOperator, StateVector
from twirlqfi.models import example2_qfi_closed_form, example3_bob_qfi

FIXTURES = ROOT / "fixtures"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def random_custom_config(rng, dim, lam):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    k = 0.5 * (a + a.conj().T)
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g = 0.5 * (b + b.conj().T)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)

    def pack_matrix(m):
        return [[[v.real, v.imag] for v in row] for row in m]

    return {
        "scenario": "custom",
        "dim": dim,
        "k_matrix": pack_matrix(k),
        "g_matrix": pack_matrix(g),
        "psi0": [[v.real, v.imag] for v in psi],
        "params": {"lambda": lam},
        "output": {"path": "out.csv", "format": "csv"},
    }, k, g, psi


class TestRun:
    def test_counterexample_fixture(self, tmp_path):
        out = tmp_path / "ce.csv"
        code = main([
            "run", "--config", str(FIXTURES / "counterexample.json"),
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert abs(float(rows[0]["bob_qfi"])) <= 1e-10
        assert abs(float(rows[0]["cov_gk"])) <= 1e-12
        assert rows[0]["max_loss"] == "true"

    def test_identity_k_fixture_carries_nothing(self, tmp_path):
        out = tmp_path / "idk.csv"
        code = main([
            "run", "--config", str(FIXTURES / "identity_k.json"),
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        rows = read_csv(out)
        assert abs(float(rows[0]["alice_qfi"])) <= 1e-12

    def test_uniform_sweep_matches_law(self, tmp_path):
        config = write_config(tmp_path, "sweep.json", {
            "scenario": "example1",
            "sweep": {"variable": "N", "start": 2, "stop": 20, "points": 19},
            "output": {"path": str(tmp_path / "us.csv"), "format": "csv"},
        })
        assert main(["run", "--config", config, "--quiet"]) == 0
        rows = read_csv(tmp_path / "us.csv")
        assert len(rows) == 19
        for row in rows:
            n = float(row["value"])
            assert float(row["bob_qfi"]) == pytest.approx(1 - 1 / n, abs=1e-9)

    def test_explicit_probe_matches_uniform_superposition(self, tmp_path):
        sweep = {"variable": "lambda", "start": 0.0, "stop": 1.0, "points": 5}
        explicit = {"kind": "explicit", "amplitudes": [[1, 0], [1, 0], [1, 0], [1, 0]]}
        uniform = {"kind": "uniform_superposition", "N": 4}
        for name, qrf in (("explicit", explicit), ("uniform", uniform)):
            config = write_config(tmp_path, f"{name}.json", {
                "scenario": "example1", "qrf": qrf, "sweep": sweep,
            })
            out = str(tmp_path / f"{name}.csv")
            assert main(["run", "--config", config, "--out", out, "--quiet"]) == 0
        explicit_csv = (tmp_path / "explicit.csv").read_bytes()
        assert explicit_csv == (tmp_path / "uniform.csv").read_bytes()
        assert len(read_csv(tmp_path / "explicit.csv")) == 5

    def test_direction_indicator_sweep_matches_closed_form(self, tmp_path):
        config = write_config(tmp_path, "ex3.json", {
            "scenario": "example3",
            "params": {"z": 0.5},
            "sweep": {"variable": "lambda", "start": -math.pi, "stop": math.pi,
                       "points": 21},
            "output": {"path": str(tmp_path / "ex3.csv"), "format": "csv"},
        })
        assert main(["run", "--config", config, "--quiet"]) == 0
        for row in read_csv(tmp_path / "ex3.csv"):
            lam = float(row["value"])
            assert float(row["bob_qfi"]) == pytest.approx(
                example3_bob_qfi(0.5, lam), abs=1e-9
            )

    def test_interacting_sweep_peaks_at_half_pi(self, tmp_path):
        config = write_config(tmp_path, "ex2.json", {
            "scenario": "example2",
            "params": {"N": 4},
            "sweep": {"variable": "lambda", "start": -math.pi, "stop": math.pi,
                       "points": 41},
            "output": {"path": str(tmp_path / "ex2.csv"), "format": "csv"},
        })
        assert main(["run", "--config", config, "--quiet"]) == 0
        rows = read_csv(tmp_path / "ex2.csv")
        values = [float(r["bob_qfi"]) for r in rows]
        lams = [float(r["value"]) for r in rows]
        assert abs(abs(lams[int(np.argmax(values))]) - math.pi / 2) <= 1e-9
        for row, value in zip(rows, values):
            assert value == pytest.approx(
                example2_qfi_closed_form(4, float(row["value"])), abs=1e-6
            )

    @pytest.mark.parametrize("kind", ["custom", "example1", "example2", "example3"])
    def test_lambda_sweep_decomposes_generators_once(self, tmp_path, eigh_calls, kind):
        payload = {
            "custom": random_custom_config(np.random.default_rng(59), 6, 0.0)[0],
            "example1": {"scenario": "example1", "qrf": {"kind": "coherent", "alpha": 1.0}},
            "example2": {"scenario": "example2", "params": {"N": 3, "n_total_max": 5}},
            "example3": {"scenario": "example3", "params": {"z": 0.4}},
        }[kind]
        payload["sweep"] = {"variable": "lambda", "start": 0.1, "stop": 2.1, "points": 5}
        config = write_config(tmp_path, "sweep.json", payload)
        assert main(["run", "--config", config, "--out", str(tmp_path / "s.csv"),
                     "--quiet"]) == 0
        # K, G and the eigenvector gate's G once for the sweep, then per point
        # the dephased density matrix
        assert len(eigh_calls) == 3 + 5

    def test_n_sweep_rebuilds_the_system_at_each_point(self, tmp_path, eigh_calls):
        config = write_config(tmp_path, "n.json", {
            "scenario": "example2",
            "params": {"lambda": 0.9},
            "sweep": {"variable": "N", "start": 2, "stop": 5, "points": 4},
        })
        assert main(["run", "--config", config, "--out", str(tmp_path / "n.csv"),
                     "--quiet"]) == 0
        # each N is a new K and G, decomposed at its point
        assert len(eigh_calls) == 4 * 4

    @pytest.mark.parametrize("r, truncation", [(0.8, 64), (1.2, 128)])
    def test_auto_truncation_doubles_past_first_guess(self, tmp_path, r, truncation):
        # the first guess, max(32, int(4 <n> + 16)) = 32, leaves too much tail
        config = write_config(tmp_path, "sq.json", {
            "scenario": "example1",
            "qrf": {"kind": "squeezed_displaced", "alpha": 1.0, "r": r},
            "params": {"lambda": 0.4},
        })
        assert main(["run", "--config", config, "--out", str(tmp_path / "sq.csv"),
                     "--quiet"]) == 0
        assert read_csv(tmp_path / "sq.csv")[0]["param_truncation"] == str(truncation)

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, "det.json", {
            "scenario": "example1",
            "sweep": {"variable": "N", "start": 2, "stop": 8, "points": 7},
            "output": {"path": str(tmp_path / "a.csv"), "format": "csv"},
        })
        assert main(["run", "--config", config, "--quiet"]) == 0
        assert main(["run", "--config", config, "--out", str(tmp_path / "b.csv"),
                     "--quiet"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_json_output(self, tmp_path):
        config = write_config(tmp_path, "j.json", {
            "scenario": "example3",
            "params": {"z": 0.3, "lambda": 0.9},
            "output": {"path": str(tmp_path / "out.json"), "format": "json"},
        })
        assert main(["run", "--config", config, "--quiet"]) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        record = payload["records"][0]
        assert record["bob_qfi"] == pytest.approx(example3_bob_qfi(0.3, 0.9), abs=1e-9)
        assert record["no_loss"] is False


class TestCustomRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(71)
        payload, k, g, psi = random_custom_config(rng, 8, lam=0.37)
        config = write_config(tmp_path, "custom.json", payload)
        out = tmp_path / "custom.csv"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
        # reload and compare: [re, im] JSON numbers round-trip doubles exactly
        raw = json.loads(Path(config).read_text())
        k_back = np.array(
            [[complex(*entry) for entry in row] for row in raw["k_matrix"]]
        )
        assert np.array_equal(k_back, k)
        psi_back = np.array([complex(*entry) for entry in raw["psi0"]])
        assert np.array_equal(psi_back, psi)
        # the program's parse gives the same scenario as the original arrays
        scenario = load_config(config).custom
        assert scenario.k_generator.matrix.tobytes() == HermitianOperator(k).matrix.tobytes()
        assert scenario.g_generator.matrix.tobytes() == HermitianOperator(g).matrix.tobytes()
        assert scenario.fiducial.amplitudes.tobytes() == StateVector(psi).amplitudes.tobytes()
        assert scenario.lam == 0.37

    def test_complex_array_keeps_signed_zeros(self):
        parsed = _complex_array([[[1, -0.0], [-0.0, 0.0]]], (1, 2), "m")
        assert parsed.dtype == complex
        assert parsed.tolist() == [[1 + 0j, 0j]]
        assert np.signbit(parsed.real).tolist() == [[False, True]]
        assert np.signbit(parsed.imag).tolist() == [[True, False]]

    def test_load_subcommand_validates(self, tmp_path):
        rng = np.random.default_rng(73)
        payload, *_ = random_custom_config(rng, 4, lam=0.1)
        config = write_config(tmp_path, "ok.json", payload)
        assert main(["load", "--config", config, "--quiet"]) == 0

    def test_load_rejects_non_hermitian(self, tmp_path, capsys):
        rng = np.random.default_rng(79)
        payload, *_ = random_custom_config(rng, 3, lam=0.0)
        payload["k_matrix"][0][1] = [5.0, 0.0]  # break Hermiticity
        config = write_config(tmp_path, "bad.json", payload)
        assert main(["load", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err

    @pytest.mark.parametrize("key", ["k_matrix", "g_matrix"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_load_rejects_non_finite_entries(self, tmp_path, capsys, key, value):
        # JSON NaN and Infinity parse as floats; NaN slips past tolerance checks
        payload = _custom([key, 1, 1], [value, 0.0])
        config = write_config(tmp_path, "bad.json", payload)
        assert ("NaN" if math.isnan(value) else "Infinity") in Path(config).read_text()
        assert main(["load", "--config", config]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert "finite" in record["error"]["message"]

    def test_parse_error_distinguished(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json", encoding="utf-8")
        assert main(["load", "--config", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err


class TestCheck:
    def test_counterexample_check_text(self, capsys):
        code = main(["check", "--config", str(FIXTURES / "counterexample.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "max_loss = true" in out
        assert "cov_gk" in out

    def test_check_json_payload(self, capsys):
        code = main([
            "check", "--config", str(FIXTURES / "counterexample.json"),
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_loss"] is True
        assert abs(payload["bob_qfi"]) <= 1e-10
        assert abs(payload["cov_gk"]) <= 1e-12

    def test_direction_indicator_z_zero_no_loss(self, tmp_path, capsys):
        config = write_config(tmp_path, "z0.json", {
            "scenario": "example3",
            "params": {"z": 0.0, "lambda": 0.9},
        })
        assert main(["check", "--config", config, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["no_loss"] is True
        assert payload["bob_qfi"] == pytest.approx(payload["alice_qfi"], abs=1e-10)

    def test_no_loss_trivial_custom(self, tmp_path, capsys):
        # G = identity gives the trivial single-projector channel: no loss
        payload = {
            "scenario": "custom",
            "dim": 2,
            "k_matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
            "g_matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "psi0": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
            "params": {"lambda": 0.4},
        }
        config = write_config(tmp_path, "trivial.json", payload)
        assert main(["check", "--config", config, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["no_loss"] is True
        assert abs(out["loss"]) <= 1e-10


class TestOptimize:
    def test_energy_grid_ordering(self, tmp_path):
        config = write_config(tmp_path, "opt.json", {
            "scenario": "example1",
            "params": {"N": 12},
            "sweep": {"variable": "mean_energy", "start": 0.5, "stop": 2.5,
                       "points": 3},
            "output": {"path": str(tmp_path / "opt.csv"), "format": "csv"},
        })
        assert main(["optimize", "--config", config, "--quiet"]) == 0
        rows = read_csv(tmp_path / "opt.csv")
        assert len(rows) == 3
        for row in rows:
            optimal = float(row["qfi_optimal"])
            coherent = float(row["qfi_coherent"])
            uniform = float(row["qfi_uniform"])
            assert optimal >= coherent - 1e-6
            assert coherent >= uniform - 1e-6
            assert float(row["qfi_optimal_unconstrained"]) >= optimal - 1e-6

    def test_low_energy_limit_vanishes(self, tmp_path):
        config = write_config(tmp_path, "low.json", {
            "scenario": "example1",
            "params": {"N": 8},
            "sweep": {"variable": "mean_energy", "start": 0.01, "stop": 0.01,
                       "points": 1},
            "output": {"path": str(tmp_path / "low.csv"), "format": "csv"},
        })
        assert main(["optimize", "--config", config, "--quiet"]) == 0
        row = read_csv(tmp_path / "low.csv")[0]
        assert float(row["qfi_uniform"]) <= 0.05
        assert float(row["qfi_coherent"]) <= 0.05
        assert float(row["qfi_optimal"]) <= 0.05


def _custom(path, value):
    """The counterexample fixture with the value at `path` replaced."""
    payload = json.loads((FIXTURES / "counterexample.json").read_text(encoding="utf-8"))
    *parents, last = path
    node = payload
    for key in parents:
        node = node[key]
    node[last] = value
    return payload


_EX3 = {"scenario": "example3", "params": {"z": 0.5, "lambda": 0.3}}
_SWEEP = {"variable": "lambda", "start": 0.0, "stop": 1.0, "points": 2}

MALFORMED = {
    "amplitudes-number": {"scenario": "example1",
                          "qrf": {"kind": "explicit", "amplitudes": 5}},
    "explicit-without-amplitudes": {"scenario": "example1", "qrf": {"kind": "explicit"}},
    "sweep-start-null": {**_EX3, "sweep": {**_SWEEP, "start": None}},
    "sweep-start-string": {**_EX3, "sweep": {**_SWEEP, "start": "a"}},
    "sweep-stop-infinity": {"scenario": "example2",
                            "sweep": {"variable": "N", "start": 2, "stop": math.inf,
                                      "points": 3}},
    "lambda-nan": {**_EX3, "params": {**_EX3["params"], "lambda": math.nan}},
    "sweep-stop-bool": {**_EX3, "sweep": {**_SWEEP, "stop": True}},
    "sweep-points-bool": {**_EX3, "sweep": {**_SWEEP, "points": True}},
    "sweep-variable-list": {**_EX3, "sweep": {**_SWEEP, "variable": ["lambda"]}},
    "output-path-number": {**_EX3, "output": {"path": 7}},
    "qrf-N-string": {"scenario": "example1",
                     "qrf": {"kind": "uniform_superposition", "N": "4"}},
    "qrf-N-float": {"scenario": "example1",
                    "qrf": {"kind": "uniform_superposition", "N": 4.5}},
    "qrf-alpha-string": {"scenario": "example1", "qrf": {"kind": "coherent", "alpha": "1"}},
    "qrf-r-string": {"scenario": "example1",
                     "qrf": {"kind": "squeezed_displaced", "alpha": 1.0, "r": "1"}},
    "qrf-x_fraction-list": {"scenario": "example1",
                            "qrf": {"kind": "squeezed_displaced", "alpha": 1.0,
                                    "x_fraction": [0.5]}},
    "dim-bool": _custom(["dim"], True),
    "entry-bool": _custom(["k_matrix", 0, 0], [True, 0.0]),
    "entry-string": _custom(["k_matrix", 0, 0], ["1", 0.0]),
    "entry-null": _custom(["g_matrix", 1, 2], [0.0, None]),
    "entry-triple": _custom(["k_matrix", 2, 2], [1.0, 0.0, 0.0]),
    "row-short": _custom(["k_matrix", 1], [[0.0, 0.0], [0.0, 0.0]]),
    "rows-missing": _custom(["g_matrix"], [[[6.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 2),
    "psi0-short": _custom(["psi0"], [[1.0, 0.0], [0.0, 0.0]]),
    "psi0-entry-bool": _custom(["psi0", 0], [0.5, False]),
    "matrix-not-a-list": _custom(["k_matrix"], {"re": 1.0}),
    "k-entry-nan": _custom(["k_matrix", 0, 0], [math.nan, 0.0]),
    "g-entry-infinity": _custom(["g_matrix", 1, 1], [math.inf, 0.0]),
    "cluster_tol-zero": {**_EX3, "params": {**_EX3["params"], "cluster_tol": 0}},
    "cluster_tol-negative": {**_EX3, "params": {**_EX3["params"], "cluster_tol": -1}},
    "cluster_tol-nan": {**_EX3, "params": {**_EX3["params"], "cluster_tol": math.nan}},
    "run-mean_energy-sweep": {"scenario": "example1", "qrf": {"kind": "coherent", "alpha": 1.0},
                              "sweep": {"variable": "mean_energy", "start": 1.0, "stop": 4.0,
                                        "points": 3}},
}

_OPT = {"scenario": "example1", "params": {"N": 8},
        "sweep": {"variable": "mean_energy", "start": 1.0, "stop": 2.0, "points": 2}}

MALFORMED_OPTIMIZE = {
    "optimize-energy-past-top": {**_OPT, "sweep": {**_OPT["sweep"], "stop": 7.5}},
    "optimize-energy-at-top": {**_OPT, "sweep": {**_OPT["sweep"], "stop": 7.0}},
    "optimize-negative-energy": {**_OPT, "sweep": {**_OPT["sweep"], "start": -0.5}},
    "optimize-opt_tol-negative": {**_OPT, "params": {"N": 8, "opt_tol": -1}},
    "optimize-opt_tol-nan": {**_OPT, "params": {"N": 8, "opt_tol": math.nan}},
    "optimize-N-below-2": {**_OPT, "params": {"N": 1}},
    "optimize-N-infinity": {**_OPT, "params": {"N": math.inf}},
}


class TestErrors:
    def test_unknown_config_key(self, tmp_path, capsys):
        config = write_config(tmp_path, "bad.json", {
            "scenario": "example1", "bogus": 1,
        })
        assert main(["run", "--config", config]) == 2
        assert "config" in capsys.readouterr().err

    def test_seed_settings_are_unknown(self, tmp_path, capsys):
        # the probe solve has one deterministic start, so nothing reads a seed
        sweep = {"variable": "mean_energy", "start": 1.0, "stop": 1.0, "points": 1}
        out = str(tmp_path / "x.csv")
        top = write_config(tmp_path, "top.json", {
            "scenario": "example1", "params": {"N": 8}, "sweep": sweep, "rng_seed": 0,
        })
        param = write_config(tmp_path, "param.json", {
            "scenario": "example1", "params": {"N": 8, "seeds": 4}, "sweep": sweep,
        })
        assert main(["optimize", "--config", top, "--out", out]) == 2
        assert "rng_seed" in capsys.readouterr().err
        assert main(["optimize", "--config", param, "--out", out]) == 2
        assert "seeds" in capsys.readouterr().err
        assert main(["optimize", "--config", param, "--out", out, "--seed", "3"]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert "--seed" in record["error"]["message"]

    def test_unknown_param_rejected(self, tmp_path):
        config = write_config(tmp_path, "bad2.json", {
            "scenario": "example3",
            "params": {"z": 0.5, "frequency": 2.0},
            "output": {"path": str(tmp_path / "x.csv"), "format": "csv"},
        })
        assert main(["run", "--config", config]) == 2

    def test_invalid_sweep_variable(self, tmp_path):
        config = write_config(tmp_path, "bad3.json", {
            "scenario": "example3",
            "params": {"z": 0.5},
            "sweep": {"variable": "omega", "start": 0, "stop": 1, "points": 2},
            "output": {"path": str(tmp_path / "x.csv"), "format": "csv"},
        })
        assert main(["run", "--config", config]) == 2

    def test_probe_beyond_max_truncation_is_config_error(self, tmp_path, capsys):
        # the squeezed tail falls off as tanh(3)^n: over 4096 levels are needed
        config = write_config(tmp_path, "deep.json", {
            "scenario": "example1",
            "qrf": {"kind": "squeezed_displaced", "alpha": 1.0, "r": 3.0},
        })
        assert main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert "4096" in record["error"]["message"]

    def test_explicit_probe_beyond_truncation_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, "long.json", {
            "scenario": "example1",
            "qrf": {"kind": "explicit", "amplitudes": [[1, 0]] * 4},
            "params": {"truncation": 3},
        })
        assert main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert "explicit amplitudes exceed the requested truncation" in record["error"]["message"]

    def test_unrealizable_squeezed_probe_rejected_at_load(self, tmp_path, capsys):
        config = write_config(tmp_path, "squeezed.json", {
            "scenario": "example1",
            "qrf": {"kind": "squeezed_displaced", "alpha": 0.0, "x_fraction": 0.5},
        })
        with pytest.raises(ConfigError, match="invalid qrf spec: .* leaves r undetermined"):
            load_config(config)
        assert main(["check", "--config", config]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert record["error"]["message"].startswith("invalid qrf spec: ")

    def test_internal_floor_failure_is_a_numerical_error(self, tmp_path, capsys):
        # report()'s own dephased pair fails the trace floor at K x 1e8
        payload = json.loads((FIXTURES / "counterexample.json").read_text())
        payload["k_matrix"][2][2] = [1e8, 0.0]
        payload["params"] = {"lambda": 0.4e-8}
        config = write_config(tmp_path, "scaled.json", payload)
        assert main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "numerical"
        assert "mixed_state" in record["error"]["message"]

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 4

    def test_unwritable_output_is_io_error(self, tmp_path):
        config = write_config(tmp_path, "ok.json", {
            "scenario": "example3",
            "params": {"z": 0.5, "lambda": 0.3},
            "output": {"path": str(tmp_path / "no_dir" / "x.csv"), "format": "csv"},
        })
        assert main(["run", "--config", config]) == 4

    @pytest.mark.parametrize(
        "command, payload",
        [("run", p) for p in MALFORMED.values()]
        + [("optimize", p) for p in MALFORMED_OPTIMIZE.values()],
        ids=list(MALFORMED) + list(MALFORMED_OPTIMIZE),
    )
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys, command, payload):
        config = write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-8"])
    def test_bad_cluster_tol_flag_is_a_config_error(self, tmp_path, capsys, value):
        # a NaN tolerance used to merge every cluster: no_loss = true on a lossy point
        config = write_config(tmp_path, "ex3.json", _EX3)
        assert main(["check", "--config", config, f"--cluster-tol={value}"]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"

    @pytest.mark.parametrize(
        ("extra", "reason"),
        [
            (["--cluster-tol", "abc"], "invalid float value"),
            # a negative value with an exponent reaches the config check
            (["--cluster-tol", "-1e-8"], "cluster_tol must be positive and finite"),
            (["--bogus"], "unrecognized arguments"),
        ],
        ids=["cluster-tol-abc", "cluster-tol-separate-negative", "unknown-flag"],
    )
    def test_bad_arguments_are_config_errors(self, tmp_path, capsys, extra, reason):
        # argparse's own errors get the documented JSON record, not its usage text
        config = write_config(tmp_path, "ex3.json", _EX3)
        assert main(["check", "--config", config, *extra]) == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert reason in record["error"]["message"]
        assert "usage:" not in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--cluster-tol" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "entry.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "twirlqfi", "run",
             "--config", str(FIXTURES / "counterexample.json"),
             "--out", str(out), "--quiet"],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
