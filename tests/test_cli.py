import csv
import gc
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import orjson
import pytest
from conftest import ROOT, src_env
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import dense_pair
from test_golden import CASES

from twirlqfi import cli
from twirlqfi.cli import (
    ConfigError,
    _complex_array,
    _depth,
    _parse,
    build_parser,
    load_config,
    main,
)
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

    @pytest.mark.parametrize("counts", [
        {"scenario": "example1", "params": {"N": 4, "truncation": 6},
         "sweep": {"variable": "lambda", "start": 0.1, "stop": 0.7, "points": 3}},
        {"scenario": "example2", "params": {"N": 3, "n_total_max": 5, "lambda": 0.7}},
    ], ids=["example1", "example2"])
    def test_integral_float_counts_write_the_same_bytes(self, tmp_path, counts):
        # a count written as 4.0 is that count, as an N sweep's np.rint grid is
        floats = {**counts, "params": {key: float(value) for key, value in counts["params"].items()}}
        outputs = []
        for name, payload in (("int", counts), ("float", floats)):
            config = write_config(tmp_path, f"{name}.json", payload)
            out = tmp_path / f"{name}.csv"
            assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_complex_array_is_the_object_array_path(self, data):
        # the object-array conversion that the level walk replaced, as the oracle
        def oracle(raw, shape):
            return np.array(raw, dtype=object).astype(float).view(complex).reshape(shape)

        dim = data.draw(st.integers(1, 8))
        shape = data.draw(st.sampled_from([(dim, dim), (dim,)]))
        leaf = st.one_of(
            st.integers(-2**80, 2**80),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3]),
        )
        size = math.prod(shape)
        leaves = data.draw(st.lists(leaf, min_size=2 * size, max_size=2 * size))
        raw = np.array(leaves, dtype=object).reshape(shape + (2,)).tolist()
        got = _complex_array(raw, shape, "m")
        assert got.shape == shape and got.dtype == complex
        assert got.tobytes() == oracle(raw, shape).tobytes()

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


@pytest.fixture
def gc_state():
    """Yields gc.enable or gc.disable to set the collector's state; restored after."""
    enabled = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestLoadConfigCollector:
    """load_config pauses the cyclic collector and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case", ["valid", "malformed_pair", "parse_error"])
    def test_collector_state_is_restored(self, tmp_path, gc_state, case, enabled):
        payload, *_ = random_custom_config(np.random.default_rng(83), 4, lam=0.2)
        if case == "malformed_pair":
            payload["k_matrix"][1][2] = [1.0, "x"]
        config = write_config(tmp_path, "c.json", payload)
        if case == "parse_error":
            Path(config).write_text("{ not json", encoding="utf-8")
        gc_state(enabled)
        if case == "valid":
            assert load_config(config).custom.k_generator.dim == 4
        else:
            match = "parse error" if case == "parse_error" else "number pairs"
            with pytest.raises(ConfigError, match=match):
                load_config(config)
        assert gc.isenabled() is enabled

    def test_no_collection_runs_during_a_dense_load(self, tmp_path, gc_state):
        # a d = 64 config parses to ~8k [re, im] lists, enough to trigger
        # the collector many times over if it ran
        payload, *_ = random_custom_config(np.random.default_rng(89), 64, lam=0.2)
        config = write_config(tmp_path, "d64.json", payload)
        gc_state(True)
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            load_config(config)
        finally:
            gc.callbacks.remove(count)
        assert starts == []
        assert gc.isenabled()


def _bits(node):
    """A JSON tree with each leaf as (type, value), floats as their hex bits.

    Two trees compare equal exactly when they match in key order, in leaf
    types (int against float) and in the bits of every float.
    """
    if isinstance(node, dict):
        return [(key, _bits(value)) for key, value in node.items()]
    if isinstance(node, list):
        return [_bits(value) for value in node]
    return (type(node).__name__, node.hex() if isinstance(node, float) else node)


def _stdlib_tree(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dense_config_text(dim):
    """A d x d custom config whose entries span the double range, as JSON text.

    Entries are normals, values near 1e+-300, subnormals and signed zeros,
    written with 17 significant digits or as shortest repr, alternately
    (so a zero is sometimes the integer literal 0 or -0).
    """
    rng = np.random.default_rng(97)
    scales = rng.choice([1.0, 1e300, 1e-300, 1e-310, 0.0, -0.0], size=(2, dim, dim, 2))
    values = rng.normal(size=(2, dim, dim, 2)) * scales
    values[0, 0, 0] = [5e-324, -0.0]
    values[0, 0, 1] = [1.7976931348623157e308, -2.2250738585072014e-308]
    texts = [repr(v) if i % 2 else f"{v:.17g}" for i, v in enumerate(values.ravel().tolist())]
    k_matrix, g_matrix = np.array(texts, dtype=object).reshape(values.shape).tolist()
    psi0 = [[repr(v), repr(-v)] for v in rng.normal(size=dim).tolist()]

    def dump(node):  # JSON text that keeps each leaf's own number literal
        return "[" + ",".join(map(dump, node)) + "]" if isinstance(node, list) else node

    return (
        f'{{"scenario": "custom", "dim": {dim}, "k_matrix": {dump(k_matrix)}, '
        f'"g_matrix": {dump(g_matrix)}, "psi0": {dump(psi0)}, "params": {{"lambda": 0.25}}}}'
    )


class TestParser:
    """orjson parses configs; the stdlib parser answers wherever orjson refuses."""

    @pytest.mark.parametrize(
        "config",
        sorted({config for _, config, _ in CASES.values()} | set(FIXTURES.glob("*.json"))),
        ids=lambda config: config.name,
    )
    def test_orjson_tree_is_the_stdlib_tree(self, config):
        tree = orjson.loads(config.read_bytes())
        assert _bits(tree) == _bits(_stdlib_tree(config))
        assert _bits(_parse(str(config))) == _bits(tree)

    def test_dense_config_trees_are_bit_equal(self, tmp_path):
        config = tmp_path / "d64.json"
        config.write_text(_dense_config_text(64), encoding="utf-8")
        tree = orjson.loads(config.read_bytes())
        floats = list(np.array(tree["k_matrix"], dtype=object).flat)
        assert any(0 < abs(leaf) < 2.2250738585072014e-308 for leaf in floats)
        assert any(abs(leaf) > 1e299 for leaf in floats)
        assert any(leaf == 0 and math.copysign(1, leaf) < 0 for leaf in floats)
        assert _bits(tree) == _bits(_stdlib_tree(config))

    def test_integer_entry_beyond_64_bits_is_the_same_double(self, tmp_path):
        # a tie two steps above 2**64: both parsers round it to 2**64 + 8192
        literal = 2**64 + 6144
        payload = _custom(["k_matrix", 0, 0], [literal, 0])
        config = write_config(tmp_path, "big.json", payload)
        assert str(literal) in Path(config).read_text()
        ours, stdlib = _parse(config), _stdlib_tree(config)
        assert type(ours["k_matrix"][0][0][0]) is float
        assert type(stdlib["k_matrix"][0][0][0]) is int
        ours_k = _complex_array(ours["k_matrix"], (3, 3), "k_matrix")
        stdlib_k = _complex_array(stdlib["k_matrix"], (3, 3), "k_matrix")
        assert ours_k.view(np.uint64).tolist() == stdlib_k.view(np.uint64).tolist()
        assert ours_k[0, 0] == 2**64 + 8192

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ('{"scenario": "example3", "params": {"z": 0.5, "lambda": 1e400}}',
             "param lambda must be a finite number"),
            ('{"scenario": "example3", "params": {"z": 0.5},}', None),
            ('\ufeff{"scenario": "example3", "params": {"z": 0.5}}', None),
            # the stdlib's offsets count translated newlines, as open() reads them
            ('{"scenario": "example3",\r\n "params": {"z": 0.5},\r\n}', None),
        ],
        ids=["1e400", "trailing-comma", "utf8-bom", "crlf-trailing-comma"],
    )
    def test_refused_configs_keep_the_stdlib_answer(self, tmp_path, capsys, text, message):
        path = tmp_path / "refused.json"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(path.read_bytes())
        if message is None:
            with pytest.raises(json.JSONDecodeError) as exc:
                _stdlib_tree(path)
            message = f"parse error in {path}: {exc.value}"
        assert main(["check", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == {"kind": "config", "message": message}

    def test_lone_surrogate_escape_keeps_the_stdlib_tree(self, tmp_path):
        config = write_config(tmp_path, "surrogate.json", {**_EX3, "output": {"path": "\ud800.csv"}})
        assert "\\ud800" in Path(config).read_text()
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(Path(config).read_bytes())
        assert load_config(config).out_path == "\ud800.csv"
        assert main(["check", "--config", config]) == 0

    def test_invalid_utf8_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"scenario": "example3", "params": {"z": 0.5}, "output": {"path": "\xe9.csv"}}')
        with pytest.raises(UnicodeDecodeError) as exc:
            _stdlib_tree(path)
        assert main(["check", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == {"kind": "config", "message": f"parse error in {path}: {exc.value}"}

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_refused_pipe_is_read_once(self, tmp_path):
        # the stdlib answers from the bytes orjson refused: a pipe holds no second copy
        fifo = tmp_path / "config.pipe"
        os.mkfifo(fifo)
        text = '{"scenario": "example3", "params": {"z": 0.5, "lambda": NaN}}'
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        outcome = []

        def load():
            try:
                load_config(str(fifo))
            except ConfigError as exc:
                outcome.append(str(exc))

        reader = threading.Thread(target=load, daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=30)
        writer.join(timeout=30)
        assert not reader.is_alive() and not writer.is_alive()
        assert outcome == ["param lambda must be a finite number"]


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

    @pytest.mark.parametrize(
        ("extra", "bob", "ranks"),
        [([], 0.7429563276021737, [1, 1, 1]),
         (["--cluster-tol", "1e-5"], 0.8450715712955224, [2, 1])],
        ids=["default", "cluster-tol-1e-5"],
    )
    def test_valid_cluster_tol_reaches_report(self, tmp_path, capsys, extra, bob, ranks):
        # G's eigenvalues 0 and 1e-6 are two eigenspaces at the default
        # tolerance and one at 1e-5, which dephases less.  The pinned bits
        # are within 5e-16 of the 40-digit reference, 0.742956327602173730
        # and 0.845071571295521943
        k, g = [[0, 1, 0], [1, 0, 1], [0, 1, 0]], np.diag([0.0, 1e-6, 1.0])

        def pack(m):
            return [[[float(v), 0.0] for v in row] for row in m]

        payload = {
            "scenario": "custom",
            "dim": 3,
            "k_matrix": pack(k),
            "g_matrix": pack(g),
            "psi0": [[1.0, 0.0]] * 3,
            "params": {"lambda": 0.4},
        }
        config = write_config(tmp_path, "close.json", payload)
        assert main(["check", "--config", config, "--format", "json", *extra]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bob_qfi"] == bob
        ref = dense_pair([1.0] * 3, np.array(k, dtype=complex), g.astype(complex), ranks, 0.4)
        assert abs(bob - float(ref.bob_qfi)) <= 5e-16
        assert abs(out["alice_qfi"] - float(ref.alice_qfi)) <= 1e-12 * max(1.0, out["alice_qfi"])


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

    def test_integral_float_n_solves_the_same_levels(self, tmp_path):
        # the load accepts N = 8.0 as a count, so optimize solves 8 levels
        written = []
        for name, n in (("int", 8), ("float", 8.0)):
            out = tmp_path / f"{name}.csv"
            config = write_config(tmp_path, f"{name}.json",
                                  {**_OPT, "params": {"N": n}, "output": {"path": str(out)}})
            assert main(["optimize", "--config", config, "--quiet"]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

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
    # counts used to be rounded (N, n_total_max) or truncated (truncation)
    "example1-N-not-integer": {"scenario": "example1", "params": {"N": 3.6}, "sweep": _SWEEP},
    "example1-truncation-not-integer": {"scenario": "example1",
                                        "params": {"N": 4, "truncation": 7.9}},
    "example2-n_total_max-not-integer": {"scenario": "example2", "params": {"n_total_max": 4.5}},
    # structures the level walk of _complex_array refuses as an object array did
    "pair-entry-list": _custom(["k_matrix", 0, 0], [[1.0, 2.0], 0.0]),
    "pair-object": _custom(["g_matrix", 0, 1], {"re": 0.0, "im": 0.0}),
    "row-number": _custom(["k_matrix", 1], 0.0),
    "psi0-number": _custom(["psi0"], 1.0),
    "amplitudes-true": {"scenario": "example1",
                        "qrf": {"kind": "explicit", "amplitudes": [[1, 0], [True, 0]]}},
}

MALFORMED_MESSAGES = {
    "example1-N-not-integer": "param N must be an integer",
    "example1-truncation-not-integer": "param truncation must be an integer",
    "example2-n_total_max-not-integer": "param n_total_max must be an integer",
    "pair-entry-list": "k_matrix: complex entries must be [re, im] number pairs",
    "pair-object": "g_matrix: expected 3 x 3 [re, im] pairs",
    "row-number": "k_matrix: expected 3 x 3 [re, im] pairs",
    "psi0-number": "psi0: expected 3 [re, im] pairs",
    "amplitudes-true": "qrf.amplitudes: complex entries must be [re, im] number pairs",
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
    # used to solve 8 levels: N was rounded
    "optimize-N-not-integer": {**_OPT, "params": {"N": 7.6}},
    # above models.MAX_TRUNCATION: the solve would build a list of N offsets
    "optimize-N-above-max-truncation": {**_OPT, "params": {"N": 4097}},
    "optimize-N-1e19": {**_OPT, "params": {"N": 1e19}},
}


# integer literals too large for a double: JSON numbers, but not finite ones
_HUGE = 10**400
BEYOND_DOUBLE = {
    "param": ({**_EX3, "params": {**_EX3["params"], "lambda": _HUGE}},
              "param lambda must be a finite number"),
    "sweep-start": ({**_EX3, "sweep": {**_SWEEP, "start": _HUGE}},
                    "sweep start and stop must be finite numbers"),
    "sweep-stop": ({**_EX3, "sweep": {**_SWEEP, "stop": -_HUGE}},
                   "sweep start and stop must be finite numbers"),
    "k-entry": (_custom(["k_matrix", 0, 0], [_HUGE, 0.0]),
                "k_matrix: entries must be finite numbers"),
    "psi0-entry": (_custom(["psi0", 1], [0.0, -_HUGE]), "psi0: entries must be finite numbers"),
    "qrf-amplitude": ({"scenario": "example1",
                       "qrf": {"kind": "explicit", "amplitudes": [[1, 0], [_HUGE, 0]]}},
                      "qrf.amplitudes: entries must be finite numbers"),
    "qrf-alpha": ({"scenario": "example1", "qrf": {"kind": "coherent", "alpha": _HUGE}},
                  "qrf.alpha must be a finite number"),
}

# counts given as integer literals beyond 64 bits: orjson reads 2**64 as a
# float, and 10**400 is no finite number; either fails the integer check
COUNTS = {
    "dim": (lambda n: _custom(["dim"], n), "dim must be a positive integer"),
    "sweep-points": (lambda n: {**_EX3, "sweep": {**_SWEEP, "points": n}},
                     "sweep points must be an integer >= 1"),
    "qrf-N": (lambda n: {"scenario": "example1",
                         "qrf": {"kind": "uniform_superposition", "N": n}},
              "qrf.N must be an integer"),
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

    @pytest.mark.parametrize("command", ["run", "optimize"])
    def test_unencodable_output_path_is_io_error(self, tmp_path, capsys, command):
        # a lone surrogate escape names a path UTF-8 cannot encode; open() raised
        # UnicodeEncodeError, a ValueError, which exited 3 as a numerical error
        out = str(tmp_path / "\ud800.csv")
        payload = {"scenario": "example3", "params": {"z": 0.5}}
        if command == "optimize":
            payload = {"scenario": "example1", "params": {"N": 6},
                       "sweep": {"variable": "mean_energy", "start": 1.0, "stop": 1.0, "points": 1}}
        config = write_config(tmp_path, "surrogate.json", {**payload, "output": {"path": out}})
        assert main([command, "--config", config, "--quiet"]) == 4
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "io"
        assert record["error"]["message"].startswith(f"cannot encode output path {out!r}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["surrogate.json"]

    def test_config_deeper_than_the_stdlib_parser_is_a_config_error(self, tmp_path, capsys):
        # orjson refuses the NaN, and the stdlib parser then exceeds the recursion
        # limit, which exited 1 with a traceback
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 5000 + b"NaN" + b"]" * 5000)
        with pytest.raises(RecursionError) as exc:
            _stdlib_tree(path)
        assert main(["check", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == {"kind": "config", "message": f"parse error in {path}: {exc.value}"}

    def test_config_too_deep_for_orjson_is_a_config_error(self, tmp_path):
        # orjson ended the interpreter with SIGSEGV (exit 139) at this depth,
        # so no error record was written
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 160_000 + b"]" * 160_000)
        proc = subprocess.run([sys.executable, "-m", "twirlqfi", "load", "--config", str(path)],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 2, proc.stderr
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert record["error"]["message"].startswith(f"parse error in {path}: ")

    @pytest.mark.parametrize("text, depth", [
        (b'{"a": [[1]]}', 3),
        (b'{"a": "]]]]]", "b": [[[1]]]}', 4),  # a string of ] hides no depth
        (b'["[[[[[", [1]]', 2),
        (rb'["\"]]]", [[1]]]', 3),  # an escaped quote does not end the string
        (rb'["\\", [[1]]]', 3),  # an escaped backslash does not escape the quote
        (b'"unterminated [[[', 3),  # past a syntax error a count too high is harmless
    ])
    def test_depth_counts_brackets_outside_strings(self, text, depth):
        assert _depth(text) == depth

    def test_config_deeper_than_the_bound_keeps_the_stdlib_tree(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 65 + b"1" + b"]" * 65)
        assert _parse(str(path)) == json.loads(path.read_bytes())

    @pytest.mark.parametrize(
        "command, payload",
        [("run", p) for p in MALFORMED.values()]
        + [("optimize", p) for p in MALFORMED_OPTIMIZE.values()],
        ids=list(MALFORMED) + list(MALFORMED_OPTIMIZE),
    )
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                command, payload):
        solves = []
        monkeypatch.setattr(cli, "optimize_probe", solves.append)
        config = write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert solves == []  # refused before any solve

    @pytest.mark.parametrize("case, message", MALFORMED_MESSAGES.items(),
                             ids=list(MALFORMED_MESSAGES))
    def test_malformed_config_message(self, tmp_path, capsys, case, message):
        config = write_config(tmp_path, "bad.json", MALFORMED[case])
        assert main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == {"kind": "config", "message": message}
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("payload, message", BEYOND_DOUBLE.values(), ids=list(BEYOND_DOUBLE))
    def test_integer_beyond_a_double_is_a_config_error(self, tmp_path, capsys, payload, message):
        # these used to exit 3 on an OverflowError from the int-to-float conversion
        config = write_config(tmp_path, "huge.json", payload)
        assert main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == {"kind": "config", "message": message}

    @pytest.mark.parametrize("count", [2**64, _HUGE], ids=["2**64", "10**400"])
    @pytest.mark.parametrize("make, message", COUNTS.values(), ids=list(COUNTS))
    def test_count_beyond_64_bits_is_a_config_error(self, tmp_path, capsys, make, message, count):
        config = write_config(tmp_path, "count.json", make(count))
        assert str(count) in Path(config).read_text()
        assert main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == {"kind": "config", "message": message}

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


class TestParserCache:
    """main parses with one parser per process, which keeps no state between calls."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_match_separate_processes(self, tmp_path, capsys):
        check_config = write_config(tmp_path, "ex3.json", _EX3)
        run_args = ["run", "--config", str(FIXTURES / "counterexample.json"), "--quiet",
                    "--cluster-tol", "1e-5", "--format", "json"]
        # check passes none of run's options, so one left on the parser would show
        check_args = ["check", "--config", check_config]
        assert main([*run_args, "--out", str(tmp_path / "one.json")]) == 0
        assert main(check_args) == 0
        check_out = capsys.readouterr().out
        fresh = [sys.executable, "-W", "error", "-m", "twirlqfi"]
        run = subprocess.run([*fresh, *run_args, "--out", str(tmp_path / "fresh.json")],
                             capture_output=True, text=True, env=src_env())
        check = subprocess.run([*fresh, *check_args], capture_output=True, text=True, env=src_env())
        assert run.returncode == 0 and check.returncode == 0, run.stderr + check.stderr
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
        assert check_out == check.stdout

    def test_a_bad_argument_leaves_the_parser_usable(self, tmp_path, capsys):
        config = write_config(tmp_path, "ex3.json", _EX3)
        assert main(["check", "--config", config]) == 0
        before = capsys.readouterr().out
        assert main(["check", "--config", config, "--cluster-tol", "abc"]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "config"
        assert main(["check", "--config", config]) == 0
        assert capsys.readouterr().out == before
