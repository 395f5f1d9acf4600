"""CLI output pinned byte for byte against golden files.

Each file under tests/golden/ named after a case below is the output of a
known-good commit for that case's config.  A change that keeps the math must
reproduce it exactly: floats are written with shortest round-trip repr, so a
golden pins the last bit of every number.  A different LAPACK build can move
last bits; then the goldens are rewritten from a known-good commit with

    PYTHONPATH=src python tests/test_golden.py --write

For each golden whose bytes change it prints the largest change of each
numeric field, relative to its record's max(1, alice_qfi), and every other
field or line that changed.
"""

import contextlib
import csv
import difflib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from twirlqfi.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = GOLDEN.parents[1] / "fixtures"

# golden file -> (command, config, output format)
CASES = {
    "run_counterexample.csv": ("run", FIXTURES / "counterexample.json", "csv"),
    "run_identity_k.csv": ("run", FIXTURES / "identity_k.json", "csv"),
    "run_example1_N.csv": ("run", GOLDEN / "example1_N.json", "csv"),
    "run_example1_coherent_lambda.csv": ("run", GOLDEN / "example1_coherent_lambda.json", "csv"),
    "run_example1_alpha_sq.csv": ("run", GOLDEN / "example1_alpha_sq.json", "csv"),
    "run_example2_lambda.csv": ("run", GOLDEN / "example2_lambda.json", "csv"),
    "run_example2_N.csv": ("run", GOLDEN / "example2_N.json", "csv"),
    "run_example2_lambda_sector.csv": ("run", GOLDEN / "example2_lambda_sector.json", "csv"),
    "run_example3_z.csv": ("run", GOLDEN / "example3_z.json", "csv"),
    "run_example3_z.json": ("run", GOLDEN / "example3_z.json", "json"),
    "run_example3_lambda.csv": ("run", GOLDEN / "example3_lambda.json", "csv"),
    "run_custom_d16.csv": ("run", GOLDEN / "custom_d16.json", "csv"),
    "check_counterexample.json": ("check", FIXTURES / "counterexample.json", "json"),
    "check_identity_k.json": ("check", FIXTURES / "identity_k.json", "json"),
    "check_example1_coherent.json": ("check", GOLDEN / "example1_coherent_point.json", "json"),
    "check_counterexample.txt": ("check", FIXTURES / "counterexample.json", None),
    "optimize_N12.csv": ("optimize", GOLDEN / "optimize_N12.json", "csv"),
}


def produce(command: str, config: Path, fmt: str | None, workdir: Path) -> bytes:
    """Bytes the CLI writes for one case: the output file, or check's stdout."""
    argv = [command, "--config", str(config), "--quiet"]
    if fmt is not None:
        argv += ["--format", fmt]
    out = workdir / f"out.{fmt}"
    if command != "check":
        argv += ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, f"{command} {config.name} exited {code}"
    return stdout.getvalue().encode() if command == "check" else out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(tmp_path, name):
    assert produce(*CASES[name], tmp_path) == (GOLDEN / name).read_bytes()


def records(name: str, data: bytes) -> list[dict]:
    """A golden's records as {field: value}: CSV rows, check's text lines, or
    JSON objects (run's "records" or check's one object), nested keys dotted."""
    text = data.decode()
    if name.endswith(".csv"):
        return list(csv.DictReader(io.StringIO(text)))
    if name.endswith(".txt"):
        return [dict(line.split(" = ", 1) for line in text.splitlines())]

    def flat(obj, prefix=""):
        out = {}
        for key, value in obj.items():
            out.update(flat(value, f"{prefix}{key}.") if isinstance(value, dict)
                       else {prefix + key: value})
        return out

    payload = json.loads(text)
    return [flat(r) for r in payload.get("records", [payload])]


def number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def movement(name: str, old: bytes, new: bytes) -> list[str]:
    """What changed from old to new: per numeric field its largest change over
    max(1, alice_qfi), then every other changed field, or the changed lines
    when the records do not line up."""
    before, after = records(name, old), records(name, new)
    if [list(r) for r in before] != [list(r) for r in after]:
        return [line.rstrip("\n") for line in difflib.unified_diff(
            old.decode().splitlines(True), new.decode().splitlines(True), n=0)][2:]
    largest, other = {}, []
    for i, (x, y) in enumerate(zip(before, after)):
        scale = max(1.0, abs(number(y.get("alice_qfi", 1.0))))
        for key in x:
            if x[key] == y[key]:
                continue
            a, b = number(x[key]), number(y[key])
            if a is None or b is None:
                other.append(f"record {i} {key}: {x[key]!r} -> {y[key]!r}")
            else:
                largest[key] = max(largest.get(key, 0.0), abs(b - a) / scale)
    return [f"{key}: {value:.2e}" for key, value in largest.items()] + other


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            path = GOLDEN / name
            old, new = path.read_bytes() if path.exists() else b"", produce(*case, Path(tmp))
            if old == new:
                continue
            path.write_bytes(new)
            print(f"wrote {path}")
            for line in movement(name, old, new) if old else ["(new file)"]:
                print(f"  {line}")
