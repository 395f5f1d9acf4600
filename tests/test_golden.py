"""CLI output pinned byte for byte against golden files.

Each file under tests/golden/ named after a case below is the output of a
known-good commit for that case's config.  A change that keeps the math must
reproduce it exactly: floats are written with shortest round-trip repr, so a
golden pins the last bit of every number.  A different LAPACK build can move
last bits; then the goldens are rewritten from a known-good commit with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
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


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            (GOLDEN / name).write_bytes(produce(*case, Path(tmp)))
            print(f"wrote {GOLDEN / name}")
