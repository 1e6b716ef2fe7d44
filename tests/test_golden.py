"""Behaviour gate: the CSV report is byte-identical to the pinned golden files.

The default run passes everywhere; the run at q = 0.95, p = 0.9 fails some
E_N pairings on the table's tail tolerance, so its convergence rows come
from their own pairings; the numeric suites at d = 512 pin the dense
window products, pairings and eigh at the benchmark's largest window. A
change meant to move records regenerates the files (see README, "Behaviour
gate") and lists the moved records in CHANGES.md. A mismatch names the
first differing lines.
"""

import difflib
from pathlib import Path

import pytest

from qglue.cli import run

GOLDEN = Path(__file__).parent / "golden"

SHOWN = 20


@pytest.mark.parametrize(
    "name, flags, exit_code",
    [
        ("verify_default.csv", [], 0),
        ("verify_q0.95_p0.9.csv", ["--q", "0.95", "--p", "0.9"], 1),
        (
            "verify_numeric_d512.csv",
            ["--suite", "disc,podles,en-numeric,chi,index", "--d", "512", "--nmax", "1"],
            0,
        ),
    ],
)
def test_verify_csv_matches_its_golden_file(tmp_path, capsys, name, flags, exit_code):
    out = tmp_path / name
    assert run(["verify", "--format", "csv", "--out", str(out), *flags]) == exit_code
    capsys.readouterr()
    got, want = out.read_bytes(), (GOLDEN / name).read_bytes()
    lines = [text.decode().splitlines() for text in (want, got)]
    diff = difflib.unified_diff(*lines, lineterm="", n=0)
    changed = [line for line in list(diff)[2:] if not line.startswith("@@")]
    assert got == want, f"{name}: first differing lines\n" + "\n".join(changed[:SHOWN])
