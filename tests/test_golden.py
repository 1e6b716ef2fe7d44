"""Behaviour gate: the CSV report is byte-identical to the pinned golden files.

The default run passes everywhere; the run at q = 0.95, p = 0.9 fails some
E_N pairings on the table's tail tolerance, so its convergence rows come
from their own pairings. A change meant to move records regenerates the
files (see README, "Behaviour gate") and lists the moved records in
CHANGES.md.
"""

from pathlib import Path

import pytest

from qglue.cli import run

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, flags, exit_code",
    [
        ("verify_default.csv", [], 0),
        ("verify_q0.95_p0.9.csv", ["--q", "0.95", "--p", "0.9"], 1),
    ],
)
def test_verify_csv_matches_its_golden_file(tmp_path, capsys, name, flags, exit_code):
    out = tmp_path / name
    assert run(["verify", "--format", "csv", "--out", str(out), *flags]) == exit_code
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
