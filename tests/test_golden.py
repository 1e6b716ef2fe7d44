"""Behaviour gate: the CSV report is byte-identical to the pinned golden files.

The default run passes everywhere; the run at q = 0.95, p = 0.9 fails some
E_N pairings on the table's tail tolerance, so its convergence rows come
from their own pairings; the numeric suites at d = 512 pin the banded
window products, the pairings' traces and tails and the diagonal polar
parts at the benchmark's largest window; the run at d = 8 pins the fail
records of checks whose window has no trusted block left. A change meant
to move records regenerates the files (see README, "Behaviour gate") and
lists the moved records in CHANGES.md. A mismatch names the first
differing lines.

The golden files of the benchmark's two fresh-process workloads also agree
with its pinned outcomes (perfbench/reference/), read by the harness's own
functions: a regeneration that moves a pinned record fails here, not first
in a benchmark run.
"""

import difflib
import sys
from pathlib import Path

import pytest

from qglue.cli import run

# run.py imports tracer from its own directory; importing it runs nothing
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import counts, load_reference, outcomes  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"

SHOWN = 20

NUMERIC_D512 = ["--suite", "disc,podles,en-numeric,chi,index", "--d", "512", "--nmax", "1"]


@pytest.mark.parametrize(
    "name, flags, exit_code",
    [
        ("verify_default.csv", [], 0),
        ("verify_q0.95_p0.9.csv", ["--q", "0.95", "--p", "0.9"], 1),
        ("verify_numeric_d512.csv", NUMERIC_D512, 0),
        ("verify_d8.csv", ["--d", "8"], 1),
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


@pytest.mark.parametrize(
    "name, flags, reference",
    [
        ("verify_default.csv", [], "verify-d64"),
        ("verify_numeric_d512.csv", NUMERIC_D512, "numeric-d512"),
    ],
)
def test_golden_file_agrees_with_the_benchmarks_pinned_outcomes(name, flags, reference):
    # per record (suite, check, status, rounded value of a pairing), and the
    # summary counts, as the benchmark compares every run it times
    pinned = load_reference(reference)
    assert pinned["args"] == ["verify", *flags, "--format", "csv"]
    records = outcomes((GOLDEN / name).read_text())
    assert records == pinned["records"]
    assert counts(records) == pinned["counts"]
