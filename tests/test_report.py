"""Report rows and their serialization contract."""

import csv
import io
import json
from datetime import datetime

import pytest

from qglue import CSV_COLUMNS, CheckRecord, Report, timestamp_now


def test_csv_header_is_pinned():
    assert CSV_COLUMNS == (
        "suite",
        "check",
        "status",
        "value",
        "expected",
        "residual",
        "anchor",
    )
    rep = Report()
    assert rep.to_csv().splitlines()[0] == "suite,check,status,value,expected,residual,anchor"


def test_bad_status_rejected():
    with pytest.raises(ValueError):
        CheckRecord("s", "c", "ok")
    CheckRecord("s", "c", "pass")
    CheckRecord("s", "c", "fail")
    CheckRecord("s", "c", "warn")


def test_exit_code_rules():
    rep = Report()
    assert rep.exit_code() == 0
    rep.extend([CheckRecord("a", "x", "pass"), CheckRecord("a", "y", "warn")])
    assert rep.exit_code() == 0
    rep.extend([CheckRecord("a", "z", "fail")])
    assert rep.exit_code() == 1
    assert rep.counts() == {"pass": 1, "fail": 1, "warn": 1}


def test_csv_cells_round_trip():
    rep = Report()
    rep.extend(
        [
            CheckRecord(
                "disc",
                "relation residual",
                "pass",
                value=0.1,
                expected=None,
                residual=1.25e-15,
                anchor="z* z - q z z* - (1-q) = 0",
            ),
            CheckRecord("disc", "count, with comma", "pass", value=3, anchor='say "hi"'),
        ]
    )
    rows = list(csv.reader(io.StringIO(rep.to_csv())))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1] == [
        "disc",
        "relation residual",
        "pass",
        "0.1",
        "",
        "1.25e-15",
        "z* z - q z z* - (1-q) = 0",
    ]
    # commas and quotes survive the csv layer
    assert rows[2][1] == "count, with comma"
    assert rows[2][6] == 'say "hi"'
    assert rows[2][3] == "3"


def test_float_cells_use_repr():
    rep = Report()
    rep.extend([CheckRecord("a", "b", "pass", value=0.30000000000000004)])
    line = rep.to_csv().splitlines()[1]
    assert "0.30000000000000004" in line


def test_json_shape():
    rep = Report(meta={"seed": 0, "timestamp": "2020-01-01T00:00:00+00:00"})
    rep.extend([CheckRecord("a", "b", "pass", value=1.0, expected=1, residual=0.0, anchor="id")])
    payload = json.loads(rep.to_json())
    assert payload["report_version"] == 1
    assert payload["meta"]["seed"] == 0
    assert payload["summary"] == {"pass": 1, "fail": 0, "warn": 0}
    assert payload["checks"] == [
        {
            "suite": "a",
            "check": "b",
            "status": "pass",
            "value": 1.0,
            "expected": 1,
            "residual": 0.0,
            "anchor": "id",
        }
    ]
    # CSV output carries no meta block at all
    assert "timestamp" not in rep.to_csv()


def test_timestamp_parses():
    stamp = timestamp_now()
    parsed = datetime.fromisoformat(stamp)
    assert parsed.tzinfo is not None


def test_json_writes_non_finite_values_as_strings():
    rep = Report(meta={"seed": 0})
    rep.extend(
        [
            CheckRecord("a", "b", "fail", value=float("inf"), residual=float("nan")),
            CheckRecord("a", "c", "fail", value=float("-inf"), expected=2.5),
        ]
    )

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(rep.to_json(), parse_constant=reject)
    first, second = payload["checks"]
    assert (first["value"], first["residual"]) == ("inf", "nan")
    assert (second["value"], second["expected"]) == ("-inf", 2.5)
    # the strings are the CSV cells of the same records
    rows = list(csv.reader(io.StringIO(rep.to_csv())))
    assert (rows[1][3], rows[1][5], rows[2][3]) == ("inf", "nan", "-inf")
