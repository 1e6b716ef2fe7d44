"""Check records and report serialization.

Every verification produces a flat list of CheckRecord rows. The CSV schema
is pinned: ``suite,check,status,value,expected,residual,anchor``. The anchor
column is a self-describing identity string for the checked statement, so a
row stays interpretable when the file is separated from this package. JSON
reports carry a meta block (parameters, seed, timestamp) on top of the same
rows; CSV output carries the rows only.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

CSV_COLUMNS = ("suite", "check", "status", "value", "expected", "residual", "anchor")
REPORT_VERSION = 1

PASS = "pass"
FAIL = "fail"
WARN = "warn"


@dataclass
class CheckRecord:
    suite: str
    check: str
    status: str
    value: object = None
    expected: object = None
    residual: float | None = None
    anchor: str = ""

    def __post_init__(self):
        if self.status not in (PASS, FAIL, WARN):
            raise ValueError(f"bad status {self.status!r}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_safe(value):
    """value with every non-finite float written as its CSV cell ("inf",
    "-inf", "nan"), since strict JSON has no literal for them."""
    if isinstance(value, float) and not math.isfinite(value):
        return _cell(value)
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


@dataclass
class Report:
    meta: dict = field(default_factory=dict)
    records: list[CheckRecord] = field(default_factory=list)

    def extend(self, records) -> None:
        self.records.extend(records)

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, WARN: 0}
        for rec in self.records:
            out[rec.status] += 1
        return out

    def exit_code(self) -> int:
        return 1 if any(rec.status == FAIL for rec in self.records) else 0

    def to_json(self) -> str:
        payload = {
            "report_version": REPORT_VERSION,
            "meta": dict(self.meta),
            "summary": self.counts(),
            "checks": [
                {column: getattr(rec, column) for column in CSV_COLUMNS}
                for rec in self.records
            ],
        }
        return json.dumps(_json_safe(payload), indent=2, default=str, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in self.records:
            writer.writerow([_cell(getattr(rec, column)) for column in CSV_COLUMNS])
        return buf.getvalue()


def timestamp_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")
