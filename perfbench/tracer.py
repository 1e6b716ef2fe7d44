"""Spans and call counters around qglue's public functions, kept in memory.

Coarse boundaries (suites, normal_form, pair, ...) record one span per call:
``[name, parent index, start, end]``. Hot leaves (``CoefPoly.__mul__``,
``TruncOp.__matmul__``) run millions of times, so they keep only a call count
and the time of their outermost calls. A span's self time is its duration
minus the part of it that its child spans cover; time in a hot leaf stays in
the self time of the span that called it.

Standard library only: the harness imports this module without qglue.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute) -> span name. A plain function is replaced in every
# qglue namespace that binds it (suites does ``from .opnum import evaluate``),
# a method on its class.
SPAN_TARGETS = {
    ("qglue.cli", "run"): "cli.run",
    ("qglue.presentations", "normal_form"): "presentations.normal_form",
    ("qglue.presentations", "verify_identity"): "presentations.verify_identity",
    ("qglue.ncpoly", "SymMatrix.__matmul__"): "ncpoly.SymMatrix.matmul",
    ("qglue.idempotents", "build_en"): "idempotents.build_en",
    ("qglue.opnum", "evaluate"): "opnum.evaluate",
    ("qglue.opnum", "inv_sqrt_psd"): "opnum.inv_sqrt_psd",
    ("qglue.opnum", "trace_finite_rank"): "opnum.trace_finite_rank",
    ("qglue.glue", "en_numeric"): "glue.en_numeric",
    ("qglue.glue", "fp_matmul"): "glue.fp_matmul",
    ("qglue.kpair", "pair"): "kpair.pair",
    ("qglue.report", "Report.to_csv"): "report.serialize",
    ("qglue.report", "Report.to_json"): "report.serialize",
}


def _dense_flops(op, other) -> int:
    # complex d x d times d x d: d^3 multiply-adds of 8 real flops each
    d = op.mat.shape[0]
    return 8 * d * d * d


# (module, attribute) -> (counter name, work per call or None)
AGGREGATE_TARGETS = {
    ("qglue.coefficients", "CoefPoly.__mul__"): ("coefficients.CoefPoly.mul", None),
    ("qglue.opnum", "TruncOp.__matmul__"): ("opnum.TruncOp.matmul", _dense_flops),
}


class Tracer:
    """Wraps qglue's public functions from install() until uninstall()."""

    def __init__(self):
        self.spans: list[list] = []
        # name -> [calls, time of outermost calls, computed work]
        self.aggregates: dict[str, list] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return wrapper

    def _aggregate(self, name, fn, work):
        stat = self.aggregates.setdefault(name, [0, 0.0, 0])
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            if work is not None:
                stat[2] += work(*args)
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += perf_counter() - start
                depth[0] = 0

        return wrapper

    # -- installation -----------------------------------------------------------

    def _replace(self, module_name: str, attr: str, make) -> None:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._undo.append((cls, meth, original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if name != "qglue" and not name.startswith("qglue."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def install(self) -> None:
        """Wrap the targets in every loaded qglue module."""
        import qglue.cli  # noqa: F401  (loads every module the targets name)

        for (module, attr), name in SPAN_TARGETS.items():
            self._replace(module, attr, lambda fn, name=name: self._span(name, fn))
        for (module, attr), (name, work) in AGGREGATE_TARGETS.items():
            self._replace(
                module, attr, lambda fn, name=name, work=work: self._aggregate(name, fn, work)
            )
        suites = sys.modules["qglue.suites"].SUITES
        for suite, fn in list(suites.items()):
            suites[suite] = self._span(f"suites.{suite}", fn)
            self._undo.append((suites, suite, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "aggregates": self.aggregates}


# -- analysis (no qglue needed) ------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its child spans' intervals,
    each clipped to the parent."""
    children: dict[int, list] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, parent, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict]:
    """name -> {calls, wall_s (summed durations), self_s}."""
    out: dict[str, dict] = {}
    for (name, parent, start, end), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["wall_s"] += end - start
        row["self_s"] += own
    return out
