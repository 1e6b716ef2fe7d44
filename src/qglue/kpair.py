"""Index pairings between the two Fredholm pictures and glued idempotents.

Two one-summable modules are provided:

* kind "pr": the difference of the two projection legs of a fibre pair
  (right leg minus left leg). Against the range projections chi(N) this
  pairs to exactly +N.
* kind "pi": the difference of the two shift pictures of the common
  boundary symbol on the integer-lattice window. Against any of the shipped
  idempotents it pairs to +1 (it sees only the rank over the boundary).

Degree-N line-bundle idempotents pair with the "pr" module to
ORIENTATION_SIGN * N: the twist normalization lands the degree-N module on
chi(-N) (see glue.ORIENTATION), so the sign is a recorded orientation
convention, not a free choice per run, written once in expected_pairing.

PairingTable computes each pairing of a run once and keeps the results;
it judges none of them. classify is the one rule that turns a pairing into
a status, against the integer expected_pairing gives; the suites apply it
to every pairing they report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circle import LaurentPoly
from .errors import CertificationError, DimensionMismatch, QGlueError, SymbolMismatch, attempt
from .glue import FibrePair, OuterProduct, chi, en_numeric, fp_matmul
from .opnum import GUARD, pi_rep, trace_finite_rank
from .params import ParamSet
from .report import FAIL, PASS

ORIENTATION_SIGN = -1

# the largest trusted-block idempotent defect a pairing accepts, and the
# largest trace tail outside the GUARD-guarded block
IDEM_TOL = 1e-8
TAIL_TOL = 1e-9


@dataclass(frozen=True)
class FredholmModule:
    """kind "pr" pairs the two operator legs; kind "pi" pairs the two
    integer-lattice shift pictures of the boundary symbol (needs params, to
    evaluate the symbol's exact coefficients on the window of radius
    params.w)."""

    kind: str
    params: ParamSet | None = None

    def __post_init__(self):
        if self.kind not in ("pr", "pi"):
            raise ValueError(f"kind must be 'pr' or 'pi', got {self.kind!r}")
        if self.kind == "pi" and self.params is None:
            raise ValueError("the 'pi' module needs params to evaluate symbols")

    def difference(self, pair: FibrePair):
        """(rho_+ - rho_-) applied to one fibre pair."""
        if self.kind == "pr":
            return pair.t1 - pair.t0
        if pair.twist != 0:
            raise SymbolMismatch("the 'pi' module needs twist 0 with equal leg symbols")
        plus = pi_rep("+", pair.sym0, self.params)
        minus = pi_rep("-", pair.sym0, self.params)
        return plus - minus


@dataclass(frozen=True)
class PairingResult:
    """A pairing, with the reason as failure when it is not certified. One
    whose trace tail exceeds TAIL_TOL keeps its numbers; one that could not
    be computed, made by failed(), has none. exact means every diagonal
    trace had a tail of exactly 0.0; meta keeps the margins idem_defect
    and tail_max."""

    value: float | None
    rounded: int | None
    exact: bool
    residual: float | None
    failure: str | None = None
    meta: dict = field(compare=False, default_factory=dict)

    @classmethod
    def failed(cls, exc: Exception) -> "PairingResult":
        return cls(value=None, rounded=None, exact=False, residual=None, failure=str(exc))


def _as_matrix(P) -> list[list[FibrePair]]:
    """P as a square matrix of twist-0 FibrePairs."""
    if isinstance(P, FibrePair):
        return [[P]]
    rows = [list(row) for row in P]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise DimensionMismatch("idempotent matrix must be square")
        for entry in row:
            if not isinstance(entry, FibrePair):
                raise TypeError("matrix entries must be FibrePair")
            if entry.twist != 0:
                raise SymbolMismatch("pairing needs twist-0 idempotents")
    return rows


def _idem_defect(P, entries: list[list[FibrePair]]) -> float:
    """The largest trusted-block entry of P P - P over both legs. An
    OuterProduct X Y^T is squared as X (Y^T X) Y^T, any other matrix entry by
    entry; either way the exact symbol matrix must square to itself."""
    square = P.square() if isinstance(P, OuterProduct) else fp_matmul(entries, entries)
    worst = 0.0
    for row_sq, row in zip(square, entries):
        for a, b in zip(row_sq, row):
            diff = a - b
            worst = max(worst, diff.t0.max_abs(GUARD), diff.t1.max_abs(GUARD))
            if not diff.sym0.is_zero():
                raise SymbolMismatch(
                    "symbol matrix is not exactly idempotent; refusing to pair"
                )
    return worst


def _checked_idempotent(P):
    """First step of pair(): check its preconditions, then return P as a
    square matrix of entries together with its trusted-block defect."""
    entries = _as_matrix(P)
    defect = _idem_defect(P, entries)
    if defect > IDEM_TOL:
        raise CertificationError(
            f"not an idempotent within tolerance: trusted-block defect "
            f"{defect:.3e} exceeds {IDEM_TOL:.3e}"
        )
    return entries, defect


def _trace_pairing(module, entries, defect) -> PairingResult:
    """Second step of a pairing: the sum of the diagonal traces of
    (rho_+ - rho_-) over a checked idempotent. The first trace whose tail
    exceeds TAIL_TOL is the pairing's failure; the numbers are kept."""
    traces = [trace_finite_rank(module.difference(row[i])) for i, row in enumerate(entries)]
    tails = [tail for _, tail in traces]
    over = next((tail for tail in tails if tail > TAIL_TOL), None)
    failure = None if over is None else (
        f"operator is not finite-rank within the window: tail {over:.3e} exceeds {TAIL_TOL:.3e}"
    )
    value = float(sum(trace for trace, _ in traces))
    rounded = int(round(value))
    residual = abs(value - rounded)
    exact = all(tail == 0.0 for tail in tails)
    meta = {"idem_defect": defect, "tail_max": max(tails)}
    return PairingResult(value, rounded, exact, residual, failure, meta)


def pair(module: FredholmModule, P) -> PairingResult:
    """Index pairing of a module with an idempotent (FibrePair or square
    matrix of twist-0 FibrePairs).

    Preconditions enforced: every entry has twist 0, the exact symbol matrix
    is exactly idempotent, and the operator legs are idempotent on their
    trusted blocks within IDEM_TOL. The value is the sum of the diagonal
    traces of (rho_+ - rho_-), each certified with a tail of at most
    TAIL_TOL outside its GUARD-guarded block (else CertificationError);
    `exact` means every trace had a machine-zero tail, in which case the
    residual cannot move with the window size."""
    entries, defect = _checked_idempotent(P)
    result = _trace_pairing(module, entries, defect)
    if result.failure is not None:
        raise CertificationError(result.failure)
    return result


# -- expected values and interpretation ------------------------------------------


def expected_pairing(module_kind: str, representative: str, N: int) -> int:
    """The integer each pairing must produce: the "pi" module counts rank
    over the boundary (always 1 for the shipped representatives); the "pr"
    module reads the winding, +N on chi(N) and ORIENTATION_SIGN * N on the
    degree-N idempotent."""
    if module_kind == "pi":
        return 1
    if representative == "chi":
        return int(N)
    if representative == "en":
        return ORIENTATION_SIGN * int(N)
    raise ValueError(f"unknown representative {representative!r}")


def winding_interpretation(representative: str, module_kind: str, N: int) -> str:
    """What expected_pairing's integer counts, as the index table prints it."""
    value = expected_pairing(module_kind, representative, N)
    if module_kind == "pi":
        return f"rank = {value}"
    if representative == "chi":
        return f"winding = {value}"
    return f"winding = {value} (orientation sign {ORIENTATION_SIGN})"


CHI_RESIDUAL_TOL = 1e-12
EN_RESIDUAL_TOL = 1e-3


def classify(result: PairingResult, representative: str, expected: int) -> str:
    """A pairing's status under the rule of its representative, "chi" or
    "en". It passes when it has no failure and rounds to expected within
    the representative's residual tolerance; under the chi rule, which the
    unit class and the point defect follow too, it must also be exact, so
    its value cannot move with the window."""
    is_chi = representative == "chi"
    tol = CHI_RESIDUAL_TOL if is_chi else EN_RESIDUAL_TOL
    ok = (
        result.failure is None
        and result.rounded == expected
        and result.residual <= tol
        and (result.exact or not is_chi)
    )
    return PASS if ok else FAIL


@dataclass(frozen=True)
class TableEntry:
    """What a PairingTable keeps of one key: the pairing with each module by
    kind ("pr", then "pi"), and for the degree-N idempotent the exact trace
    of its symbol matrix (None if it could not be built)."""

    results: dict[str, PairingResult]
    symbol_trace: LaurentPoly | None


class PairingTable:
    """The chi(N) and degree-N idempotent pairings of one run, keyed by
    (representative, N, window) with representative "chi" or "en", and
    filled on first use. The window is a ParamSet (the run's params or a
    dataclasses.replace of them): the idempotent is built at window.d, the
    "pi" module pairs at radius window.w.

    Filling an entry builds the idempotent once, checks its defect once and
    traces it against both modules; the operators are dropped afterwards,
    so the table holds results only. It is the one source of a run's chi(N)
    and E_N pairings, and it computes them without judging them: the
    expected values and statuses are expected_pairing's and classify's."""

    def __init__(self, params: ParamSet):
        self.params = params
        self._entries: dict[tuple[str, int, ParamSet], TableEntry] = {}

    def entry(self, representative: str, N: int, window: ParamSet | None = None) -> TableEntry:
        """The entry at window (default: the run's), filled on first use."""
        key = (representative, N, self.params if window is None else window)
        if key not in self._entries:
            self._entries[key] = self._fill(*key)
        return self._entries[key]

    def _fill(self, representative: str, N: int, window: ParamSet) -> TableEntry:
        """Build, check and trace one idempotent. A QGlueError keeps its
        reason as a failed result: of both modules when the idempotent
        cannot be built or checked (the symbol trace of an E_N that cannot
        be built is None), else of the module whose trace raised, the other
        module's pairing standing."""
        modules = (FredholmModule("pr"), FredholmModule("pi", params=window))
        symbol_trace = None
        try:
            if representative == "chi":
                P = chi(N, window.d)
            else:
                P = en_numeric(N, window)
                symbol_trace = sum((row[i].sym0 for i, row in enumerate(P)), LaurentPoly({}))
            entries, defect = _checked_idempotent(P)
        except QGlueError as exc:
            failure = PairingResult.failed(exc)
            return TableEntry({m.kind: failure for m in modules}, symbol_trace)
        results = {}
        for m in modules:
            result, error = attempt(lambda: _trace_pairing(m, entries, defect))
            results[m.kind] = result if error is None else PairingResult.failed(error)
        return TableEntry(results, symbol_trace)
