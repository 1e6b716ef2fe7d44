"""Verification suite registry: naming, determinism, subset reproducibility."""

import re
import sys
from dataclasses import replace

import numpy as np
import pytest

import qglue.glue
import qglue.kpair
import qglue.suites
from qglue import (
    FibrePair,
    FredholmModule,
    LaurentPoly,
    OuterProduct,
    ParamSet,
    S,
    SUITES,
    build_en,
    en_numeric,
    run_suites,
)
from qglue.errors import (
    CertificationError,
    DimensionMismatch,
    WindowOverflow,
)
from qglue.idempotents import EN_CAP
from qglue.kpair import PairingTable, _checked_idempotent, _trace_pairing
from qglue.ncpoly import SymMatrix
from qglue.opnum import diag_op, disc_base
from qglue.cli import run
from qglue.entry import RunConfig
from qglue.params import WINDOW_MAX
from qglue.report import FAIL, PASS, WARN, CheckRecord
from qglue.suites import Outcome, _recorded, run_check

PARAMS = ParamSet(d=32, w=6)

PINNED_NAMES = [
    "disc",
    "s3",
    "s2",
    "su2",
    "podles",
    "hopf",
    "en-symbolic",
    "en-numeric",
    "chi",
    "index",
    "convergence",
    "confluence",
]


def test_registry_names_are_pinned():
    assert list(SUITES) == PINNED_NAMES


def test_unknown_suite_name_raises():
    with pytest.raises(KeyError, match="nonsense"):
        run_suites(["disc", "nonsense"], PARAMS, 2)


def test_runs_preserve_registry_order():
    records = run_suites(["hopf", "disc"], PARAMS, 2, seed=3)
    suites_seen = []
    for rec in records:
        if rec.suite not in suites_seen:
            suites_seen.append(rec.suite)
    assert suites_seen == ["disc", "hopf"]


def test_same_seed_reproduces_records():
    a = run_suites(["disc", "hopf"], PARAMS, 2, seed=11)
    b = run_suites(["disc", "hopf"], PARAMS, 2, seed=11)
    assert a == b


def test_subset_run_matches_full_run_records():
    full = run_suites(["disc", "s2", "hopf"], PARAMS, 2, seed=5)
    only_hopf = run_suites(["hopf"], PARAMS, 2, seed=5)
    assert only_hopf == [rec for rec in full if rec.suite == "hopf"]
    only_disc = run_suites(["disc"], PARAMS, 2, seed=5)
    assert only_disc == [rec for rec in full if rec.suite == "disc"]


def test_cheap_suites_pass_at_defaults():
    records = run_suites(["disc", "s2", "su2", "hopf"], PARAMS, 3, seed=0)
    assert records, "suites must emit records"
    bad = [rec for rec in records if rec.status == "fail"]
    assert bad == []
    for rec in records:
        assert rec.anchor, f"record {rec.suite}/{rec.check} is missing its anchor"


def test_broken_gluing_fails_leg_compatibility(monkeypatch, capsys):
    # a leg-1 symbol off by one power of U breaks every letter's membership
    true_map = qglue.glue.leg_bilaurent

    def wrong_map(x, leg):
        sym = true_map(x, leg)
        return sym.map_keys(lambda k: (k[0] + 1, k[1])) if leg == 1 else sym

    monkeypatch.setattr(qglue.glue, "leg_bilaurent", wrong_map)
    records = run_suites(["s3"], PARAMS, 2)
    legs = [rec for rec in records if rec.check.startswith("leg compatibility")]
    assert len(legs) == 5
    for rec in legs:
        assert rec.status == "fail"
        assert "membership" in rec.value
    assert run(["verify", "--suite", "s3", "--d", "16"]) == 1
    assert " fail" in capsys.readouterr().err


def test_a_perturbed_disc_base_fails_that_discs_defect_rows(monkeypatch):
    # the suite's own copy of the z-disc base off by 1%: the operators keep the
    # true base, so the relations hold and only the rows that read the base fail
    true_base = qglue.suites.disc_base

    def perturbed(letter, params):
        return true_base(letter, params) * (1.01 if letter == "z" else 1.0)

    monkeypatch.setattr(qglue.suites, "disc_base", perturbed)
    records = run_suites(["disc"], PARAMS, 2)
    failed = [rec.check for rec in records if rec.status == FAIL]
    assert failed == [
        "defect diagonal [q]",
        "power product [q] N=1",
        "power product [q] N=2",
    ]
    assert len(records) == 12


def test_a_shifted_s2_defect_projection_fails_the_defect_relations(monkeypatch):
    # A on leg 0 as diag(base^(n+1)) instead of diag(base^n): it still
    # commutes with R as before, but R R* and R* R no longer add up to 1
    true_legs = qglue.suites.s2_leg_assignment

    def shifted(leg, params):
        ops = true_legs(leg, params)
        if leg == 0:
            ops["A"] = diag_op(disc_base("z", params) ** (np.arange(params.d) + 1.0))
        return ops

    monkeypatch.setattr(qglue.suites, "s2_leg_assignment", shifted)
    records = run_suites(["s2"], PARAMS, 2)
    failed = [(rec.check, rec.anchor) for rec in records if rec.status == FAIL]
    assert failed == [
        ("relation [leg 0]", "R* R -> 1 + (-q) A + (-p) B"),
        ("relation [leg 0]", "R R* -> 1 - A - B"),
    ]
    assert len(records) == 16


def _recorded_calls(monkeypatch, module, name):
    """Record the positional arguments of each call of module.name, through
    every qglue namespace binding it."""
    original = getattr(module, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("qglue") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recorded)
    return calls


def test_pairing_suites_share_one_pairing_per_representative(monkeypatch):
    builds = _recorded_calls(monkeypatch, qglue.glue, "en_numeric")
    checks = _recorded_calls(monkeypatch, qglue.kpair, "_idem_defect")
    square, squared = OuterProduct.square, []
    monkeypatch.setattr(OuterProduct, "square", lambda P: squared.append(P) or square(P))
    run_suites(["en-numeric", "chi", "index", "convergence"], ParamSet(), nmax=2)
    # E_N for |N| <= 2 once each at the run's window d = 64, where
    # convergence reads the table too, and E_1, E_2 at its smaller windows
    assert sorted((N, params.d) for N, params in builds) == [
        (-2, 64),
        (-1, 64),
        (0, 64),
        (1, 8),
        (1, 16),
        (1, 32),
        (1, 64),
        (2, 16),
        (2, 32),
        (2, 64),
    ]
    # one idempotency check per idempotent: each E_N built, squared through
    # its factors, and chi(N) for |N| <= 2, chi's point defect (its unit
    # class is chi(0), read from the table) and convergence's three chi
    # stability pairings
    factored = [P for P, _ in checks if isinstance(P, OuterProduct)]
    assert len(factored) == len(builds)
    assert squared == factored
    assert len(checks) - len(factored) == 5 + 1 + 3


def test_a_default_run_pairs_each_class_once_per_window(monkeypatch):
    # every idempotency check but the point defect's fills a table entry,
    # keyed by (representative, N, window), and no key is filled twice
    fill, check = PairingTable._fill, qglue.kpair._checked_idempotent
    filling, filled, outside = [], [], []

    def recorded_fill(table, *key):
        filling.append(key)
        try:
            return fill(table, *key)
        finally:
            filling.pop()

    def recorded_check(P):
        (filled if filling else outside).append(filling[-1] if filling else P)
        return check(P)

    monkeypatch.setattr(PairingTable, "_fill", recorded_fill)
    monkeypatch.setattr(qglue.kpair, "_checked_idempotent", recorded_check)
    params = ParamSet()
    records = run_suites(list(SUITES), params, 5)
    assert FAIL not in {rec.status for rec in records}
    assert len(filled) == len(set(filled))
    [point] = outside
    assert point.t0.max_abs() == 0.0 and point.twist == 0
    # the run's chi(3) at d = 64 serves stability in d, and convergence's
    # smaller windows are table entries too
    assert ("chi", 3, params) in filled
    for key in [("en", 1, replace(params, d=8)), ("chi", 2, replace(params, w=12))]:
        assert key in filled


def test_index_records_do_not_depend_on_companion_suites():
    params = ParamSet()
    alone = run_suites(["index"], params, 1)
    together = run_suites(["en-numeric", "chi", "index"], params, 1)
    assert alone
    assert alone == [rec for rec in together if rec.suite == "index"]


@pytest.mark.parametrize("flags", [{}, {"q": 0.95, "p": 0.9}])
def test_a_pairing_is_one_fact_in_every_suite(flags):
    # each chi and en-numeric pairing record equals the index record of the
    # same representative, N and module, cell for cell; at q = 0.95, p = 0.9
    # some E_N pairings fail, and they fail alike
    records = run_suites(["en-numeric", "chi", "index"], ParamSet(**flags), RunConfig.nmax)
    index = {rec.check: rec for rec in records if rec.suite == "index"}
    representative = {"chi": "chi", "en-numeric": "en"}
    twins = [
        (rec, index[representative[rec.suite] + rec.check.removeprefix("pairing")])
        for rec in records
        if rec.check.startswith("pairing N=")
    ]
    assert len(twins) == 36
    for rec, twin in twins:
        cells = (rec.status, rec.value, rec.expected, rec.residual)
        assert cells == (twin.status, twin.value, twin.expected, twin.residual), rec.check
    assert {rec.status for rec, _ in twins} == ({PASS} if not flags else {PASS, FAIL})


def test_chi_rows_need_an_exact_pairing_in_every_suite(monkeypatch):
    # every trace keeps its value, and its tail is the smallest subnormal
    # where it was exactly 0.0: far inside TAIL_TOL, but not exact
    trace = qglue.kpair.trace_finite_rank

    def inexact(op):
        value, tail_max = trace(op)
        return value, max(tail_max, 5e-324)

    monkeypatch.setattr(qglue.kpair, "trace_finite_rank", inexact)
    records = run_suites(["chi", "index"], ParamSet(), 1)
    prefix = {"chi": "pairing N=", "index": "chi N="}
    chi_rows = [rec for rec in records if rec.check.startswith(prefix[rec.suite])]
    # chi(N) for N = -1, 0, 1 against both modules, in each suite
    assert len(chi_rows) == 12
    assert {rec.status for rec in chi_rows} == {FAIL}
    # the unit class and the point defect follow the chi rule
    classes = [rec for rec in records if rec.check in ("unit class", "point defect")]
    assert [rec.status for rec in classes] == [FAIL, FAIL]
    # an E_N row needs no exact pairing
    en_rows = [rec for rec in records if rec.check.startswith("en N=")]
    assert len(en_rows) == 6
    assert {rec.status for rec in en_rows} == {PASS}


def test_chi_classes_are_held_to_the_chi_residual(monkeypatch):
    # every trace is exact but off by 1e-9, a residual over CHI_RESIDUAL_TOL
    trace = qglue.kpair.trace_finite_rank

    def off(op):
        return trace(op)[0] + 1e-9, 0.0

    monkeypatch.setattr(qglue.kpair, "trace_finite_rank", off)
    records = {rec.check: rec for rec in run_suites(["chi"], ParamSet(), 1)}
    for check in ("unit class", "point defect", "pairing N=+0 [pr]"):
        assert records[check].status == FAIL, check
    # the unit class shows its row's value and expected value, no residual
    unit = records["unit class"]
    assert (unit.value, unit.expected, unit.residual) == (1e-9, 0, None)


def test_numeric_suites_at_d512_take_no_dense_svd(monkeypatch):
    # every trusted-block difference there has at most one nonzero diagonal
    norm = np.linalg.norm
    spectral = [0]

    def counted(x, ord=None, *args, **kwargs):
        spectral[0] += ord == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    run_suites(["disc", "podles", "en-numeric", "chi", "index"], ParamSet(d=512), 1)
    assert spectral[0] == 0


def test_pairing_stability_in_w_holds_at_the_window_cap():
    # a shift window 4 wider would pass the cap there, so the check pairs
    # on one 4 narrower
    records = run_suites(["convergence"], replace(PARAMS, w=WINDOW_MAX), 2)
    [record] = [rec for rec in records if rec.check == "pairing stability in w"]
    assert record.status == PASS


def test_runner_builds_the_record_from_the_outcome():
    assert run_check("s", "c", "a = b", lambda: Outcome(True)) == CheckRecord(
        "s", "c", PASS, anchor="a = b"
    )
    record = run_check("s", "c", "a = b", lambda: Outcome(False, 3, 2, 0.5))
    assert record == CheckRecord("s", "c", FAIL, 3, 2, 0.5, "a = b")
    record = run_check("s", "c", "a = b", lambda: Outcome(WARN, note="; edge"))
    assert (record.status, record.anchor) == (WARN, "a = b; edge")


def test_runner_turns_a_qglue_error_into_one_fail_record():
    def overflow():
        raise WindowOverflow("exponent 4 does not fit")

    record = run_check("s", "c", "a = b", overflow)
    assert record == CheckRecord("s", "c", FAIL, "exponent 4 does not fit", anchor="a = b")
    assert record.expected is None and record.residual is None


def test_runner_lets_any_other_exception_through():
    def bug():
        raise TypeError("not a check failure")

    with pytest.raises(TypeError, match="not a check failure"):
        run_check("s", "c", "a = b", bug)


def test_an_idempotent_that_cannot_be_built_fails_its_rows(monkeypatch):
    build = qglue.kpair.en_numeric
    calls = []

    def no_e1(N, params):
        calls.append(N)
        if N == 1:
            raise CertificationError("E_1 refused")
        return build(N, params)

    monkeypatch.setattr(qglue.kpair, "en_numeric", no_e1)
    records = run_suites(["en-numeric"], ParamSet(), 1)
    failed = [rec for rec in records if rec.status == FAIL]
    assert [rec.check for rec in failed] == [
        "symbol trace N=+1",
        "pairing N=+1 [pr]",
        "pairing N=+1 [pi]",
    ]
    assert [rec.value for rec in failed[1:]] == ["E_1 refused"] * 2
    # the failed build is kept for both modules, not tried again
    assert calls == [-1, 0, 1]
    assert len(records) == 9


def test_e_n_rows_cover_exactly_the_reported_degrees():
    # nmax above the bound: chi rows go to nmax, E_N rows stop at EN_CAP,
    # while build_en itself builds past it
    nmax = EN_CAP + 5
    records = run_suites(["en-symbolic", "en-numeric", "index"], ParamSet(), nmax)
    degrees = {"en-symbolic": set(), "en-numeric": set(), "index": set()}
    for rec in records:
        if rec.suite != "index" or rec.check.startswith("en "):
            degrees[rec.suite].add(int(re.search(r"N=([+-]\d+)", rec.check).group(1)))
    reported = set(range(-EN_CAP, EN_CAP + 1))
    assert degrees == {suite: reported for suite in degrees}
    chi = [rec for rec in records if rec.check.startswith("chi ")]
    assert {rec.check.split()[1] for rec in chi} == {f"N={N:+d}" for N in range(-nmax, nmax + 1)}
    _, _, E = build_en(EN_CAP + 1)
    assert E.shape == (EN_CAP + 2, EN_CAP + 2)


def test_a_check_over_an_empty_trusted_block_fails():
    # at d = 8 the power product's window leaves no trusted block at guard
    # 0, nor does E_2's square at the pairing guard: nothing is compared,
    # so both rows fail and name the window
    records = run_suites(["disc", "en-numeric"], ParamSet(d=8), 5)
    by_check = {(rec.suite, rec.check): rec for rec in records}
    power = by_check["disc", "power product [q] N=4"]
    pairing = by_check["en-numeric", "pairing N=+2 [pi]"]
    assert power.status == pairing.status == FAIL
    assert power.value == "no trusted block: d=8, bandwidth=8 at guard 0"
    assert pairing.value == "no trusted block: d=8, bandwidth=8 at guard 2"


def test_a_suite_is_collected_before_its_checks_run():
    # each compute binds its loop variable when it is yielded, so the
    # checks run after the whole suite has been collected, in yield order
    events = []

    def compute(n):
        events.append(f"run {n}")
        return Outcome(True, n)

    def toy(params, nmax, rng, pairings):
        for n in range(3):
            events.append(f"yield {n}")
            yield f"check {n}", f"n = {n}", lambda n=n: compute(n)

    records = _recorded("toy", toy)(PARAMS, 0, None, None)
    assert [(rec.check, rec.value) for rec in records] == [
        ("check 0", 0),
        ("check 1", 1),
        ("check 2", 2),
    ]
    assert events == ["yield 0", "yield 1", "yield 2", "run 0", "run 1", "run 2"]


def test_a_pairing_residual_that_cannot_be_computed_fails_its_rows(monkeypatch):
    build = qglue.kpair.en_numeric
    tried = []

    def no_d32(N, params):
        if params.d == 32:
            tried.append(N)
            raise DimensionMismatch("no window d=32")
        return build(N, params)

    monkeypatch.setattr(qglue.kpair, "en_numeric", no_d32)
    records = run_suites(["convergence"], ParamSet(), 2)
    failed = [rec for rec in records if rec.status == FAIL]
    assert [rec.check for rec in failed] == [
        "pairing residual N=1 d=16->32",
        "pairing residual N=1 d=32->64",
        "pairing residual N=2 d=16->32",
        "pairing residual N=2 d=32->64",
    ]
    assert {(rec.value, rec.residual) for rec in failed} == {("no window d=32", None)}
    assert [rec.status for rec in records if rec.status != FAIL] == [PASS] * 4
    # each window that cannot be paired is tried once (one table entry), for
    # both rows that read it
    assert tried == [1, 2]


def test_a_polar_part_that_cannot_be_computed_fails_its_rows(monkeypatch):
    def uncertified(pair):
        raise CertificationError("no polar part")

    monkeypatch.setattr(qglue.suites, "polar_part", uncertified)
    records = run_suites(["podles"], PARAMS, 2)
    failed = [rec for rec in records if rec.status == FAIL]
    assert [rec.check for rec in failed] == ["polar part [leg 0]", "polar part [leg 1]"]
    assert {rec.value for rec in failed} == {"no polar part"}
    assert len(records) > len(failed)


def _phi_matches_w():
    records = run_suites(["hopf"], PARAMS, 2)
    [record] = [rec for rec in records if rec.check == "phi matches W"]
    return record


def test_a_gluing_that_breaks_w_fails_phi_matches_w(monkeypatch):
    # leg 1 reads b as y*: its symbol is no longer W of leg 0's
    monkeypatch.setitem(qglue.glue.S3_GLUING, "b", (None, "y*"))
    assert _phi_matches_w().status == FAIL


def test_the_gluing_law_rows_build_no_operator(monkeypatch):
    # the s3 "leg compatibility" rows and "phi matches W" check the gluing law
    # on symbols alone, so they pass with no operator evaluation at all
    def no_operators(*args):
        raise AssertionError("the gluing law evaluated an operator")

    monkeypatch.setattr(qglue.glue, "evaluate", no_operators)

    def law_rows():
        records = run_suites(["s3", "hopf"], PARAMS, 2)
        rows = [rec for rec in records if rec.check.startswith("leg compatibility")]
        assert len(rows) == 5
        return rows + [rec for rec in records if rec.check == "phi matches W"]

    assert {rec.status for rec in law_rows()} == {PASS}
    # a table that puts every letter one power of U off the law on leg 1
    # breaks every nonempty word, so every row fails with iota's message
    for letter, discs in {
        "a": ("z", "y*"), "a*": (None, None), "b": (None, None), "b*": ("z", "y*"),
    }.items():
        monkeypatch.setitem(qglue.glue.S3_GLUING, letter, discs)
    for rec in law_rows():
        assert rec.status == FAIL
        assert "membership" in rec.value


def _podles_failures(monkeypatch, plant):
    """The podles rows that fail when plant edits the generators' pairs."""
    true_generators = qglue.suites.podles_generators
    monkeypatch.setattr(
        qglue.suites, "podles_generators", lambda params: plant(true_generators(params))
    )
    return [rec.check for rec in run_suites(["podles"], PARAMS, 2) if rec.status == FAIL]


@pytest.mark.parametrize("sym0, twist", [(LaurentPoly({1: 1}), 0), (LaurentPoly({1: S}), 1)])
def test_a_wrong_eta_symbol_fails_the_eta_symbol_row(monkeypatch, sym0, twist):
    def plant(pod):
        return replace(pod, eta=FibrePair(pod.eta.t0, pod.eta.t1, sym0, twist))

    assert _podles_failures(monkeypatch, plant) == ["eta symbol"]


def test_a_twisted_zeta_fails_the_zeta_symbol_row(monkeypatch):
    # zeta keeps symbol 0, but a twist-1 pair is no element of the glued algebra
    def plant(pod):
        return replace(pod, zeta=FibrePair(pod.zeta.t0, pod.zeta.t1, pod.zeta.sym0, 1))

    assert _podles_failures(monkeypatch, plant) == ["zeta symbol"]


def test_a_literal_weight_idempotent_fails_idempotency(monkeypatch):
    build = qglue.suites.build_en

    def literal(N, assignment="corrected"):
        # the uncorrected binomial bases: E^2 - E lies outside the ideal for N != 0
        return build(N, assignment="literal")

    monkeypatch.setattr(qglue.suites, "build_en", literal)
    records = run_suites(["en-symbolic"], PARAMS, 2)
    status = {rec.check: rec.status for rec in records if rec.check.startswith("idempotency")}
    assert status == {
        "idempotency N=-2": FAIL,
        "idempotency N=-1": FAIL,
        "idempotency N=+0": PASS,
        "idempotency N=+1": FAIL,
        "idempotency N=+2": FAIL,
    }


def test_an_idempotent_that_is_not_x_yt_fails_idempotency(monkeypatch):
    build = qglue.suites.build_en

    def one_entry_negated(N, assignment="corrected"):
        # X and Y stay true, so Y^T X = 1 still holds, but E is not X Y^T
        X, Y, E = build(N, assignment)
        entries = [list(row) for row in E.entries]
        entries[0][-1] = -entries[0][-1]
        return X, Y, SymMatrix(E.pres, entries)

    monkeypatch.setattr(qglue.suites, "build_en", one_entry_negated)
    records = run_suites(["en-symbolic"], PARAMS, 2)
    status = {rec.check: rec.status for rec in records}
    for N in range(-2, 3):
        assert status[f"dual pairing N={N:+d}"] == PASS
        # E_0 = (1): negating its one entry gives -1, which is not X Y^T either
        assert status[f"idempotency N={N:+d}"] == FAIL


def test_en_symbolic_reduces_each_dual_pairing_once(monkeypatch):
    # dual pairing and idempotency of one degree read one reduction of Y^T X
    pres = qglue.suites.sphere3_presentation()
    pres._nf_cache.clear()
    reduced = []
    normal_form = qglue.suites.normal_form

    def counted(x, **kwargs):
        reduced.append(x)
        return normal_form(x, **kwargs)

    monkeypatch.setattr(qglue.suites, "normal_form", counted)
    records = run_suites(["en-symbolic"], PARAMS, 2)
    assert all(rec.status == PASS for rec in records)
    for N in range(-2, 3):
        X, Y, _ = qglue.suites.build_en(N)
        assert reduced.count((Y.transpose() @ X)[0, 0]) == 1


def _scaled(pair, c):
    """c times a fibre pair: both legs and the symbol."""
    return FibrePair(c * pair.t0, c * pair.t1, c * pair.sym0, pair.twist)


def test_a_doubled_numeric_idempotent_fails_its_pairings(monkeypatch):
    build = qglue.kpair.en_numeric

    def doubled(N, params):
        # 2 E = (2 X) Y^T is no idempotent: its exact symbol matrix squares
        # to 4 sigma(E)
        E = build(N, params)
        return OuterProduct([_scaled(x, 2) for x in E.column], E.row)

    monkeypatch.setattr(qglue.kpair, "en_numeric", doubled)
    records = run_suites(["en-numeric"], ParamSet(), 2)
    assert len(records) == 15
    assert {rec.status for rec in records} == {FAIL}
    for N in range(-2, 3):
        pairings = [rec for rec in records if rec.check.startswith(f"pairing N={N:+d} ")]
        assert [rec.check[-4:] for rec in pairings] == ["[pr]", "[pi]"]
        assert all("not exactly idempotent" in rec.value for rec in pairings)


def test_one_scaled_factor_entry_fails_every_row_of_its_idempotent(monkeypatch):
    build = qglue.kpair.en_numeric

    def last_y_doubled(N, params):
        # X Y^T with the last Y entry, the one with a nonzero symbol on leg
        # 0, doubled: Y^T X is no longer 1, so neither the symbol trace nor
        # the factored square E^2 = E holds
        E = build(N, params)
        if N != 2:
            return E
        return OuterProduct(E.column, [*E.row[:-1], _scaled(E.row[-1], 2)])

    monkeypatch.setattr(qglue.kpair, "en_numeric", last_y_doubled)
    records = run_suites(["en-numeric"], ParamSet(), 2)
    failed = [rec.check for rec in records if rec.status == FAIL]
    assert failed == ["symbol trace N=+2", "pairing N=+2 [pr]", "pairing N=+2 [pi]"]


@pytest.mark.parametrize("q, p, table_fails", [(0.6, 0.4, False), (0.95, 0.9, True)])
def test_convergence_rows_equal_a_direct_computation(q, p, table_fails):
    # convergence reads the table's pairing at every window; one whose tail
    # exceeds TAIL_TOL (at q = 0.95, p = 0.9, d = 64) fails its index rows
    # but keeps its residual for the ladder
    params = ParamSet(q=q, p=p)
    table = PairingTable(params)
    for N in (1, 2):
        result = table.entry("en", N).results["pr"]
        assert (result.failure is not None) == table_fails
        assert result.residual is not None
    pr = FredholmModule("pr")

    def residual(N, d):
        entries, defect = _checked_idempotent(en_numeric(N, replace(params, d=d)))
        return _trace_pairing(pr, entries, defect).residual

    want = []
    for N, dims in ((1, (8, 16, 32, 64)), (2, (16, 32, 64))):
        for d1, d2 in zip(dims, dims[1:]):
            r1, r2 = residual(N, d1), residual(N, d2)
            want.append((f"pairing residual N={N} d={d1}->{d2}", r2, f"<= {r1 / 10.0:.3e} + 1e-12", r2))
    records = run_suites(["convergence"], params, 2)
    got = [
        (rec.check, rec.value, rec.expected, rec.residual)
        for rec in records
        if rec.check.startswith("pairing residual")
    ]
    assert got == want
