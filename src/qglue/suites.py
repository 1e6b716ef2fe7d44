"""Named verification suites.

Each suite is a function (params, nmax, rng, pairings) -> list[CheckRecord]
and is registered in SUITES under a stable name. Suites never raise on a
failed check; they return fail records. run_suites seeds one rng per suite
from (seed, suite name), so a subset run reproduces exactly the records the
full run would have produced for those suites. The chi, en-numeric, index
and convergence suites read the chi(N) and E_N pairings from the run's one
PairingTable, so each is computed once per run whichever of them ask for it.
"""

from __future__ import annotations

import operator
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .circle import (
    BiLaurent,
    LaurentPoly,
    hopf_antipode,
    hopf_coproduct,
    hopf_counit,
    phi_map,
    pointwise_product,
    w_inverse,
    w_map,
)
from .coefficients import CoefPoly, ONE, P, Q, S, _accumulate
from .errors import DimensionMismatch, SymbolMismatch, WindowOverflow
from .glue import (
    FibrePair,
    chi,
    en_numeric,
    iota,
    iota_kron_assignment,
    kron_interior,
    podles_generators,
    polar_part,
    psi_inverse,
    psi_iso,
    s2_leg_assignment,
    s3_leg_assignment,
)
from .idempotents import EN_CAP, build_en
from .kpair import FredholmModule, IndexRow, PairingTable, pair
from .ncpoly import NCPoly
from .opnum import (
    WINDOW_MAX,
    ParamSet,
    TruncOp,
    diag_op,
    disc_assignment,
    disc_base,
    evaluate,
    identity,
    pi_rep,
    shift,
    trusted_diff_norm,
    zero,
)
from .presentations import degree, normal_form, verify_identity
from .presets import (
    DISC_FLAVOURS,
    all_presentations,
    disc_presentation,
    podles_zeta_eta,
    sphere2_presentation,
    sphere3_presentation,
    su2_presentation,
)
from .report import CheckRecord, FAIL, PASS, WARN

# -- small helpers -----------------------------------------------------------------


def _res(suite, check, residual, tol, anchor) -> CheckRecord:
    return CheckRecord(
        suite=suite,
        check=check,
        status=PASS if residual <= tol else FAIL,
        residual=float(residual),
        anchor=anchor,
    )


def _relation_records(suite, check, pres, residual, tol, note="") -> list[CheckRecord]:
    """One record per rule of pres: residual(rule element) against tol."""
    return [
        _res(suite, check, residual(pres.rule_element(rule)), tol, pres.rule_text(rule) + note)
        for rule in pres.rules
    ]


def _window_residual(ops, params: ParamSet):
    """The largest entry of an element evaluated on truncated operators."""
    return lambda x: evaluate(x, ops, params).max_abs(guard=0)


def _flag(suite, check, ok, anchor, value=None, expected=None) -> CheckRecord:
    return CheckRecord(
        suite=suite,
        check=check,
        status=PASS if ok else FAIL,
        value=value,
        expected=expected,
        anchor=anchor,
    )


def _pairing_record(suite, check, row: IndexRow, anchor) -> CheckRecord:
    """Record of one pairing as the run's table classified it."""
    return CheckRecord(
        suite=suite,
        check=check,
        status=row.status,
        value=row.result.value,
        expected=row.expected,
        residual=row.result.residual,
        anchor=anchor,
    )


def _random_word(pres, rng: random.Random, max_len: int) -> tuple[int, ...]:
    n = rng.randint(1, max_len)
    return tuple(rng.randrange(len(pres.letters)) for _ in range(n))


def _random_element(pres, rng: random.Random, n_words: int = 2, max_len: int = 5) -> NCPoly:
    terms = {}
    for _ in range(n_words):
        coef = CoefPoly.scalar(Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3)))
        _accumulate(terms, _random_word(pres, rng, max_len), coef)
    return NCPoly(pres, terms)


def confluence_sample(pres, n_words: int, max_len: int, rng: random.Random) -> int:
    """Reduce n_words random words with the deterministic strategy and the
    fully randomized one; return the number of disagreements (0 when the
    rule system is confluent)."""
    bad = 0
    for _ in range(n_words):
        x = NCPoly(pres, {_random_word(pres, rng, max_len): ONE})
        det = normal_form(x)
        rnd = normal_form(x, rng=rng)
        if det != rnd:
            bad += 1
    return bad


# -- disc -------------------------------------------------------------------------


def suite_disc(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    recs = []
    for which, (letter, _) in DISC_FLAVOURS.items():
        pres = disc_presentation(which)
        base = disc_base(letter, params)
        ops = disc_assignment(pres, params)
        recs += _relation_records(
            "disc", f"relation [{which}]", pres, _window_residual(ops, params), params.tol
        )
        z = ops[letter]
        t = base ** np.arange(params.d)
        res = (identity(params.d) - z @ z.adjoint() - diag_op(t)).max_abs(guard=0)
        recs.append(
            _res(
                "disc",
                f"defect diagonal [{which}]",
                res,
                params.tol,
                f"1 - {letter} {letter}* = diag(base^n)",
            )
        )
        # product identity behind the winding count, N up to 5
        for N in range(1, min(nmax, 5) + 1):
            lhs = (z.adjoint() ** N) @ (z**N)
            v = np.ones(params.d)
            for k in range(1, N + 1):
                v = v * (1.0 - base**k * t)
            res = (lhs - diag_op(v)).max_abs(guard=0)
            recs.append(
                _res(
                    "disc",
                    f"power product [{which}] N={N}",
                    res,
                    1e-12,
                    f"{letter}*^N {letter}^N = prod_k=1..N (1 - base^k (1 - {letter} {letter}*))",
                )
            )
    return recs


# -- glued pair of discs ------------------------------------------------------------


def suite_s3(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    recs = []
    pres = sphere3_presentation()
    for leg in (0, 1):
        ops = s3_leg_assignment(leg, params)
        recs += _relation_records(
            "s3", f"relation [leg {leg}]", pres, _window_residual(ops, params), params.tol
        )
    # honest tensor picture: same relations on kron operators, interior only
    tensor = replace(params, d=24, w=6)
    interior = kron_interior(tensor.d, tensor.w, 5, 5)
    for leg in (0, 1):
        ops = iota_kron_assignment(leg, tensor)
        recs += _relation_records(
            "s3",
            f"kron relation [leg {leg}]",
            pres,
            lambda x: evaluate(x, ops, params).max_abs_on(interior),
            params.tol,
            " (tensor interior)",
        )
    # iota builds each degree as a fibre pair, whose membership rule is the
    # twisted compatibility of the two legs; a gluing that breaks it raises
    small = replace(params, d=8)
    for trial in range(5):
        x = _random_element(pres, rng, n_words=2, max_len=4)
        try:
            iota(x, small)
        except SymbolMismatch as exc:
            ok, witness = False, str(exc)
        else:
            ok, witness = True, None
        recs.append(
            _flag(
                "s3",
                f"leg compatibility [{trial}]",
                ok,
                "W (sigma x id) leg0 = (sigma x id) leg1 on the doubled picture",
                value=witness,
            )
        )
    return recs


# -- quotient sphere ----------------------------------------------------------------


def suite_s2(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    recs = []
    pres = sphere2_presentation()
    for leg in (0, 1):
        ops = s2_leg_assignment(leg, params)
        recs += _relation_records(
            "s2", f"relation [leg {leg}]", pres, _window_residual(ops, params), params.tol
        )
    return recs


# -- quantum SU(2) ------------------------------------------------------------------


def suite_su2(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    recs = []
    pres = su2_presentation()
    try:
        pres.validate()
        recs.append(
            _flag("su2", "presentation valid", True, "rules are graded and star-closed")
        )
    except Exception as exc:  # pragma: no cover - guards a shipped preset
        recs.append(_flag("su2", "presentation valid", False, repr(exc)))
    a, d, b, c = (pres.gen(n) for n in ("a", "d", "b", "c"))
    holds, witness = verify_identity(a * d - d * a, (Q - Q**-1) * b * c)
    recs.append(
        _flag(
            "su2",
            "commutator identity",
            holds,
            "a d - d a = (q - q^-1) b c",
            value=str(witness) if not holds else None,
        )
    )
    holds, _ = verify_identity((b * c).star(), c.star() * b.star())
    recs.append(_flag("su2", "star antihomomorphism", holds, "(b c)* = c* b*"))
    zeta, eta = podles_zeta_eta()
    recs.append(_flag("su2", "zeta degree", degree(zeta) == 0, "deg zeta = 0"))
    recs.append(_flag("su2", "eta degree", degree(eta) == -2, "deg eta = -2"))
    return recs


# -- equatorial family -------------------------------------------------------------


# (check, anchor, relation) of the equatorial family. A relation maps
# (zeta, eta, unit, product, adjoint, s^2, q^2, q^-2) to an element that
# vanishes when it holds; it runs on the exact su2 elements and on each
# pair of operator legs.
PODLES_RELATIONS = (
    (
        "twist relation",
        "zeta eta = q^2 eta zeta",
        lambda z, e, one, mul, adj, ss, qq, qm2: mul(z, e) - qq * mul(e, z),
    ),
    (
        "self-adjointness",
        "zeta* = zeta",
        lambda z, e, one, mul, adj, ss, qq, qm2: adj(z) - z,
    ),
    (
        "radial relation",
        "eta* eta = (1 - zeta) (s^2 + zeta)",
        lambda z, e, one, mul, adj, ss, qq, qm2: mul(adj(e), e)
        - mul(one - z, ss * one + z),
    ),
    (
        "radial relation starred",
        "eta eta* = (1 - q^-2 zeta) (s^2 + q^-2 zeta)",
        lambda z, e, one, mul, adj, ss, qq, qm2: mul(e, adj(e))
        - mul(one - qm2 * z, ss * one + qm2 * z),
    ),
)


def suite_podles(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    recs = []
    zeta, eta = podles_zeta_eta()
    for check, anchor, relation in PODLES_RELATIONS:
        element = relation(
            zeta, eta, zeta.pres.one(), operator.mul, NCPoly.star, S * S, Q * Q, Q**-2
        )
        holds, witness = verify_identity(element)
        recs.append(
            _flag(
                "podles",
                f"symbolic {check}",
                holds,
                anchor + " (exact normal form)",
                value=None if holds else str(witness),
            )
        )
    pod = podles_generators(params)
    qq = params.q**2
    u = identity(params.d)
    for leg in (0, 1):
        z = (pod.zeta.t0, pod.zeta.t1)[leg]
        e = (pod.eta.t0, pod.eta.t1)[leg]
        for check, anchor, relation in PODLES_RELATIONS:
            op = relation(
                z, e, u, operator.matmul, TruncOp.adjoint, params.s**2, qq, 1.0 / qq
            )
            res = op.max_abs(guard=0)
            recs.append(_res("podles", f"numeric {check} [leg {leg}]", res, params.tol, anchor))
    s_u = LaurentPoly({1: S})
    recs.append(
        _flag(
            "podles",
            "eta symbol",
            pod.eta.sym0 == s_u and pod.eta.sym1 == s_u,
            "sigma(eta) = s U on both legs",
        )
    )
    recs.append(
        _flag(
            "podles",
            "zeta symbol",
            pod.zeta.sym0.is_zero() and pod.zeta.sym1.is_zero(),
            "sigma(zeta) = 0 on both legs",
        )
    )
    w = polar_part(pod.eta)
    sh = shift(params.d)
    for leg in (0, 1):
        op = (w.t0, w.t1)[leg]
        recs.append(
            _res(
                "podles",
                f"polar part [leg {leg}]",
                trusted_diff_norm(op, sh, guard=1),
                1e-10,
                "polar part of eta is the unilateral shift on the trusted block",
            )
        )
    return recs


# -- circle Hopf structure -----------------------------------------------------------


def _random_exact(cls, rng: random.Random, draw_key, n_terms: int = 3):
    """An exact LaurentPoly or BiLaurent: n_terms monomials at draw_key()
    with small rational coefficients."""
    terms = {}
    for _ in range(n_terms):
        key = draw_key()
        _accumulate(terms, key, Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)))
    return cls(terms)


def suite_hopf(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    recs = []
    span = min(max(nmax, 1), 10)

    def exponent():
        return rng.randint(-span, span)

    counit_ok = antipode_ok = coassoc_ok = morphism_ok = True
    for _ in range(25):
        f = _random_exact(LaurentPoly, rng, exponent)
        g = _random_exact(LaurentPoly, rng, exponent)
        cf = hopf_coproduct(f)
        if cf.collapse(0) != f or cf.collapse(1) != f:
            counit_ok = False
        # coassociativity reduces to the coproduct support lying on the diagonal
        if any(m != n for (m, n) in cf.terms):
            coassoc_ok = False
        left = pointwise_product(cf.map_keys(lambda k: (-k[0], k[1])))
        right = pointwise_product(cf.map_keys(lambda k: (k[0], -k[1])))
        eps = LaurentPoly({0: hopf_counit(f)})
        if left != eps or right != eps:
            antipode_ok = False
        if hopf_antipode(hopf_antipode(f)) != f:
            antipode_ok = False
        if hopf_antipode(f * g) != hopf_antipode(f) * hopf_antipode(g):
            morphism_ok = False
        if hopf_counit(f * g) != hopf_counit(f) * hopf_counit(g):
            morphism_ok = False
        if hopf_coproduct(f * g) != hopf_coproduct(f) * hopf_coproduct(g):
            morphism_ok = False
    recs.append(
        _flag("hopf", "counit axiom", counit_ok, "(eps x id) delta = id = (id x eps) delta")
    )
    recs.append(
        _flag(
            "hopf",
            "coassociativity",
            coassoc_ok,
            "(delta x id) delta = (id x delta) delta",
        )
    )
    recs.append(
        _flag(
            "hopf",
            "antipode axiom",
            antipode_ok,
            "m (kappa x id) delta = eps(.) 1 = m (id x kappa) delta; kappa^2 = id",
        )
    )
    recs.append(
        _flag(
            "hopf",
            "morphism properties",
            morphism_ok,
            "delta, eps, kappa respect the product",
        )
    )
    w_ok = phi_ok = True
    for _ in range(25):
        F = _random_exact(BiLaurent, rng, lambda: (exponent(), exponent()))
        if w_inverse(w_map(F)) != F or w_map(w_inverse(F)) != F:
            w_ok = False
        if phi_map(F) != w_map(F):
            phi_ok = False
    recs.append(
        _flag("hopf", "W bijective", w_ok, "W (m, n) -> (m + n, n) inverts exactly")
    )
    recs.append(_flag("hopf", "phi matches W", phi_ok, "phi acts as the gluing map W"))
    return recs


# -- line-bundle idempotents ----------------------------------------------------------


def suite_en_symbolic(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    recs = []
    pres = sphere3_presentation()
    cap = min(nmax, EN_CAP)
    for N in range(-cap, cap + 1):
        X, Y, E = build_en(N)
        pairing = normal_form((Y.transpose() @ X)[0, 0])
        recs.append(
            _flag(
                "en-symbolic",
                f"dual pairing N={N:+d}",
                pairing == pres.one(),
                "Y^T X = 1 exactly",
                value=None if pairing == pres.one() else str(pairing),
            )
        )
        sq = E @ E
        ok = all(
            verify_identity(sq[i, j], E[i, j])[0]
            for i in range(E.shape[0])
            for j in range(E.shape[1])
        )
        recs.append(
            _flag("en-symbolic", f"idempotency N={N:+d}", ok, "E^2 = E entrywise, exactly")
        )
    Xl, Yl, _ = build_en(1, assignment="literal")
    witness = normal_form((Yl.transpose() @ Xl)[0, 0] - pres.one())
    b = pres.gen("b")
    expected = normal_form((Q - P) * (pres.one() - b * b.star()))
    recs.append(
        _flag(
            "en-symbolic",
            "literal weights fail at N=+1",
            witness == expected,
            "uncorrected binomial base leaves Y^T X - 1 = (q - p)(1 - b b*)",
            value=str(witness),
            expected=str(expected),
        )
    )
    return recs


def suite_en_numeric(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    recs = []
    one_sym = LaurentPoly({0: 1})
    cap = min(nmax, EN_CAP)
    for N in range(-cap, cap + 1):
        recs.append(
            _flag(
                "en-numeric",
                f"symbol trace N={N:+d}",
                pairings.entry("en", N).symbol_trace == one_sym,
                "tr sigma(E) = 1 exactly",
            )
        )
        for row in pairings.rows("en", N):
            recs.append(
                _pairing_record(
                    "en-numeric",
                    f"pairing N={N:+d} [{row.module}]",
                    row,
                    f"<[{row.module}], [E_{N}]> = {row.expected}",
                )
            )
    return recs


# -- boundary classes and the index table ---------------------------------------------


def suite_chi(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    recs = []
    d = params.d
    pr = FredholmModule("pr")
    for N in range(-nmax, nmax + 1):
        for row in pairings.rows("chi", N):
            recs.append(
                _pairing_record(
                    "chi",
                    f"pairing N={N:+d} [{row.module}]",
                    row,
                    f"<[{row.module}], [chi_{N}]> = {row.expected}, exactly at finite window",
                )
            )
    # chi(0) is the unit
    result = pairings.entry("chi", 0).results["pr"]
    recs.append(
        _flag(
            "chi",
            "unit class",
            result.rounded == 0 and result.exact,
            "<[pr], [1]> = 0",
            value=result.value,
            expected=0,
        )
    )
    sh = shift(d)
    empty = LaurentPoly({})
    point = FibrePair(zero(d), identity(d) - sh @ sh.adjoint(), empty, empty, 0)
    result = pair(pr, point)
    recs.append(
        _flag(
            "chi",
            "point defect",
            result.rounded == 1 and result.exact,
            "<[pr], [e_00]> = 1 (single boundary mode)",
            value=result.value,
            expected=1,
        )
    )
    one_sym = LaurentPoly({0: 1})
    for N in [k for k in range(-nmax, nmax + 1) if k]:
        if N > 0:
            gen = FibrePair(identity(d), sh**N, one_sym, LaurentPoly({N: 1}), N)
        else:
            gen = FibrePair(identity(d), sh.adjoint() ** (-N), one_sym, LaurentPoly({N: 1}), N)
        img = psi_iso(gen)
        cN = chi(-N, d)
        prod = img @ cN
        res = max((prod.t0 - img.t0).max_abs(), (prod.t1 - img.t1).max_abs())
        recs.append(
            _res(
                "chi",
                f"untwisting lands on chi({-N:+d})",
                res,
                1e-14,
                "psi maps the twist-N generator onto the chi(-N) corner",
            )
        )
        back = psi_inverse(img, N)
        check = f"untwisting round trip N={N:+d}"
        anchor = "psi_inverse . psi = id on the trusted block"
        # the round trip's bandwidth plus the guard can cover a small window
        try:
            res = max(
                trusted_diff_norm(back.t0, gen.t0, guard=abs(N)),
                trusted_diff_norm(back.t1, gen.t1, guard=abs(N)),
            )
        except DimensionMismatch as exc:
            recs.append(_flag("chi", check, False, anchor, value=str(exc)))
        else:
            ok = back.twist == N and back.sym0 == gen.sym0 and back.sym1 == gen.sym1
            recs.append(_res("chi", check, res if ok else 1.0, 1e-12, anchor))
    # window compressions compose exactly while no trajectory can leave and
    # re-enter: exponents of one sign multiply on the whole window, mixed
    # signs clip at the edge rows (in both shift pictures)
    fw = max(2, params.w // 3)
    f = LaurentPoly({1: Fraction(1, 2), fw: Fraction(5, 4)})
    g = LaurentPoly({2: Fraction(-3, 4), 0: 1})
    f2 = LaurentPoly({-1: 1, fw: Fraction(1, 2)})
    g2 = LaurentPoly({1: 1})
    for sign in ("+", "-"):
        same = f"same-sign multiplicative [{sign}]"
        mixed = f"mixed-sign multiplicative [{sign}]"
        law = f"pi{sign}(f g) = pi{sign}(f) pi{sign}(g) on the"
        # f g reaches U^(fw + 2), past the shift window when w <= 3
        try:
            whole = pi_rep(sign, f * g, params)
            factors = pi_rep(sign, f, params) @ pi_rep(sign, g, params)
            whole2 = pi_rep(sign, f2 * g2, params)
            factors2 = pi_rep(sign, f2, params) @ pi_rep(sign, g2, params)
        except WindowOverflow as exc:
            recs.append(_flag("chi", same, False, f"{law} whole window", value=str(exc)))
            recs.append(_flag("chi", mixed, False, f"{law} interior", value=str(exc)))
            continue
        recs.append(_res("chi", same, (whole - factors).max_abs(), 1e-12, f"{law} whole window"))
        res_int = trusted_diff_norm(whole2, factors2, guard=1)
        res_full = (whole2 - factors2).max_abs()
        if res_int <= 1e-12 and res_full > 1e-12:
            recs.append(
                CheckRecord(
                    suite="chi",
                    check=mixed,
                    status=WARN,
                    value=res_full,
                    residual=res_int,
                    anchor=f"{law} interior; window-edge rows clip",
                )
            )
        else:
            recs.append(_res("chi", mixed, res_int, 1e-12, f"{law} interior"))
    return recs


def suite_index(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    return [
        _pairing_record(
            "index",
            f"{row.representative} N={row.N:+d} [{row.module}]",
            row,
            f"<[{row.module}], [{row.representative}_{row.N}]> = "
            f"{row.expected}; {row.interpretation}",
        )
        for row in pairings.index_rows(nmax)
    ]


# -- convergence and stability ---------------------------------------------------------


def suite_convergence(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    recs = []
    pr = FredholmModule("pr")
    for N in (1, 2):
        # the entry bandwidth grows like 4N, so the window must stay ahead of it
        dims = tuple(d for d in (8, 16, 32, 64) if d >= 8 * N)
        residuals = []
        for d in dims:
            pairs = en_numeric(N, replace(params, d=d))
            result = pair(pr, pairs, tail_tol=np.inf)
            residuals.append(result.residual)
        for (d1, r1), (d2, r2) in zip(zip(dims, residuals), zip(dims[1:], residuals[1:])):
            ok = r2 <= r1 / 10.0 + 1e-12
            recs.append(
                CheckRecord(
                    suite="convergence",
                    check=f"pairing residual N={N} d={d1}->{d2}",
                    status=PASS if ok else FAIL,
                    value=r2,
                    expected=f"<= {r1 / 10.0:.3e} + 1e-12",
                    residual=r2,
                    anchor="pairing residual shrinks 10x per doubling until the float floor",
                )
            )
    pres = disc_presentation("q")
    z = pres.gen("z")
    x = z * z.star() * z + z.star()
    small = evaluate(x, disc_assignment(pres, replace(params, d=32)), params)
    big = evaluate(x, disc_assignment(pres, replace(params, d=64)), params)
    block = small.trusted_block()
    keep = len(block)
    stable = bool(np.array_equal(block, big.trusted_block()[:keep, :keep]))
    recs.append(
        _flag(
            "convergence",
            "truncation stability",
            stable,
            "trusted block is bitwise stable under window growth d -> 2d",
        )
    )
    r32 = pair(pr, chi(3, 32))
    r64 = pair(pr, chi(3, 64))
    recs.append(
        _flag(
            "convergence",
            "pairing stability in d",
            r32.value == r64.value and r32.exact and r64.exact,
            "<[pr], [chi_3]> does not move with the window",
            value=r64.value,
            expected=r32.value,
        )
    )
    # a shift window 4 wider than the run's, or 4 narrower at the cap
    step = 4 if params.w + 4 <= WINDOW_MAX else -4
    pi_other = FredholmModule("pi", params=replace(params, w=params.w + step))
    rs = pairings.entry("chi", 2).results["pi"]
    rl = pair(pi_other, chi(2, params.d))
    recs.append(
        _flag(
            "convergence",
            "pairing stability in w",
            rs.value == rl.value and rs.exact and rl.exact,
            "<[pi], [chi_2]> does not move with the shift window",
            value=rl.value,
            expected=rs.value,
        )
    )
    return recs


def suite_confluence(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> list[CheckRecord]:
    recs = []
    for name, pres in all_presentations().items():
        bad = confluence_sample(pres, n_words=50, max_len=8, rng=rng)
        recs.append(
            _flag(
                "confluence",
                f"random order agreement [{name}]",
                bad == 0,
                "randomized reduction order reproduces the deterministic normal form",
                value=bad,
                expected=0,
            )
        )
        ok = True
        for _ in range(10):
            x = _random_element(pres, rng, n_words=2, max_len=5)
            y = _random_element(pres, rng, n_words=2, max_len=5)
            nf = normal_form(x * y)
            if normal_form(normal_form(x) * normal_form(y)) != nf:
                ok = False
            if normal_form(nf) != nf:
                ok = False
            if normal_form(x.star()) != normal_form(normal_form(x).star()):
                ok = False
        recs.append(
            _flag(
                "confluence",
                f"reduction is a homomorphism [{name}]",
                ok,
                "NF(x y) = NF(NF(x) NF(y)), NF idempotent, NF commutes with star",
            )
        )
    return recs


# -- registry ---------------------------------------------------------------------


SUITES = {
    "disc": suite_disc,
    "s3": suite_s3,
    "s2": suite_s2,
    "su2": suite_su2,
    "podles": suite_podles,
    "hopf": suite_hopf,
    "en-symbolic": suite_en_symbolic,
    "en-numeric": suite_en_numeric,
    "chi": suite_chi,
    "index": suite_index,
    "convergence": suite_convergence,
    "confluence": suite_confluence,
}


def run_suites(
    names, params: ParamSet, nmax: int, seed: int = 0
) -> list[CheckRecord]:
    """Run the named suites in registry order with per-suite seeded rngs and
    one pairing table, shared by the suites of this run and dropped with it."""
    selected = [n for n in SUITES if n in set(names)]
    unknown = sorted(set(names) - set(SUITES))
    if unknown:
        raise KeyError(f"unknown suite names: {unknown}")
    pairings = PairingTable(params)
    records = []
    for name in selected:
        rng = random.Random(f"{seed}:{name}")
        records.extend(SUITES[name](params, nmax, rng, pairings))
    return records
