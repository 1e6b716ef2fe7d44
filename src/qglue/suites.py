"""Named verification suites.

A suite is a generator function (params, nmax, rng, pairings) that yields
its checks as (check name, anchor, compute) triples. SUITES registers it
under a stable name as a function (params, nmax, rng, pairings) ->
list[CheckRecord] that hands each check to run_check, the one place a
record is built and a check's failure is caught: a check that cannot be
carried out at the given parameters becomes a fail record, so a suite never
raises for one. A compute takes its operands when it is yielded, so the
runner collects a suite's checks and then runs them.

run_suites seeds one rng per suite from (seed, suite name), so a subset run
reproduces exactly the records the full run would have produced for those
suites. The chi, en-numeric, index and convergence suites read the chi(N)
and E_N pairings at every window from the run's one PairingTable, so each
is computed once per run whichever of them ask for it.
"""

from __future__ import annotations

import operator
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .circle import (
    BiLaurent,
    LaurentPoly,
    hopf_antipode,
    hopf_coproduct,
    hopf_counit,
    pointwise_product,
    w_inverse,
    w_map,
)
from .coefficients import CoefPoly, ONE, P, Q, S, _accumulate
from .errors import attempt
from .glue import (
    FibrePair,
    chi,
    iota,
    iota_kron_assignment,
    kron_interior,
    leg_bilaurent,
    podles_generators,
    polar_part,
    psi_inverse,
    psi_iso,
    s2_leg_assignment,
    s3_leg_assignment,
)
from .idempotents import build_en, en_degrees
from .kpair import (
    FredholmModule,
    IndexRow,
    PairingResult,
    PairingTable,
    classify,
    pair,
    winding_interpretation,
)
from .ncpoly import NCPoly
from .opnum import (
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
from .params import SUITE_NAMES, WINDOW_MAX, ParamSet
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

# -- the check runner -------------------------------------------------------------


class Outcome(NamedTuple):
    """What a check computes: its verdict (True to pass, False to fail, or a
    report status) and its value, expected and residual cells. A note is
    appended to the check's anchor."""

    verdict: bool | str
    value: object = None
    expected: object = None
    residual: float | None = None
    note: str = ""


# what a suite yields: (check name, anchor, compute)
Checks = Iterator[tuple[str, str, Callable[[], Outcome]]]


def run_check(suite, check, anchor, compute) -> CheckRecord:
    """Run one check and build its record. compute() returns the check's
    Outcome. A QGlueError it raises means the check could not be carried
    out at these parameters: it becomes a fail record with the reason as
    its value and empty expected and residual cells. Any other exception
    propagates."""
    outcome, error = attempt(compute)
    if error is not None:
        outcome = Outcome(False, str(error))
    verdict, value, expected, residual, note = outcome
    if not isinstance(verdict, str):
        verdict = PASS if verdict else FAIL
    return CheckRecord(suite, check, verdict, value, expected, residual, anchor + note)


def _within(residual, tol) -> Outcome:
    """A residual against its bound."""
    return Outcome(residual <= tol, residual=float(residual))


def _identity(lhs, rhs=None) -> Outcome:
    """lhs = rhs (or lhs = 0) exactly; a failure keeps the normal form of
    the difference as its value."""
    holds, witness = verify_identity(lhs, rhs)
    return Outcome(holds, None if holds else str(witness))


def _completes(compute, *args) -> Outcome:
    """Passes when compute(*args) returns; a QGlueError it raises fails the
    check with the reason as its value."""
    compute(*args)
    return Outcome(True)


def _shown(result: PairingResult):
    """A pairing's report cell: its failure if it has one, else its value."""
    return result.value if result.failure is None else result.failure


def _pairing(row: IndexRow) -> Outcome:
    """A pairing as the run's table classified it; a failed one has no residual."""
    residual = row.result.residual if row.result.failure is None else None
    return Outcome(row.status, _shown(row.result), row.expected, residual)


def _relations(check, pres, residual, tol, note="") -> Checks:
    """One check per rule of pres: residual(rule element) against tol."""
    for rule in pres.rules:
        yield (
            check,
            pres.rule_text(rule) + note,
            lambda rule=rule: _within(residual(pres.rule_element(rule)), tol),
        )


def _window_residual(ops, params: ParamSet):
    """The largest entry of an element evaluated on truncated operators."""
    return lambda x: evaluate(x, ops, params).max_abs(guard=0)


def _random_word(pres, rng: random.Random, max_len: int) -> tuple[int, ...]:
    n = rng.randint(1, max_len)
    return tuple(rng.randrange(len(pres.letters)) for _ in range(n))


def _random_element(pres, rng: random.Random, max_len: int) -> NCPoly:
    """A sum of two random words with small rational coefficients."""
    terms = {}
    for _ in range(2):
        coef = CoefPoly.scalar(Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3)))
        _accumulate(terms, _random_word(pres, rng, max_len), coef)
    return NCPoly(pres, terms)


def confluence_sample(pres, rng: random.Random) -> int:
    """Reduce 50 random words of length at most 8 with the deterministic
    strategy and the fully randomized one; return the number of
    disagreements (0 when the rule system is confluent)."""
    bad = 0
    for _ in range(50):
        x = NCPoly(pres, {_random_word(pres, rng, 8): ONE})
        det = normal_form(x)
        rnd = normal_form(x, rng=rng)
        if det != rnd:
            bad += 1
    return bad


# -- disc -------------------------------------------------------------------------


def suite_disc(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> Checks:
    def defect_diagonal(z, t):
        res = (identity(params.d) - z @ z.adjoint() - diag_op(t)).max_abs(guard=0)
        return _within(res, params.tol)

    # product identity behind the winding count, N up to 5
    def power_product(z, base, t, N):
        lhs = (z.adjoint() ** N) @ (z**N)
        v = np.ones(params.d)
        for k in range(1, N + 1):
            v = v * (1.0 - base**k * t)
        return _within((lhs - diag_op(v)).max_abs(guard=0), 1e-12)

    for which, (letter, _) in DISC_FLAVOURS.items():
        pres = disc_presentation(which)
        base = disc_base(letter, params)
        ops = disc_assignment(pres, params)
        yield from _relations(
            f"relation [{which}]", pres, _window_residual(ops, params), params.tol
        )
        z = ops[letter]
        t = base ** np.arange(params.d)
        yield (
            f"defect diagonal [{which}]",
            f"1 - {letter} {letter}* = diag(base^n)",
            partial(defect_diagonal, z, t),
        )
        for N in range(1, min(nmax, 5) + 1):
            yield (
                f"power product [{which}] N={N}",
                f"{letter}*^N {letter}^N = prod_k=1..N (1 - base^k (1 - {letter} {letter}*))",
                partial(power_product, z, base, t, N),
            )


# -- glued pair of discs ------------------------------------------------------------


def suite_s3(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> Checks:
    pres = sphere3_presentation()
    for leg in (0, 1):
        ops = s3_leg_assignment(leg, params)
        yield from _relations(
            f"relation [leg {leg}]", pres, _window_residual(ops, params), params.tol
        )
    # honest tensor picture: same relations on kron operators, interior only
    tensor = replace(params, d=24, w=6)
    interior = kron_interior(tensor.d, tensor.w, 5, 5)
    for leg in (0, 1):
        ops = iota_kron_assignment(leg, tensor)
        yield from _relations(
            f"kron relation [leg {leg}]",
            pres,
            lambda x, ops=ops: evaluate(x, ops, params).max_abs_on(interior),
            params.tol,
            " (tensor interior)",
        )
    # iota builds each degree as a fibre pair, whose membership rule is the
    # twisted compatibility of the two legs; a gluing that breaks it raises
    small = replace(params, d=8)
    for trial in range(5):
        x = _random_element(pres, rng, max_len=4)
        yield (
            f"leg compatibility [{trial}]",
            "W (sigma x id) leg0 = (sigma x id) leg1 on the doubled picture",
            partial(_completes, iota, x, small),
        )


# -- quotient sphere ----------------------------------------------------------------


def suite_s2(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> Checks:
    pres = sphere2_presentation()
    for leg in (0, 1):
        ops = s2_leg_assignment(leg, params)
        yield from _relations(
            f"relation [leg {leg}]", pres, _window_residual(ops, params), params.tol
        )


# -- quantum SU(2) ------------------------------------------------------------------


def suite_su2(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> Checks:
    pres = su2_presentation()
    yield (
        "presentation valid",
        "rules are graded and star-closed",
        lambda: _completes(pres.validate),
    )
    a, d, b, c = (pres.gen(n) for n in ("a", "d", "b", "c"))
    yield (
        "commutator identity",
        "a d - d a = (q - q^-1) b c",
        lambda: _identity(a * d - d * a, (Q - Q**-1) * b * c),
    )
    yield (
        "star antihomomorphism",
        "(b c)* = c* b*",
        lambda: _identity((b * c).star(), c.star() * b.star()),
    )
    zeta, eta = podles_zeta_eta()
    yield "zeta degree", "deg zeta = 0", lambda: Outcome(degree(zeta) == 0)
    yield "eta degree", "deg eta = -2", lambda: Outcome(degree(eta) == -2)


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
) -> Checks:
    def symbolic(relation):
        one = zeta.pres.one()
        return _identity(relation(zeta, eta, one, operator.mul, NCPoly.star, S * S, Q * Q, Q**-2))

    def numeric(relation, z, e):
        op = relation(z, e, u, operator.matmul, TruncOp.adjoint, params.s**2, qq, 1.0 / qq)
        return _within(op.max_abs(guard=0), params.tol)

    def polar(leg):
        w = polar_part(pod.eta)
        return _within(trusted_diff_norm((w.t0, w.t1)[leg], shift(params.d), guard=1), 1e-10)

    zeta, eta = podles_zeta_eta()
    for check, anchor, relation in PODLES_RELATIONS:
        yield f"symbolic {check}", anchor + " (exact normal form)", partial(symbolic, relation)
    pod = podles_generators(params)
    qq = params.q**2
    u = identity(params.d)
    for leg in (0, 1):
        z = (pod.zeta.t0, pod.zeta.t1)[leg]
        e = (pod.eta.t0, pod.eta.t1)[leg]
        for check, anchor, relation in PODLES_RELATIONS:
            yield f"numeric {check} [leg {leg}]", anchor, partial(numeric, relation, z, e)
    s_u = LaurentPoly({1: S})
    yield (
        "eta symbol",
        "sigma(eta) = s U on both legs",
        lambda: Outcome(pod.eta.sym0 == s_u and pod.eta.sym1 == s_u),
    )
    yield "zeta symbol", "sigma(zeta) = 0 on both legs", lambda: Outcome(pod.zeta.symbols_zero())
    for leg in (0, 1):
        yield (
            f"polar part [leg {leg}]",
            "polar part of eta is the unilateral shift on the trusted block",
            partial(polar, leg),
        )


# -- circle Hopf structure -----------------------------------------------------------


def _random_exact(cls, rng: random.Random, draw_key):
    """An exact LaurentPoly or BiLaurent: three monomials at draw_key()
    with small rational coefficients."""
    terms = {}
    for _ in range(3):
        key = draw_key()
        _accumulate(terms, key, Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)))
    return cls(terms)


def suite_hopf(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> Checks:
    span = min(max(nmax, 1), 10)

    def exponent():
        return rng.randint(-span, span)

    pairs = [
        (_random_exact(LaurentPoly, rng, exponent), _random_exact(LaurentPoly, rng, exponent))
        for _ in range(25)
    ]
    tori = [_random_exact(BiLaurent, rng, lambda: (exponent(), exponent())) for _ in range(25)]

    def counit(f, g):
        cf = hopf_coproduct(f)
        return cf.collapse(0) == f and cf.collapse(1) == f

    # coassociativity reduces to the coproduct support lying on the diagonal
    def coassociative(f, g):
        return all(m == n for m, n in hopf_coproduct(f).terms)

    def antipode(f, g):
        cf = hopf_coproduct(f)
        eps = LaurentPoly({0: hopf_counit(f)})
        left = pointwise_product(cf.map_keys(lambda k: (-k[0], k[1])))
        right = pointwise_product(cf.map_keys(lambda k: (k[0], -k[1])))
        return left == eps and right == eps and hopf_antipode(hopf_antipode(f)) == f

    def morphism(f, g):
        fg = f * g
        maps = (hopf_antipode, hopf_counit, hopf_coproduct)
        return all(hopf_map(fg) == hopf_map(f) * hopf_map(g) for hopf_map in maps)

    def w_bijective():
        return Outcome(all(w_inverse(w_map(F)) == F and w_map(w_inverse(F)) == F for F in tori))

    # the gluing map twists leg 0's symbol into leg 1's: W takes
    # (sigma x id) of leg 0 to (sigma x id) of leg 1 on the doubled picture
    def phi_matches_w():
        pres, small = sphere3_presentation(), replace(params, d=8)
        glued = [iota(_random_element(pres, rng, max_len=4), small) for _ in range(5)]
        return Outcome(all(w_map(leg_bilaurent(e, 0)) == leg_bilaurent(e, 1) for e in glued))

    # each law of the pairs (f, g) is one check, over all 25 pairs
    for check, anchor, law in (
        ("counit axiom", "(eps x id) delta = id = (id x eps) delta", counit),
        ("coassociativity", "(delta x id) delta = (id x delta) delta", coassociative),
        (
            "antipode axiom",
            "m (kappa x id) delta = eps(.) 1 = m (id x kappa) delta; kappa^2 = id",
            antipode,
        ),
        ("morphism properties", "delta, eps, kappa respect the product", morphism),
    ):
        yield check, anchor, lambda law=law: Outcome(all(law(f, g) for f, g in pairs))
    yield "W bijective", "W (m, n) -> (m + n, n) inverts exactly", w_bijective
    yield "phi matches W", "phi acts as the gluing map W", phi_matches_w


# -- line-bundle idempotents ----------------------------------------------------------


def suite_en_symbolic(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> Checks:
    pres = sphere3_presentation()

    def dual_pairing(pairing):
        reduced = pairing()
        holds = reduced == pres.one()
        return Outcome(holds, None if holds else str(reduced))

    def idempotency(X, Y, E, pairing):
        """E^2 = E, checked through E = X Y^T and one 1x1 reduction.

        In the matrix algebra over the free algebra, associativity gives

            E E - E = X (Y^T X) Y^T - X Y^T = X (Y^T X - 1) Y^T

        whenever E = X Y^T. So the check compares E with X Y^T entrywise in
        the free algebra, with no reduction, and reduces Y^T X - 1: a zero
        normal form puts Y^T X - 1 in the relation ideal I (every rewrite
        step subtracts an element of I), hence E E - E in M(I), the
        statement the reduction of the raw square proves. A nonzero normal
        form of Y^T X - 1 leaves E^2 = E unproven on this route, and the
        row fails; it is a conclusive fail only for a confluent rule
        system."""
        holds = (X @ Y.transpose()).entries == E.entries
        return Outcome(holds and pairing() == pres.one())

    def literal_weights():
        Xl, Yl, _ = build_en(1, assignment="literal")
        witness = normal_form((Yl.transpose() @ Xl)[0, 0] - pres.one())
        b = pres.gen("b")
        expected = normal_form((Q - P) * (pres.one() - b * b.star()))
        return Outcome(witness == expected, str(witness), str(expected))

    for N in en_degrees(nmax):
        X, Y, E = build_en(N)
        # Y^T X is reduced once per degree, and both checks read it
        pairing = cache(partial(normal_form, (Y.transpose() @ X)[0, 0]))
        yield f"dual pairing N={N:+d}", "Y^T X = 1 exactly", partial(dual_pairing, pairing)
        yield (
            f"idempotency N={N:+d}",
            "E^2 = E entrywise, exactly",
            partial(idempotency, X, Y, E, pairing),
        )
    yield (
        "literal weights fail at N=+1",
        "uncorrected binomial base leaves Y^T X - 1 = (q - p)(1 - b b*)",
        literal_weights,
    )


def suite_en_numeric(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> Checks:
    one_sym = LaurentPoly({0: 1})
    for N in en_degrees(nmax):
        yield (
            f"symbol trace N={N:+d}",
            "tr sigma(E) = 1 exactly",
            lambda N=N: Outcome(pairings.entry("en", N).symbol_trace == one_sym),
        )
        for row in pairings.rows("en", N):
            yield (
                f"pairing N={N:+d} [{row.module}]",
                f"<[{row.module}], [E_{N}]> = {row.expected}",
                partial(_pairing, row),
            )


# -- boundary classes and the index table ---------------------------------------------


def suite_chi(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> Checks:
    d = params.d
    pr = FredholmModule("pr")
    for N in range(-nmax, nmax + 1):
        for row in pairings.rows("chi", N):
            yield (
                f"pairing N={N:+d} [{row.module}]",
                f"<[{row.module}], [chi_{N}]> = {row.expected}, exactly at finite window",
                partial(_pairing, row),
            )
    # chi(0) is the unit: its pr row, shown without a residual
    unit = pairings.rows("chi", 0)[0]
    yield (
        "unit class",
        "<[pr], [1]> = 0",
        lambda: Outcome(unit.status, unit.result.value, unit.expected),
    )
    sh = shift(d)
    point = FibrePair(zero(d), identity(d) - sh @ sh.adjoint(), LaurentPoly({}), 0)

    def point_defect():
        result = pair(pr, point)
        return Outcome(classify(result, "chi", 1), result.value, 1)

    yield "point defect", "<[pr], [e_00]> = 1 (single boundary mode)", point_defect

    def lands(img, N):
        prod = img @ chi(-N, d)
        return _within(max((prod.t0 - img.t0).max_abs(), (prod.t1 - img.t1).max_abs()), 1e-14)

    def round_trip(img, gen, N):
        back = psi_inverse(img, N)
        res = max(trusted_diff_norm(back.t0, gen.t0), trusted_diff_norm(back.t1, gen.t1))
        ok = back.twist == N and back.sym0 == gen.sym0
        return _within(res if ok else 1.0, 1e-12)

    for N in [k for k in range(-nmax, nmax + 1) if k]:
        leg1 = sh**N if N > 0 else sh.adjoint() ** (-N)
        gen = FibrePair(identity(d), leg1, LaurentPoly({0: 1}), N)
        img = psi_iso(gen)
        yield (
            f"untwisting lands on chi({-N:+d})",
            "psi maps the twist-N generator onto the chi(-N) corner",
            partial(lands, img, N),
        )
        yield (
            f"untwisting round trip N={N:+d}",
            "psi_inverse . psi = id on the trusted block",
            partial(round_trip, img, gen, N),
        )
    # window compressions compose exactly while no trajectory can leave and
    # re-enter: exponents of one sign multiply on the whole window, mixed
    # signs clip at the edge rows (in both shift pictures)
    fw = max(2, params.w // 3)
    f = LaurentPoly({1: Fraction(1, 2), fw: Fraction(5, 4)})
    g = LaurentPoly({2: Fraction(-3, 4), 0: 1})
    f2 = LaurentPoly({-1: 1, fw: Fraction(1, 2)})
    g2 = LaurentPoly({1: 1})

    # rep is one shift picture's pi_rep at the run's window
    def same_sign(rep):
        return _within((rep(f * g) - rep(f) @ rep(g)).max_abs(), 1e-12)

    def mixed(rep):
        whole, factors = rep(f2 * g2), rep(f2) @ rep(g2)
        res_int = trusted_diff_norm(whole, factors, guard=1)
        res_full = (whole - factors).max_abs()
        if res_int <= 1e-12 and res_full > 1e-12:
            return Outcome(WARN, res_full, residual=res_int, note="; window-edge rows clip")
        return _within(res_int, 1e-12)

    for sign in ("+", "-"):
        rep = partial(pi_rep, sign, params=params)
        law = f"pi{sign}(f g) = pi{sign}(f) pi{sign}(g) on the"
        # f g reaches U^(fw + 2), past the shift window when w <= 3
        yield (
            f"same-sign multiplicative [{sign}]",
            f"{law} whole window",
            partial(same_sign, rep),
        )
        yield f"mixed-sign multiplicative [{sign}]", f"{law} interior", partial(mixed, rep)


def suite_index(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> Checks:
    chi_keys = [("chi", N) for N in range(-nmax, nmax + 1)]
    for representative, N in chi_keys + [("en", N) for N in en_degrees(nmax)]:
        for row in pairings.rows(representative, N):
            yield (
                f"{representative} N={N:+d} [{row.module}]",
                f"<[{row.module}], [{representative}_{N}]> = {row.expected}; "
                f"{winding_interpretation(representative, row.module, N)}",
                partial(_pairing, row),
            )


# -- convergence and stability ---------------------------------------------------------


def suite_convergence(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> Checks:
    def read(representative, N, kind, **window):
        return pairings.entry(representative, N, replace(params, **window)).results[kind]

    # a residual is read whether or not the trace tail passed the table's
    # tolerance; a pairing that could not be computed fails the row
    def shrinks(N, d1, d2):
        p1, p2 = read("en", N, "pr", d=d1), read("en", N, "pr", d=d2)
        for result in (p1, p2):
            if result.residual is None:
                return Outcome(False, result.failure)
        r1, r2 = p1.residual, p2.residual
        return Outcome(r2 <= r1 / 10.0 + 1e-12, r2, f"<= {r1 / 10.0:.3e} + 1e-12", r2)

    for N in (1, 2):
        # the entry bandwidth grows like 4N, so the window must stay ahead of it
        dims = tuple(d for d in (8, 16, 32, 64) if d >= 8 * N)
        for d1, d2 in zip(dims, dims[1:]):
            yield (
                f"pairing residual N={N} d={d1}->{d2}",
                "pairing residual shrinks 10x per doubling until the float floor",
                partial(shrinks, N, d1, d2),
            )

    def truncation_stability():
        pres = disc_presentation("q")
        z = pres.gen("z")
        x = z * z.star() * z + z.star()
        small = evaluate(x, disc_assignment(pres, replace(params, d=32)), params)
        big = evaluate(x, disc_assignment(pres, replace(params, d=64)), params)
        return Outcome(trusted_diff_norm(small, big) == 0.0)

    # one class paired at two windows: the same exact value at both
    def stable(moved, kept):
        ok = moved.value == kept.value and moved.exact and kept.exact
        return Outcome(ok, _shown(moved), _shown(kept))

    # a shift window 4 wider than the run's, or 4 narrower at the cap
    step = 4 if params.w + 4 <= WINDOW_MAX else -4

    yield (
        "truncation stability",
        "trusted block is bitwise stable under window growth d -> 2d",
        truncation_stability,
    )
    yield (
        "pairing stability in d",
        "<[pr], [chi_3]> does not move with the window",
        lambda: stable(read("chi", 3, "pr", d=64), read("chi", 3, "pr", d=32)),
    )
    yield (
        "pairing stability in w",
        "<[pi], [chi_2]> does not move with the shift window",
        lambda: stable(read("chi", 2, "pi", w=params.w + step), read("chi", 2, "pi")),
    )


def suite_confluence(
    params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable
) -> Checks:
    def agreement(pres):
        bad = confluence_sample(pres, rng)
        return Outcome(bad == 0, bad, 0)

    def homomorphism(pres):
        ok = True
        for _ in range(10):
            x = _random_element(pres, rng, max_len=5)
            y = _random_element(pres, rng, max_len=5)
            nf, nf_x = normal_form(x * y), normal_form(x)
            if normal_form(nf_x * normal_form(y)) != nf:
                ok = False
            if normal_form(nf) != nf:
                ok = False
            if normal_form(x.star()) != normal_form(nf_x.star()):
                ok = False
        return Outcome(ok)

    for name, pres in all_presentations().items():
        yield (
            f"random order agreement [{name}]",
            "randomized reduction order reproduces the deterministic normal form",
            partial(agreement, pres),
        )
        yield (
            f"reduction is a homomorphism [{name}]",
            "NF(x y) = NF(NF(x) NF(y)), NF idempotent, NF commutes with star",
            partial(homomorphism, pres),
        )


# -- registry ---------------------------------------------------------------------


def _recorded(suite: str, checks: Callable[..., Checks]):
    """The suite as SUITES registers it: a function that collects the
    checks the suite yields, runs each through run_check in yield order and
    returns the records, so one call of a SUITES entry is one whole suite."""

    def run(params: ParamSet, nmax: int, rng: random.Random, pairings: PairingTable):
        collected = list(checks(params, nmax, rng, pairings))
        return [run_check(suite, *check) for check in collected]

    return run


# registered under params.SUITE_NAMES, in that order
SUITES = {
    name: _recorded(name, checks)
    for name, checks in zip(
        SUITE_NAMES,
        (
            suite_disc,
            suite_s3,
            suite_s2,
            suite_su2,
            suite_podles,
            suite_hopf,
            suite_en_symbolic,
            suite_en_numeric,
            suite_chi,
            suite_index,
            suite_convergence,
            suite_confluence,
        ),
        strict=True,
    )
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
