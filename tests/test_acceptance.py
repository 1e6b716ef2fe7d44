"""Acceptance battery.

Each test prints one verdict line of the form

    [criterion N] <statement>: PASS|FAIL (details)

and then asserts, so the printed record survives regardless of how pytest
is invoked. Tolerances here are part of the package contract; do not relax
them to make a failing build green.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from qglue import (
    BiLaurent,
    FredholmModule,
    LaurentPoly,
    P,
    ParamSet,
    Q,
    S,
    all_presentations,
    build_en,
    chi,
    disc_presentation,
    disc_assignment,
    en_numeric,
    evaluate,
    hopf_antipode,
    hopf_coproduct,
    hopf_counit,
    identity,
    iota_kron_assignment,
    kron_interior,
    normal_form,
    pair,
    podles_generators,
    podles_zeta_eta,
    s2_leg_assignment,
    s3_leg_assignment,
    sphere2_presentation,
    sphere3_presentation,
    verify_identity,
    w_inverse,
    w_map,
)


def _verdict(n: int, statement: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {n}] {statement}: {tag}{suffix}")
    return ok


# -- criterion 1: chi pairings are exact integers ---------------------------------


def test_criterion_1_chi_pairings():
    params = ParamSet(d=64, w=8)
    pr = FredholmModule("pr")
    pi = FredholmModule("pi", params=replace(params, w=8))
    start = time.monotonic()
    ok = True
    count = 0
    for N in range(-5, 6):
        cN = chi(N, 64)
        winding = pair(pr, cN)
        rank = pair(pi, cN)
        count += 2
        if not (winding.rounded == N and winding.residual == 0.0 and winding.exact):
            ok = False
        if not (rank.rounded == 1 and rank.residual == 0.0 and rank.exact):
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    assert _verdict(
        1,
        "chi pairings: winding N and rank 1, residual exactly 0, |N| <= 5, d=64, w=8",
        ok,
        f"{count} pairings in {elapsed:.2f}s",
    )


# -- criterion 2: numeric bundle pairings converge to -N ---------------------------


def test_criterion_2_en_pairings_converge():
    params = ParamSet(q=0.5, p=0.5)
    pr = FredholmModule("pr")
    ok = True
    worst64 = 0.0
    for N in range(-3, 4):
        values = {}
        for d in (64, 128):
            pairs = en_numeric(N, replace(params, d=d))
            values[d] = pair(pr, pairs).value
        r64 = abs(values[64] - (-N))
        r128 = abs(values[128] - (-N))
        worst64 = max(worst64, r64)
        if r64 >= 1e-6:
            ok = False
        if not (r128 <= r64 / 10 or (r64 < 1e-12 and r128 < 1e-12)):
            ok = False
    assert _verdict(
        2,
        "degree-N bundle pairs to -N at q=p=0.5: |value + N| < 1e-6 at d=64 "
        "and improves at d=128",
        ok,
        f"worst d=64 residual {worst64:.2e}",
    )


# -- criterion 3: symbolic idempotents are exact ------------------------------------


def test_criterion_3_symbolic_idempotents():
    pres = sphere3_presentation()
    one = pres.one()
    ok = True
    for N in range(-3, 4):
        X, Y, E = build_en(N)
        if normal_form((Y.transpose() @ X)[0, 0]) != one:
            ok = False
        EE = E @ E
        rows, cols = E.shape
        for i in range(rows):
            for j in range(cols):
                if not verify_identity(EE[i, j], E[i, j])[0]:
                    ok = False
    b, bstar = pres.gen("b"), pres.gen("b*")
    Xl, Yl, _ = build_en(1, assignment="literal")
    witness = normal_form((Yl.transpose() @ Xl)[0, 0] - one)
    if witness != normal_form((Q - P) * (one - b * bstar)):
        ok = False
    assert _verdict(
        3,
        "Y^T X = 1 and E^2 = E exactly for |N| <= 3; literal base swap leaves "
        "the (q - p)(1 - b b*) witness",
        ok,
    )


# -- criterion 4: numeric representations satisfy the relations ---------------------


def _word_matrix(letters, mats, word, dim):
    out = np.eye(dim, dtype=np.complex128)
    for i in word:
        out = out @ mats[letters[i]]
    return out


def _rule_residual(pres, rule, mats, prm, region):
    dim = next(iter(mats.values())).shape[0]
    diff = _word_matrix(pres.letters, mats, rule.redex, dim)
    for word, coef in rule.rhs:
        diff = diff - coef.evaluate(prm.q, prm.p, prm.s) * _word_matrix(
            pres.letters, mats, word, dim
        )
    return float(np.max(np.abs(diff[region])))


def test_criterion_4_numeric_relation_residuals():
    grid = [
        ParamSet(q=q, p=p, s=s, d=64, w=8)
        for q in (0.4, 0.6)
        for p in (0.4, 0.6)
        for s in (0.3, 1.0)
    ]
    tol = 1e-10
    d = 64
    inner = np.s_[: d - 10, : d - 10]
    worst = 0.0
    ok = True
    for prm in grid:
        for which in ("q", "p", "q2"):
            pres = disc_presentation(which)
            mats = {k: op.mat for k, op in disc_assignment(pres, replace(prm, d=d)).items()}
            for rule in pres.rules:
                worst = max(worst, _rule_residual(pres, rule, mats, prm, inner))
        pres3 = sphere3_presentation()
        for leg in (0, 1):
            mats = {k: op.mat for k, op in s3_leg_assignment(leg, replace(prm, d=d)).items()}
            for rule in pres3.rules:
                worst = max(worst, _rule_residual(pres3, rule, mats, prm, inner))
        pres2 = sphere2_presentation()
        for leg in (0, 1):
            mats = {k: op.mat for k, op in s2_leg_assignment(leg, replace(prm, d=d)).items()}
            for rule in pres2.rules:
                worst = max(worst, _rule_residual(pres2, rule, mats, prm, inner))
        # doubled picture on the tensor window, interior only
        kd, kw = 16, 5
        idx = kron_interior(kd, kw, 3, 2)
        kregion = np.ix_(idx, idx)
        for leg in (0, 1):
            mats = {k: op.mat for k, op in iota_kron_assignment(leg, replace(prm, d=kd, w=kw)).items()}
            for rule in pres3.rules:
                worst = max(worst, _rule_residual(pres3, rule, mats, prm, kregion))
        # spectral family legs
        pod = podles_generators(replace(prm, d=d))
        qq, ss = prm.q**2, prm.s**2
        eye = np.eye(d)
        for z_op, e_op in (
            (pod.zeta.t0.mat, pod.eta.t0.mat),
            (pod.zeta.t1.mat, pod.eta.t1.mat),
        ):
            checks = [
                z_op @ e_op - qq * (e_op @ z_op),
                z_op.conj().T - z_op,
                e_op.conj().T @ e_op - (eye - z_op) @ (ss * eye + z_op),
                e_op @ e_op.conj().T
                - (eye - z_op / qq) @ (ss * eye + z_op / qq),
            ]
            for mat in checks:
                worst = max(worst, float(np.max(np.abs(mat[inner]))))
    ok = worst < tol
    assert _verdict(
        4,
        "all numeric relation residuals < 1e-10 at d=64 across the "
        "(q, p) x s grid",
        ok,
        f"worst residual {worst:.2e} over {len(grid)} parameter points",
    )


# -- criterion 5: the spectral family relations hold exactly -------------------------


def test_criterion_5_podles_symbolic():
    zeta, eta = podles_zeta_eta()
    pres = zeta.pres
    one = pres.one()
    s2 = (S * S) * one
    qm2 = Q**-2
    relations = [
        zeta * eta - (Q * Q) * (eta * zeta),
        zeta.star() - zeta,
        eta.star() * eta - (one - zeta) * (s2 + zeta),
        eta * eta.star() - (one - qm2 * zeta) * (s2 + qm2 * zeta),
    ]
    ok = True
    for rel in relations:
        holds, witness = verify_identity(rel)
        if not holds:
            ok = False
    assert _verdict(
        5,
        "zeta/eta family relations reduce to 0 in the exact coefficient ring",
        ok,
        "4 relations",
    )


# -- criterion 6: winding product identity -------------------------------------------


def test_criterion_6_winding_product_identity():
    params = ParamSet()
    d = 64
    pres = disc_presentation("q")
    ops = disc_assignment(pres, replace(params, d=d))
    z = ops["z"]
    t = identity(d) - z @ z.adjoint()
    ok = True
    worst = 0.0
    for N in range(1, 6):
        lhs = (z.adjoint() ** N) @ (z**N)
        rhs = identity(d)
        for k in range(1, N + 1):
            rhs = rhs @ (identity(d) - (params.q**k) * t)
        m = d - 2 * N - 2
        res = float(np.max(np.abs((lhs - rhs).mat[:m, :m])))
        worst = max(worst, res)
        if res >= 1e-12:
            ok = False
    assert _verdict(
        6,
        "z*^N z^N = prod_{k=1..N} (1 - q^k (1 - z z*)) on the trusted block, N <= 5",
        ok,
        f"worst residual {worst:.2e}",
    )


# -- criterion 7: property battery ----------------------------------------------------


def _random_word_text(pres, rng, max_len):
    n = rng.randint(1, max_len)
    return " ".join(rng.choice(pres.letters) for _ in range(n))


def test_criterion_7_property_battery():
    rng = random.Random(123)
    failures = []

    # confluence: 1000 random words, deterministic vs randomized reduction
    presets = all_presentations()
    assert len(presets) == 5
    bad = 0
    for pres in presets.values():
        for _ in range(200):
            x = pres.element({_random_word_text(pres, rng, 5): 1})
            if normal_form(x) != normal_form(x, rng=rng):
                bad += 1
    if bad:
        failures.append(f"confluence: {bad}/1000 words disagree")

    # Hopf axioms on the circle, |N| <= 10 plus random elements
    one_sym = LaurentPoly({0: 1})
    for N in range(-10, 11):
        f = LaurentPoly({N: 1})
        if hopf_counit(f) != Fraction(1):
            failures.append(f"counit(U^{N}) != 1")
        if hopf_antipode(f) * f != one_sym:
            failures.append(f"antipode axiom fails at U^{N}")
        cop = hopf_coproduct(f)
        if cop.collapse(0) != f or cop.collapse(1) != f:
            failures.append(f"counit axiom fails at U^{N}")
    for _ in range(25):
        f = LaurentPoly(
            {rng.randint(-10, 10): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             for _ in range(3)}
        )
        g = LaurentPoly(
            {rng.randint(-10, 10): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             for _ in range(3)}
        )
        if hopf_coproduct(f * g) != hopf_coproduct(f) * hopf_coproduct(g):
            failures.append("coproduct is not multiplicative")
        if hopf_counit(f * g) != hopf_counit(f) * hopf_counit(g):
            failures.append("counit is not multiplicative")
        if hopf_antipode(hopf_antipode(f)) != f:
            failures.append("antipode is not involutive")

    # the torus twist is a bijection
    for _ in range(100):
        x = BiLaurent(
            {
                (rng.randint(-6, 6), rng.randint(-6, 6)): Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
                for _ in range(4)
            }
        )
        if w_inverse(w_map(x)) != x or w_map(w_inverse(x)) != x:
            failures.append("torus twist fails to invert")
            break

    # truncation stability: exact agreement of the (d) and (2d) windows
    params = ParamSet()
    pres = disc_presentation("q")
    zsym = pres.gen("z")
    elem = zsym * zsym.star() * zsym * zsym + zsym.star() * zsym - 3 * zsym
    small = evaluate(elem, disc_assignment(pres, replace(params, d=48)), params)
    big = evaluate(elem, disc_assignment(pres, replace(params, d=96)), params)
    keep = 48 - small.bandwidth
    if not np.array_equal(small.mat[:keep, :keep], big.mat[:keep, :keep]):
        failures.append("truncation windows disagree bitwise on the stable block")

    ok = not failures
    assert _verdict(
        7,
        "property battery: confluence x1000, Hopf axioms |N| <= 10, torus twist "
        "bijective x100, window stability at (d, 2d)",
        ok,
        "; ".join(failures) if failures else "all properties hold",
    ), failures
