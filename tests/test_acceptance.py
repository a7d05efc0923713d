"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantity at the criterion's stated tolerance."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_convex_gridfn
from convexdesk.atoms import FnAtom, sample
from convexdesk.fenchel import (
    biconjugate,
    conjugate,
    conjugate_oracle,
    fenchel_duality_gap,
    inf_convolution,
    infconv_dual_check,
)
from convexdesk.grids import Grid, GridFn
from convexdesk.monotone import OperatorGraph, fitzpatrick, surjectivity_probe, yosida
from convexdesk.moreau import moreau_decomposition_residual, moreau_envelope, prox
from convexdesk.renorm import asplund_step, init_pair, measured_ratio
from convexdesk.special import (
    _coupon_derivatives,
    ball_volume,
    beta_direct,
    coupon_convexity_probe,
    coupon_pn_ie,
    coupon_pn_integral,
    coupon_pn_perm,
    gamma_limit,
    lambert_w,
)


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:2d}: PASS ({detail})")


def test_criterion_01_norm_power_conjugates():
    t0 = time.perf_counter()
    grid = Grid.line(-5, 5, 2001)
    dual = Grid.line(-3, 3, 1201)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        res = conjugate(sample(FnAtom("power", (p,)), grid), dual)
        ys = dual.coords(0)
        # truncation semantics: compare only where the sup is attained
        # strictly inside the grid (all of [-3,3] for p in {2,3})
        interior = (res.argmax > 0) & (res.argmax < grid.shape[0] - 1)
        if p in (2.0, 3.0):
            assert interior.all()
        err = float(np.max(np.abs(res.dual.values[interior] - np.abs(ys[interior]) ** q / q)))
        assert err <= 1e-3, f"p={p}: {err}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"max err {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_exp_and_expexp_conjugates():
    f = sample(FnAtom("exp"), Grid.line(-10, 3, 2001))
    dual = Grid.line(0.1, 5.0, 981)
    res = conjugate(f, dual)
    ys = dual.coords(0)
    err = float(np.max(np.abs(res.dual.values - (ys * np.log(ys) - ys))))
    assert err <= 1e-3

    fee = sample(FnAtom("expexp"), Grid.line(-6, 1.5, 4001))
    ce = conjugate(fee, Grid.line(0.25, 2.25, 801))
    yse = ce.dual.grid.coords(0)
    worst = 0.0
    for y in (0.5, 1.0, 2.0):
        i = int(np.argmin(np.abs(yse - y)))
        w = lambert_w(yse[i], tol=1e-12)  # Newton-iteration oracle, in-repo
        assert abs(w * math.exp(w) - yse[i]) <= 1e-12 * max(1.0, yse[i])
        ref = yse[i] * (math.log(yse[i]) - w - 1.0 / w)
        worst = max(worst, abs(ce.dual.values[i] - ref))
    assert worst <= 1e-3
    _report(2, f"exp err {err:.2e}, expexp err {worst:.2e}")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 65))
        g = Grid.line(-3.0, 2.0, n)
        kind = trial % 3
        if kind == 0:
            vals = rng.normal(size=n) * 5
        elif kind == 1:
            vals = rng.integers(-5, 6, size=n).astype(float)
        else:
            vals = rng.normal(size=n)
            vals[rng.random(n) < 0.3] = np.inf
            if not np.isfinite(vals).any():
                vals[0] = 0.0
        f = GridFn(g, vals)
        dg = Grid.line(-4.0, 4.0, m)
        a = conjugate(f, dg)
        b = conjugate_oracle(f, dg)
        assert np.array_equal(a.dual.values, b.dual.values)
        assert np.array_equal(a.argmax, b.argmax)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, f"200/200 bit-identical, {elapsed:.2f} s")


CONVEX_ATOM_GRIDS = [
    (FnAtom("abs"), Grid.line(-2, 2, 801), Grid.line(-2, 2, 801)),
    (FnAtom("indicator", (-1.0, 1.0)), Grid.line(-2, 2, 801), Grid.line(-30, 30, 2001)),
    (FnAtom("support", (-1.0, 1.0)), Grid.line(-2, 2, 801), Grid.line(-2, 2, 801)),
    (FnAtom("distance", (-1.0, 1.0)), Grid.line(-3, 3, 801), Grid.line(-2, 2, 801)),
    (FnAtom("power", (1.5,)), Grid.line(-2, 2, 801), Grid.line(-1.6, 1.6, 8001)),
    (FnAtom("power", (2.0,)), Grid.line(-2, 2, 801), Grid.line(-2.2, 2.2, 4001)),
    (FnAtom("power", (3.0,)), Grid.line(-2, 2, 801), Grid.line(-4.2, 4.2, 60001)),
    (FnAtom("exp"), Grid.line(-2, 2.5, 801), Grid.line(0.1, 12.5, 40001)),
    (FnAtom("xlogx"), Grid.line(0.0, 3.0, 601), Grid.line(-16, 1.2, 20001)),
    (FnAtom("negsqrt_circle"), Grid.line(-1, 1, 801), Grid.line(-30, 30, 40001)),
    (FnAtom("hypot1"), Grid.line(-2, 2, 801), Grid.line(-0.95, 0.95, 4001)),
    (FnAtom("quad", (1.5, 0.5)), Grid.line(-2, 3, 801), Grid.line(-4, 4, 8001)),
]


def test_criterion_04_biconjugate_fixpoint_and_strictness():
    worst = 0.0
    assert len(CONVEX_ATOM_GRIDS) >= 10
    for atom, grid, dual in CONVEX_ATOM_GRIDS:
        f = sample(atom, grid)
        bc = biconjugate(f, dual)
        fin = np.isfinite(f.values)
        err = float(np.max(np.abs(bc.values[fin] - f.values[fin])))
        assert err <= 1e-6, f"{atom.tag}{atom.params}: {err}"
        assert np.all(bc.values <= np.where(fin, f.values, np.inf) + 1e-10)
        worst = max(worst, err)

    rng = np.random.default_rng(7)
    gaps = []
    for _ in range(10):
        g = Grid.line(-2, 2, int(rng.integers(21, 101)))
        f = GridFn(g, rng.normal(size=g.shape[0]))
        bc = biconjugate(f, Grid.line(-40, 40, 4001))
        gap = float(np.max(f.values - bc.values))
        assert gap > 1e-6  # strictly below somewhere: not convex
        gaps.append(gap)
    _report(4, f"convex max err {worst:.2e}; nonconvex min hull gap {min(gaps):.2e}")


def test_criterion_05_figure_infconvolution():
    grid = Grid.line(-2, 2, 4001)
    f = sample(FnAtom("negsqrt_circle"), grid)
    g = sample(FnAtom("abs"), grid)
    res = inf_convolution(f, g)
    xs = grid.coords(0)
    s2 = math.sqrt(2.0)
    ref = np.where(np.abs(xs) <= s2 / 2, -np.sqrt(np.maximum(0.0, 1 - xs ** 2)),
                   np.abs(xs) - s2)
    err = float(np.max(np.abs(res.out.values - ref)))
    assert err <= 2e-3

    # independent brute-force oracle (plain loops)
    i0 = grid.zero_index(0)
    idx = np.arange(0, 4001, 97)
    worst = 0.0
    for k in idx:
        best = np.inf
        for j in range(4001):
            i = k - j + i0
            if 0 <= i < 4001:
                v = f.values[j] + g.values[i]
                if v < best:
                    best = v
        worst = max(worst, abs(best - res.out.values[k]))
    assert worst <= 1e-12
    _report(5, f"formula err {err:.2e}, oracle agreement {worst:.1e}")


def test_criterion_06_infconv_dual_identity():
    rng = np.random.default_rng(11)
    grid = Grid.line(-6, 6, 601)
    dual = Grid.line(-1, 1, 201)
    worst = 0.0
    for _ in range(20):
        f = random_convex_gridfn(rng, grid, slope_scale=1.0)
        g = random_convex_gridfn(rng, grid, slope_scale=1.0)
        d = infconv_dual_check(f, g, dual)
        assert d <= 1e-3
        worst = max(worst, d)
    _report(6, f"20 random convex pairs, max discrepancy {worst:.2e}")


def test_criterion_07_moreau_decomposition():
    grid = Grid.line(-4, 4, 801)
    h = grid.spacing[0]
    rng = np.random.default_rng(3)
    worst = 0.0
    for atom in (FnAtom("indicator", (-1.0, 1.0)), FnAtom("abs"), FnAtom("power", (2.0,))):
        f = sample(atom, grid)
        for x in rng.uniform(-2.5, 2.5, 50):
            r = moreau_decomposition_residual(f, x)
            assert r <= 2 * h
            worst = max(worst, r)
    _report(7, f"150 queries, worst residual {worst:.2e} <= 2h = {2 * h:.2e}")


def test_criterion_08_huber_envelope():
    f = sample(FnAtom("abs"), Grid.line(-3, 3, 601))
    env = moreau_envelope(f, 1.0)
    xs = f.grid.coords(0)
    huber = np.where(np.abs(xs) <= 1.0, xs ** 2 / 2, np.abs(xs) - 0.5)
    err = float(np.max(np.abs(env.values - huber)))
    assert err <= 1e-6
    # per-node brute-force oracle
    brute = np.array([np.min(f.values + (x - xs) ** 2 / 2) for x in xs])
    assert np.all(env.values <= brute + 1e-15)
    _report(8, f"max deviation from closed Huber form {err:.2e}")


FNE_ATOMS = [
    (FnAtom("abs"), Grid.line(-6, 6, 2401), 3.0),
    (FnAtom("power", (2.0,)), Grid.line(-6, 6, 2401), 3.0),
    (FnAtom("indicator", (-1.0, 1.0)), Grid.line(-6, 6, 2401), 3.0),
    (FnAtom("exp"), Grid.line(-6, 2, 1601), 1.8),
    (FnAtom("power", (1.5,)), Grid.line(-6, 6, 2401), 3.0),
    (FnAtom("distance", (-1.0, 1.0)), Grid.line(-6, 6, 2401), 3.0),
]


def test_criterion_09_firm_nonexpansivity():
    rng = np.random.default_rng(99)
    worst = -np.inf
    fns = [(sample(a, g), span) for a, g, span in FNE_ATOMS]
    for k in range(1000):
        f, span = fns[k % len(fns)]
        z1, z2 = rng.uniform(-span, span, 2)
        p1 = prox(f, 1.0, z1, check_convexity=False).point[0]
        p2 = prox(f, 1.0, z2, check_convexity=False).point[0]
        d = p1 - p2
        slack = d * d - d * (z1 - z2)
        assert slack <= 1e-8
        worst = max(worst, slack)
    _report(9, f"1000 triples, worst ||dP||^2 - <dP,dz> = {worst:.2e}")


def test_criterion_10_yosida_envelope_gradient():
    worst = 0.0
    for atom in (FnAtom("abs"), FnAtom("power", (2.0,))):
        f = sample(atom, Grid.line(-3, 3, 121))
        h = f.grid.spacing[0]
        env = moreau_envelope(f, 1.0)
        xs = f.grid.coords(0)
        for i in range(1, xs.size - 1):
            cd = (env.values[i + 1] - env.values[i - 1]) / (2 * h)
            yo = yosida(f, 1.0, xs[i], check_convexity=False)[0]
            dev = abs(yo - cd)
            assert dev <= 10 * h * h + 1e-8
            worst = max(worst, dev)
    _report(10, f"max |A_l - grad e_l| = {worst:.2e} <= 10h^2+1e-8 = {10 * h * h + 1e-8:.2e}")


SURJ_ATOMS = [
    (FnAtom("abs"), Grid.line(-6, 6, 4001)),
    (FnAtom("power", (2.0,)), Grid.line(-6, 6, 16001)),
    (FnAtom("indicator", (-1.0, 1.0)), Grid.line(-6, 6, 4001)),
    (FnAtom("power", (3.0,)), Grid.line(-4, 4, 16001)),
    (FnAtom("exp"), Grid.line(-8, 4, 8001)),
    (FnAtom("distance", (-1.0, 1.0)), Grid.line(-6, 6, 4001)),
]


def test_criterion_11_minty_surjectivity_probe():
    worst = 0.0
    for atom, grid in SURJ_ATOMS:
        f = sample(atom, grid)
        targets = np.linspace(-3, 3, 100)
        rep = surjectivity_probe(f, targets, eps_tol=1e-6)
        assert rep.all_certified, f"{atom.tag}: max eps {max(rep.residuals)}"
        worst = max(worst, max(rep.residuals))
    _report(11, f"{len(SURJ_ATOMS)}x100 targets certified, worst eps {worst:.2e}")


def test_criterion_12_fitzpatrick():
    # 200 graph points each for identity and subdifferential-of-abs graphs
    xs = np.linspace(-2, 2, 401)[:, None]
    ident = OperatorGraph(xs, xs)
    worst_eq = 0.0
    for i in range(0, 400, 2):
        F = float(fitzpatrick(ident, (xs[i], xs[i])).value)
        worst_eq = max(worst_eq, abs(F - float(xs[i, 0] * xs[i, 0])))
    sx = np.linspace(-2, 2, 161)
    sx = sx[sx != 0]
    gx = np.concatenate([sx, np.zeros(41)])
    gs = np.concatenate([np.sign(sx), np.linspace(-1, 1, 41)])
    gabs = OperatorGraph(gx[:, None], gs[:, None])
    for i in range(gx.size):
        F = float(fitzpatrick(gabs, (gx[i], gs[i])).value)
        worst_eq = max(worst_eq, abs(F - gx[i] * gs[i]))
    assert worst_eq <= 1e-8

    h = 4 / 400
    rng = np.random.default_rng(5)
    worst_dev = 0.0
    n = 0
    while n < 200:
        x, s = rng.uniform(-1, 1, 2)
        if abs(x - s) < 0.05:
            continue  # genuinely off-graph queries only
        n += 1
        F = float(fitzpatrick(ident, (x, s)).value)
        assert F - x * s >= 0.0
        dev = abs(F - (x + s) ** 2 / 4)
        assert dev <= h * h
        worst_dev = max(worst_dev, dev)
    _report(12, f"graph equality err {worst_eq:.1e}; off-graph closed-form dev {worst_dev:.1e}")


def test_criterion_13_asplund_sandwich():
    t0 = time.perf_counter()
    grid = Grid.box((-4, 4, 321), (-4, 4, 321))
    h = grid.spacing[0]
    pair = init_pair(FnAtom("l1norm"), FnAtom("l2norm"), grid)
    assert abs(pair.C - 1.0) <= 1e-12
    rs = []
    for _ in range(6):
        pair = asplund_step(pair)
        r = measured_ratio(pair)
        assert r <= 4.0 ** (-pair.n) * pair.C + 10 * h
        rs.append(r)
    assert rs[-1] <= 3e-4 + 10 * h
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(13, f"r_6 = {rs[-1]:.2e}, {elapsed:.1f} s")


def test_criterion_13_each_step_is_the_inf_convolution_at_twice_x():
    # q_{n+1}(x) = (p_n box q_n)(2x) / 2, checked against the direct
    # inf-convolution wherever 2x is a node: a step that only contracts the
    # sandwich, such as q' = (p + 3q) / 4, passes criterion 13 but not this
    grid = Grid.box((-2, 2, 41), (-2, 2, 41))
    i0 = grid.zero_index(0)
    half = np.arange(i0 // 2, i0 + i0 // 2 + 1)  # the nodes x with 2x a node: |x| <= 1
    twice = np.ix_(2 * half - i0, 2 * half - i0)
    pair = init_pair(FnAtom("l1norm"), FnAtom("l2norm"), grid)
    worst = 0.0
    for _ in range(4):
        conv = inf_convolution(pair.p, pair.q).out.values[twice] / 2.0
        pair = asplund_step(pair)
        got = pair.q.values[np.ix_(half, half)]
        assert np.array_equal(np.isinf(got), np.isinf(conv))
        fin = np.isfinite(conv)
        dev = float(np.max(np.abs(got[fin] - conv[fin])))
        assert dev <= 1e-12, f"step {pair.n}: {dev}"
        worst = max(worst, dev)
    _report(13, f"q_(n+1) = (p_n box q_n)(2x)/2 over 4 steps, worst {worst:.1e}")


@pytest.mark.parametrize("norms", [("l1norm", "l2norm"), ("l2norm", "l1norm"),
                                   ("linfnorm", "l2norm"), ("l1norm", "linfnorm")])
def test_criterion_13_ratio_is_within_the_contracted_bound_on_the_lattice(norms):
    # r_n <= 4^-n C up to rounding: the 10 h slack of the sandwich check is
    # 1 at this spacing, so it would pass a step that contracts too little,
    # such as the inf-convolution halved by 2.2 instead of 2
    grid = Grid.box((-4, 4, 81), (-4, 4, 81))
    pair = init_pair(FnAtom(norms[0]), FnAtom(norms[1]), grid)
    for _ in range(5):
        pair = asplund_step(pair)
        r = measured_ratio(pair)
        assert r <= 4.0 ** (-pair.n) * pair.C + 1e-12, f"step {pair.n}: r = {r}"


def test_criterion_14_gamma_limit():
    import mpmath

    mpmath.mp.dps = 30
    oracle = float(mpmath.sqrt(mpmath.pi))
    assert abs(oracle - 1.77245385090552) <= 5e-15  # 15-digit reference
    got = gamma_limit(0.5, 10 ** 6)
    assert abs(got - oracle) <= 1e-5
    worst = 0.0
    for x in (0.5, 1.5, 2.5):
        ratio = gamma_limit(x + 1.0, 10 ** 6) / gamma_limit(x, 10 ** 6)
        dev = abs(ratio - x)
        assert dev <= 1e-4
        worst = max(worst, dev)
    _report(14, f"|partial - sqrt(pi)| = {abs(got - oracle):.2e}; ratio dev {worst:.1e}")


def test_criterion_15_ball_volumes_and_beta():
    assert abs(ball_volume(2, 2.0) - math.pi) <= 1e-12
    assert abs(ball_volume(3, 1.0) - 4.0 / 3.0) <= 1e-12
    assert ball_volume(5, math.inf) == 32.0
    worst = 0.0
    for x, y in ((1.0, 1.0), (1.5, 2.0), (2.0, 3.0), (2.5, 1.5), (3.0, 4.0)):
        dev = abs(beta_direct(x, y) * math.gamma(x + y) - math.gamma(x) * math.gamma(y))
        assert dev <= 1e-8
        worst = max(worst, dev)
    _report(15, f"V2(2), V3(1), V5(inf) exact; beta identity dev {worst:.1e}")


def test_criterion_16_coupon_forms_and_probe():
    rng = np.random.default_rng(123)
    for n in range(1, 7):
        for _ in range(50):
            x = tuple(
                Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 8)))
                for _ in range(n)
            )
            assert coupon_pn_perm(x) == coupon_pn_ie(x)
    worst_int = 0.0
    for n in range(1, 7):
        for _ in range(20):
            x = tuple(float(v) for v in 10.0 ** rng.uniform(-0.7, 0.7, n))
            dev = abs(coupon_pn_integral(x) - float(coupon_pn_ie(x)))
            assert dev <= 1e-8
            worst_int = max(worst_int, dev)

    min_eig = np.inf
    max_inv = -np.inf
    for n in (2, 3, 4, 5):
        rep = coupon_convexity_probe(n, trials=1000, seed=42)
        assert rep.min_hessian_eig >= -1e-5
        assert rep.max_inv_hessian_eig <= 1e-5
        min_eig = min(min_eig, rep.min_hessian_eig)
        max_inv = max(max_inv, rep.max_inv_hessian_eig)
    _report(
        16,
        f"perm=ie exact (300 pts); integral dev {worst_int:.1e}; "
        f"min eig {min_eig:.1e}, max 1/p eig {max_inv:.1e}",
    )


def test_criterion_16_inverse_coupon_is_strictly_concave_across_rays():
    """1/p_N is homogeneous of degree 1, so x is a null vector of its
    Hessian and the top eigenvalue is 0 up to rounding.  Across rays, on
    x-perp, the top eigenvalue must be negative by more than rounding."""
    eps = np.finfo(float).eps
    for n in (2, 3, 4, 5):
        X = 10.0 ** np.random.default_rng(42).uniform(-1, 1, size=(1000, n))
        H = _coupon_derivatives(X)[2][1]
        # Q of [x, e_1, ..., e_(n-1)]: its columns 1.. are a basis of x-perp
        E = np.broadcast_to(np.eye(n)[:, : n - 1], (len(X), n, n - 1))
        B = np.linalg.qr(np.concatenate([X[:, :, None], E], axis=2))[0][:, :, 1:]
        top = np.linalg.eigvalsh(np.swapaxes(B, 1, 2) @ H @ B)[:, -1]
        norm = np.abs(np.linalg.eigvalsh(H)).max(axis=1)
        assert np.all(top < -1e3 * eps * norm), n


def test_criterion_17_weak_duality():
    rng = np.random.default_rng(42)
    min_gap = np.inf
    for _ in range(100):
        a, b = rng.uniform(0.3, 3, 2)
        s, t = rng.uniform(-1.5, 1.5, 2)
        f = sample(FnAtom("quad", (a, s)), Grid.line(-8, 8, 901))
        g = sample(FnAtom("quad", (b, t)), Grid.line(-12, 12, 1201))
        T = [[float(rng.uniform(-1.4, 1.4))]]
        r = fenchel_duality_gap(f, g, T, Grid.line(-12, 12, 1201), Grid.line(-12, 12, 1201))
        gap = float(r.gap)
        assert gap >= -1e-9
        min_gap = min(min_gap, gap)

    max_gap = -np.inf
    for _ in range(20):
        a, b = rng.uniform(0.5, 2, 2)
        s, t = rng.uniform(-1, 1, 2)
        f = sample(FnAtom("quad", (a, s)), Grid.line(-6, 6, 2401))
        g = sample(FnAtom("quad", (b, t)), Grid.line(-6, 6, 2401))
        r = fenchel_duality_gap(f, g, [[1.0]], Grid.line(-8, 8, 3201), Grid.line(-8, 8, 3201))
        gap = float(r.gap)
        assert gap <= 1e-3  # continuity constraint qualification holds
        max_gap = max(max_gap, gap)
    _report(17, f"min gap {min_gap:.1e} >= -1e-9; CQ max gap {max_gap:.1e} <= 1e-3")
