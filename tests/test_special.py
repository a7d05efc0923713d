import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_coupon_perm, fd_hessian
from convexdesk import special
from convexdesk.errors import AccuracyError, ParameterError
from convexdesk.special import (
    _coupon_derivatives,
    _perm_table,
    ball_volume,
    beta_direct,
    coupon_convexity_probe,
    coupon_pn_ie,
    coupon_pn_integral,
    coupon_pn_perm,
    gamma_limit,
    lambert_w,
    log_concavity_check,
)


def test_lambert_w_residuals():
    for y in (1e-4, 0.5, 1.0, 2.0, 10.0, 1e4):
        w = lambert_w(y)
        assert abs(w * math.exp(w) - y) <= 1e-12 * max(1.0, y)
    with pytest.raises(ParameterError):
        lambert_w(0.0)


def test_gamma_limit_at_one_is_exact_partial_product():
    # n! n / (1 * 2 * ... * (n+1)) = n / (n+1)
    for n in (1, 10, 1000):
        assert gamma_limit(1.0, n) == pytest.approx(n / (n + 1), rel=1e-12)


def test_gamma_limit_half_reaches_sqrt_pi():
    assert abs(gamma_limit(0.5, 10 ** 6) - math.sqrt(math.pi)) <= 1e-5


def test_gamma_limit_three_reaches_two():
    assert abs(gamma_limit(3.0, 10 ** 6) - 2.0) <= 1e-4


def test_gamma_limit_monotone_in_n():
    vals = [gamma_limit(0.7, n) for n in (10, 100, 1000, 10000)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= math.gamma(0.7)


def test_gamma_recursion_ratio():
    n = 10 ** 6
    for x in (0.5, 1.5, 2.5):
        ratio = gamma_limit(x + 1.0, n) / gamma_limit(x, n)
        assert abs(ratio - x) <= 1e-4


def test_gamma_limit_domain():
    with pytest.raises(ParameterError):
        gamma_limit(-1.0, 10)
    with pytest.raises(ParameterError):
        gamma_limit(1.0, 0)


@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_gamma_limit_refuses_a_non_finite_x(x):
    # x = inf gave NaN, and `gamma --x inf` wrote it into its report
    with pytest.raises(ParameterError, match="finite x > 0"):
        gamma_limit(x, 3)


def test_gamma_limit_overflow_is_inf():
    # this ended in an OverflowError traceback from math.exp (`gamma --x 1000 --n 3`)
    assert gamma_limit(1000.0, 3) == math.inf and gamma_limit(1e300, 3) == math.inf
    assert gamma_limit(1e300, 1) == 0.0


def test_ball_volumes_golden():
    assert abs(ball_volume(2, 2.0) - math.pi) <= 1e-12
    assert abs(ball_volume(3, 1.0) - 4.0 / 3.0) <= 1e-12
    assert ball_volume(5, math.inf) == 32.0
    with pytest.raises(ParameterError):
        ball_volume(2, 0.5)


def test_beta_identity():
    for x, y in ((1.0, 1.0), (1.5, 2.0), (2.0, 3.0), (2.5, 1.5), (3.0, 4.0)):
        lhs = beta_direct(x, y) * math.gamma(x + y)
        rhs = math.gamma(x) * math.gamma(y)
        assert abs(lhs - rhs) <= 1e-8


# smooth integrands, singular endpoints and a narrow interior peak
@pytest.mark.parametrize("x, y", [(1.0, 1.0), (1.5, 2.0), (2.0, 3.0), (2.5, 1.5), (3.0, 4.0),
                                  (0.5, 0.5), (0.1, 3.0), (3.0, 0.1), (50.0, 60.0)])
def test_beta_direct_matches_its_closed_form(x, y):
    want = math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
    assert abs(beta_direct(x, y) - want) <= 1e-12 * want


def test_beta_direct_refuses_what_it_cannot_certify():
    # mass past the last node at t = exp(-pi sinh 6), which at (0.03, 1) only
    # the tail estimate sees (the value is 5e-9 off), and a value below the
    # normal float range
    for x, y in ((0.01, 0.02), (1e-3, 1e3), (0.03, 1.0), (800.0, 800.0)):
        with pytest.raises(AccuracyError):
            beta_direct(x, y)
    for x, y in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ParameterError):
            beta_direct(x, y)


LOG_UNIFORM = st.floats(-2.0, 3.5).map(lambda e: 10.0 ** e)  # 0.01 to about 3162


@settings(max_examples=150, deadline=None)
@given(x=LOG_UNIFORM, y=LOG_UNIFORM)
def test_beta_direct_is_certified_or_refused(x, y):
    import mpmath

    try:
        got = beta_direct(x, y)
    except AccuracyError:
        return
    with mpmath.workdps(40):
        want = float(mpmath.beta(x, y))
    assert abs(got - want) <= 1e-9 * want


def test_log_concavity_strict_and_degenerate():
    r = log_concavity_check(2.0, 1.5, 3.0, 0.5)
    assert r.holds and not r.degenerate
    d = log_concavity_check(2.0, 2.0, 2.0, 0.5)
    assert d.degenerate and d.lhs == pytest.approx(d.rhs, rel=1e-12)


def test_log_concavity_conjugate_exponents():
    # alpha = n with 1/p + 1/q = 1 and lambda = 1/2: the p-norm bound direction
    for n in (2, 3, 4):
        for p in (1.5, 3.0):
            q = p / (p - 1)
            r = log_concavity_check(float(n), p, q, 0.5)
            assert r.holds


def test_coupon_golden_values():
    assert coupon_pn_perm((Fraction(2),)) == Fraction(1, 2)
    assert coupon_pn_ie((Fraction(1),)) == Fraction(1)
    assert coupon_pn_perm((Fraction(1), Fraction(1))) == Fraction(3, 2)
    assert coupon_pn_ie((Fraction(1), Fraction(1), Fraction(1))) == Fraction(11, 6)


def test_coupon_perm_equals_ie_exact(rng):
    for n in range(1, 7):
        for _ in range(8):
            x = tuple(
                Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 7)))
                for _ in range(n)
            )
            assert coupon_pn_perm(x) == coupon_pn_ie(x)


# magnitudes from 1e-300 to 1e300, values of one scale (whose products and
# sums round at every step), and values whose tails, reciprocals or sums
# over the orderings overflow to inf or nan
COUPON_FLOATS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=0.1, max_value=10.0),
    st.sampled_from([5e-324, 1e-310, 1.0, 1.7e308, 1.79e308]),
)


@settings(max_examples=120, deadline=None)
@given(x=st.integers(1, 8).flatmap(lambda n: st.lists(COUPON_FLOATS, min_size=n, max_size=n)))
@example(x=[1.7e308] * 8)  # the tails overflow: inf / inf
@example(x=[5e-324, 1e-310, 3.0])  # 1 / 5e-324 overflows
@example(x=[1e-300] * 8)  # the sum over the orderings overflows
def test_coupon_perm_float_is_the_loop_bit_for_bit(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = coupon_pn_perm(x)
    want = brute_coupon_perm(x)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_perm_table_is_cached_and_read_only():
    t = _perm_table(5)
    assert t is _perm_table(5)
    assert t.shape == (120, 5) and t.tolist() == [list(p) for p in permutations(range(5))]
    with pytest.raises(ValueError):
        t[0, 0] = 1


def test_coupon_integral_agrees(rng):
    for n in range(1, 9):
        for _ in range(4):
            x = tuple(float(v) for v in 10.0 ** rng.uniform(-0.7, 0.7, n))
            assert abs(coupon_pn_integral(x) - float(coupon_pn_ie(x))) <= 1e-8


def test_coupon_integral_single_is_reciprocal():
    assert abs(coupon_pn_integral((1.0,)) - 1.0) <= 1e-10
    assert abs(coupon_pn_integral((4.0,)) - 0.25) <= 1e-10


# rates past the float range, values near 1e300 and 1e-300, twelve decades
# of rates, and the largest N
@pytest.mark.parametrize("x", [(5e-324, 1.0), (1e300, 1e300), (1e-300, 1e300),
                               tuple(10.0 ** np.arange(-6, 7)), (0.1,) * 24],
                         ids=["subnormal", "1e300", "1e-300,1e300", "decades", "N24"])
def test_coupon_integral_matches_ie_at_the_float_edges(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = coupon_pn_integral(x)
    want = float(coupon_pn_ie(x))
    if math.isinf(want):
        assert got == want == math.inf
    else:
        assert abs(got - want) <= 1e-12 * want


@settings(max_examples=150, deadline=None)
@given(x=st.integers(1, 8).flatmap(lambda n: st.lists(COUPON_FLOATS, min_size=n, max_size=n)))
@example(x=[1.79e308] * 3)  # p_N below the normal range
@example(x=[1.0, 3.99168061906944e292, 5e-324])  # the float ie form gives nan here
def test_coupon_integral_is_certified_on_every_input(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = coupon_pn_integral(x)
    exact = coupon_pn_ie([Fraction(v) for v in x])
    if got == math.inf:
        assert exact > Fraction(sys.float_info.max)
    else:
        assert abs(Fraction(got) - exact) <= Fraction(1e-9) * exact


def test_coupon_symmetric_and_decreasing(rng):
    x = (0.7, 1.3, 2.9)
    perms = [(0.7, 1.3, 2.9), (2.9, 0.7, 1.3), (1.3, 2.9, 0.7)]
    vals = {float(coupon_pn_ie(p)) for p in perms}
    assert max(vals) - min(vals) <= 1e-12
    base = float(coupon_pn_ie(x))
    for i in range(3):
        xp = list(x)
        xp[i] += 1e-4
        bumped = float(coupon_pn_ie(tuple(xp)))
        assert bumped <= base  # decreasing in each coordinate


def test_coupon_validation():
    with pytest.raises(ParameterError):
        coupon_pn_perm(tuple(range(1, 11)))  # N > 8
    with pytest.raises(ParameterError):
        coupon_pn_ie((1.0, -2.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="finite"):
            coupon_pn_ie((1.0, bad))


def test_coupon_convexity_probe_small():
    rep = coupon_convexity_probe(2, trials=50, seed=11)
    assert rep.min_hessian_eig >= -1e-6  # p_2 is analytically convex
    assert rep.max_inv_hessian_eig <= 1e-6  # 1/p_2 concave
    assert rep.min_log_hessian_eig >= -1e-6  # informational log-convexity probe


def test_coupon_probe_closed_form_point():
    # at x = (1,1): p_2 = 3/2 so 1/p_2 = 2/3; the Hessian of 1/p_2 stays NSD
    rep = coupon_convexity_probe(2, trials=5, seed=1)
    assert float(coupon_pn_ie((1.0, 1.0))) == pytest.approx(1.5, abs=1e-12)
    assert 1.0 / float(coupon_pn_ie((1.0, 1.0))) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep.n == 2 and rep.trials == 5


def test_coupon_probe_refuses_trials_below_one():
    for trials in (0, -3):
        with pytest.raises(ParameterError, match="trials >= 1"):
            coupon_convexity_probe(2, trials=trials, seed=1)


def test_coupon_probe_points_are_the_per_trial_draws():
    # N = 10 runs its 250 trials in three chunks
    for n, trials in ((3, 50), (10, 250)):
        rep = coupon_convexity_probe(n, trials=trials, seed=7)
        rng = np.random.default_rng(7)
        X = np.array([10.0 ** rng.uniform(-1.0, 1.0, size=n) for _ in range(trials)])
        eig = np.array([np.linalg.eigvalsh(_coupon_derivatives(x[None])[2][:, 0]) for x in X])
        i = int(np.argmin(eig[:, 0, 0]))
        assert rep.min_eig_point == tuple(X[i])
        assert rep.min_hessian_eig == pytest.approx(eig[i, 0, 0], rel=1e-12)
        # 1/p is homogeneous of degree 1: its top eigenvalue is 0 up to rounding,
        # so which draw attains the maximum is down to rounding
        assert rep.max_inv_eig_point in {tuple(x) for x in X}
        assert abs(rep.max_inv_hessian_eig - eig[:, 1, -1].max()) <= 1e-13
        assert rep.min_log_hessian_eig == pytest.approx(eig[:, 2, 0].min(), rel=1e-12)


def _shifted(x, h, *steps):
    """x with h * d added to x[i] for each (i, d) in steps."""
    y = list(x)
    for i, d in steps:
        y[i] += d * h
    return y


def _fraction_derivatives(fn, x, h):
    """Central-difference gradient and Hessian of an exact rational
    function, step h."""
    n = len(x)
    g = np.array([float((fn(_shifted(x, h, (i, 1))) - fn(_shifted(x, h, (i, -1)))) / (2 * h))
                  for i in range(n)])
    H = np.empty((n, n))
    for i in range(n):
        H[i, i] = float(
            (fn(_shifted(x, h, (i, 1))) - 2 * fn(x) + fn(_shifted(x, h, (i, -1)))) / h**2
        )
        for j in range(i + 1, n):
            quad = [fn(_shifted(x, h, (i, a), (j, b))) for a in (1, -1) for b in (1, -1)]
            H[i, j] = H[j, i] = float((quad[0] - quad[1] - quad[2] + quad[3]) / (4 * h * h))
    return g, H


def test_coupon_derivatives_match_exact_central_differences(rng):
    # Fraction arithmetic has no rounding, so the only error is the step's h^2
    h = Fraction(1, 10**6)

    def pn(v):
        return coupon_pn_ie(tuple(v))

    for n in (2, 3, 4, 5):
        for _ in range(3):
            x = [Fraction(int(k), 8) for k in rng.integers(1, 81, size=n)]
            p, g, hess = _coupon_derivatives(np.array([[float(v) for v in x]]))
            assert p[0] == pytest.approx(float(pn(x)), rel=1e-14)
            fd_g, fd_h = _fraction_derivatives(pn, x, h)
            assert np.abs(g[0] - fd_g).max() <= 1e-9 * np.abs(fd_g).max()
            assert np.abs(hess[0, 0] - fd_h).max() <= 1e-9 * np.abs(fd_h).max()
            fd_h = _fraction_derivatives(lambda v: 1 / pn(v), x, h)[1]
            assert np.abs(hess[1, 0] - fd_h).max() <= 1e-9 * np.abs(fd_h).max()


def test_coupon_hessians_match_finite_difference_oracle(rng):
    fns = (
        lambda v: coupon_pn_ie(tuple(v)),
        lambda v: 1.0 / coupon_pn_ie(tuple(v)),
        lambda v: math.log(coupon_pn_ie(tuple(v))),
    )
    for n in (2, 3, 4, 5):
        for _ in range(10):
            x = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
            hess = _coupon_derivatives(x[None])[2][:, 0]
            for k, fn in enumerate(fns):
                # the step 1e-4 (1 + |x_i|) leaves about 1e-6 of noise
                assert np.abs(fd_hessian(fn, x) - hess[k]).max() <= 1e-5 * max(
                    1.0, np.abs(hess[k]).max()
                )


def test_coupon_hessians_are_homogeneous(rng):
    # p is homogeneous of degree -1 and 1/p of degree 1 (Euler's identity)
    for n in range(2, 11):
        X = 10.0 ** rng.uniform(-1.0, 1.0, size=(20, n))
        p, g, hess = _coupon_derivatives(X)
        scale = np.abs(hess).max(axis=(2, 3)) * np.abs(X).max(axis=1)
        assert np.all(np.abs((g * X).sum(axis=1) + p) <= 1e-13 * p)
        Hx = np.einsum("ktij,tj->kti", hess, X)
        assert np.all(np.abs(Hx[0] + 2.0 * g).max(axis=1) <= 1e-13 * scale[0])
        assert np.all(np.abs(Hx[1]).max(axis=1) <= 1e-13 * scale[1])


def test_coupon_ie_float_is_within_rounding_of_exact(rng):
    for n in range(1, 15):
        points = [tuple(rng.integers(1, 81, size=n) / 8.0) for _ in range(2)]  # exact sums
        points.append((0.1,) * n)  # rounded sums, all rounded alike
        if n <= 10:  # random floats make the exact value slow beyond N = 10
            points.append(tuple(10.0 ** rng.uniform(-1.0, 1.0, size=n)))
        for x in points:
            exact = coupon_pn_ie(tuple(Fraction(v) for v in x))
            assert abs(Fraction(coupon_pn_ie(x)) - exact) <= Fraction(1e-15) * exact


@pytest.mark.parametrize(
    "x",
    [(1e300, 1e300), (1e308, 1e308, 1e308), (1e-300, 1.0), (1e-300, 1e30),
     (1e-10, 1.1e-10, 1e10), (1e-12, 2e-12, 3e-12, 1e12, 2e12), (0.1,) * 12 + (1e19,)],
)
def test_coupon_ie_float_at_extreme_scales(x):
    # sums past the float range, and sums of small inputs next to large ones
    exact = coupon_pn_ie(tuple(Fraction(v) for v in x))
    val = coupon_pn_ie(x)
    assert abs(Fraction(val) - exact) <= Fraction(1e-15) * exact


def test_coupon_ie_float_refuses_a_spread_past_its_range_before_any_work(monkeypatch):
    monkeypatch.setattr(special, "_subset_sums", None)  # no work may start
    for x in [(3.99168061906944e292, 5e-324), (1.0, 3.99168061906944e292, 5e-324)]:
        with pytest.raises(ParameterError, match=r"about 1e616; .* at most 2\^2000"):
            coupon_pn_ie(x)
    with pytest.raises(ParameterError, match="about 1e602"):
        coupon_pn_ie((math.ldexp(1.0, 1000), math.ldexp(1.0, -1001)))  # 2^2001
    # the exact form has no such range
    assert coupon_pn_ie((Fraction(5e-324), Fraction(1))) > 1 / Fraction(5e-324)


def test_coupon_ie_float_is_finite_up_to_its_range():
    # 2^2000 exactly: the scaled sums and terms stay in the float range
    x = (math.ldexp(1.0, 1000), math.ldexp(1.0, -1000))
    assert coupon_pn_ie(x) == pytest.approx(float(coupon_pn_ie(tuple(map(Fraction, x)))), rel=1e-15)
    x = (math.ldexp(1.0, 976), math.ldexp(1.0, -1024))  # p past the float range
    assert coupon_pn_ie(x) == coupon_pn_ie(x + (1.0,)) == math.inf


def test_coupon_ie_float_past_the_float_range_is_inf():
    assert coupon_pn_ie((1e-310, 1e-310)) == math.inf


def test_coupon_ie_float_memory_at_max_n():
    # all x_i = c gives p_N = H_N / c; the sums k * 0.1 round
    exact = sum(Fraction(1, k) for k in range(1, 25)) / Fraction(0.1)
    tracemalloc.start()
    try:
        val = coupon_pn_ie((0.1,) * 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert abs(Fraction(val) - exact) <= Fraction(1e-15) * exact


def test_no_scipy_module_loads_at_import_or_in_either_integral():
    # a fresh process: other tests import scipy into this one
    code = (
        "import sys, math\n"
        "import convexdesk, convexdesk.cli\n"
        "from convexdesk.special import beta_direct, coupon_pn_integral\n"
        "v = coupon_pn_integral([1.0, 2.0]) + beta_direct(0.5, 0.5)\n"
        "print(math.isfinite(v), sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["True []"]
