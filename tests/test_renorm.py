import warnings
from dataclasses import replace

import numpy as np
import pytest

from convexdesk import renorm
from convexdesk.atoms import FnAtom
from convexdesk.errors import IterationDivergedError, NormalizationError, ParameterError
from convexdesk.fenchel import conjugate, inf_convolution
from convexdesk.grids import Grid, GridFn, discrete_convexity_check
from convexdesk.renorm import (
    NormPair,
    asplund_step,
    init_pair,
    measured_ratio,
    strict_convexity_probe,
    valid_region_halfwidth,
)


def small_grid(n=41, L=2.0):
    return Grid.box((-L, L, n), (-L, L, n))


def test_init_l1_l2_constant():
    pair = init_pair(FnAtom("l1norm"), FnAtom("l2norm"), small_grid())
    assert pair.C == pytest.approx(1.0, abs=1e-12)  # ||x||_1^2 <= 2 ||x||_2^2
    assert not pair.swapped
    assert pair.p.values[20, 20] == 0.0 and pair.q.values[20, 20] == 0.0


def test_init_identical_norms():
    pair = init_pair(FnAtom("l2norm"), FnAtom("l2norm"), small_grid())
    assert pair.C == 0.0


def test_init_swaps_linf_l2():
    pair = init_pair(FnAtom("linfnorm"), FnAtom("l2norm"), small_grid())
    assert pair.swapped  # ||x||_2^2 <= 2 ||x||_inf^2, so l2 becomes p
    assert pair.C == pytest.approx(1.0, abs=1e-12)


def test_init_validation():
    with pytest.raises(ParameterError):
        init_pair(FnAtom("abs"), FnAtom("l2norm"), small_grid())
    with pytest.raises(ParameterError):
        init_pair(FnAtom("l1norm"), FnAtom("l2norm"), Grid.box((-2, 2, 40), (-2, 2, 40)))
    with pytest.raises(ParameterError):
        init_pair(FnAtom("l1norm"), FnAtom("l2norm"), Grid.box((-2, 2, 41), (-1, 3, 41)))


def test_fixpoint_identical_norms():
    pair = init_pair(FnAtom("l2norm"), FnAtom("l2norm"), small_grid())
    nxt = asplund_step(pair)
    hw = valid_region_halfwidth(nxt.p.grid, 1)
    mask = np.abs(nxt.p.grid.coords(0)) <= hw
    sub = np.ix_(np.flatnonzero(mask), np.flatnonzero(mask))
    assert np.max(np.abs(nxt.p.values[sub] - pair.p.values[sub])) <= 1e-10
    assert np.max(np.abs(nxt.q.values[sub] - pair.q.values[sub])) <= 1e-10


def test_step_refuses_q_above_p_beyond_the_slack(monkeypatch):
    # the lattice merge keeps q1 <= p1 up to rounding; a merge that
    # quadruples q (so q1 doubles) reaches the check, while the sandwich
    # ratio max(p/q - 1) only falls
    merge = renorm.minkowski_infconv_convex
    monkeypatch.setattr(renorm, "minkowski_infconv_convex",
                        lambda F, G, rows=None: 4.0 * merge(F, G, rows=rows))
    pair = init_pair(FnAtom("l1norm"), FnAtom("l2norm"), small_grid())
    with pytest.raises(IterationDivergedError, match="q exceeded p beyond the slack"):
        asplund_step(pair)


def test_one_step_contracts_l1_l2():
    grid = small_grid(81, 2.0)
    pair = init_pair(FnAtom("l1norm"), FnAtom("l2norm"), grid)
    nxt = asplund_step(pair)
    assert nxt.n == 1
    assert measured_ratio(nxt) <= pair.C / 4 + 10 * grid.spacing[0]


def test_monotone_interleaving_and_convexity():
    grid = small_grid(81, 2.0)
    pair = init_pair(FnAtom("l1norm"), FnAtom("l2norm"), grid)
    h = grid.spacing[0]
    for _ in range(3):
        nxt = asplund_step(pair)
        hw = valid_region_halfwidth(grid, nxt.n)
        m0 = np.abs(grid.coords(0)) <= hw
        sub = np.ix_(np.flatnonzero(m0), np.flatnonzero(m0))
        # q grows, p shrinks on the valid window
        assert np.all(nxt.q.values[sub] >= pair.q.values[sub] - 1e-9)
        assert np.all(nxt.p.values[sub] <= pair.p.values[sub] + 1e-9)
        # q <= p nodewise wherever both finite
        fin = np.isfinite(nxt.q.values) & np.isfinite(nxt.p.values)
        assert np.all(nxt.q.values[fin] <= nxt.p.values[fin] + 1e-12)
        # symmetry in x -> -x
        assert np.allclose(nxt.p.values, nxt.p.values[::-1, ::-1], atol=1e-12, equal_nan=False)
        # convexity at grid scale (index doubling leaves O(h^2) wobble)
        assert discrete_convexity_check(nxt.q, tol=h * h)
        assert discrete_convexity_check(nxt.p, tol=h * h)
        pair = nxt


def test_sandwich_contraction_measured():
    grid = small_grid(81, 2.0)
    pair = init_pair(FnAtom("l1norm"), FnAtom("l2norm"), grid)
    h = grid.spacing[0]
    r_prev = measured_ratio(pair)
    for _ in range(4):
        pair = asplund_step(pair)
        r = measured_ratio(pair)
        assert r <= r_prev / 4 + 10 * h
        r_prev = r


def test_dual_recursion_on_l2_fixpoint():
    """On the l2/l2 fixpoint every reading of the dual recursion agrees:
    q1* must equal (p0* + q0*)/2 on the dual grid."""
    grid = small_grid(41, 2.0)
    pair = init_pair(FnAtom("l2norm"), FnAtom("l2norm"), grid)
    nxt = asplund_step(pair)
    dual = Grid.box((-1, 1, 21), (-1, 1, 21))
    q1s = conjugate(nxt.q, dual).dual.values
    p0s = conjugate(pair.p, dual).dual.values
    q0s = conjugate(pair.q, dual).dual.values
    assert np.max(np.abs(q1s - (p0s + q0s) / 2)) <= 1e-9


def test_step_matches_direct_infconv_small():
    """q1 from the fast Minkowski path equals the direct inf-convolution
    evaluated at doubled nodes."""
    grid = small_grid(21, 2.0)
    pair = init_pair(FnAtom("l1norm"), FnAtom("l2norm"), grid)
    nxt = asplund_step(pair)
    conv = inf_convolution(pair.p, pair.q).out
    xs = grid.coords(0)
    i0 = grid.zero_index(0)
    for i in range(21):
        for j in range(21):
            k0, k1 = 2 * i - i0, 2 * j - i0
            if 0 <= k0 < 21 and 0 <= k1 < 21:
                assert nxt.q.values[i, j] == pytest.approx(
                    conv.values[k0, k1] / 2, abs=1e-12
                )


def test_strict_convexity_probe_l2_positive():
    grid = small_grid(41, 2.0)
    f = GridFn(grid, init_pair(FnAtom("l2norm"), FnAtom("l2norm"), grid).p.values)
    rep = strict_convexity_probe(f, samples=300, seed=1)
    assert rep.min_gap > 0
    assert rep.flagged_flat == 0


def test_strict_convexity_probe_linf_flags_flats():
    grid = small_grid(41, 2.0)
    pair = init_pair(FnAtom("linfnorm"), FnAtom("linfnorm"), grid)
    rep = strict_convexity_probe(pair.p, samples=500, seed=2, flat_tol=1e-12)
    assert rep.flagged_flat > 0  # faces of the cube are flat directions


def test_strict_convexity_probe_l1_has_flat_segments():
    grid = small_grid(41, 2.0)
    pair = init_pair(FnAtom("l1norm"), FnAtom("l1norm"), grid)
    rep = strict_convexity_probe(pair.p, samples=500, seed=3, flat_tol=1e-12)
    # simplex faces of the l1 ball are flat off the origin rays
    assert rep.min_gap <= 1e-12


def test_pair_from_gridfns_custom_norm():
    from convexdesk.atoms import sample
    from convexdesk.renorm import pair_from_gridfns

    grid = small_grid(41, 2.0)
    # a skewed weighted-l2 squared against plain l2 squared, C supplied
    x0, x1 = np.meshgrid(grid.coords(0), grid.coords(1), indexing="ij")
    p0 = GridFn(grid, 0.5 * (1.5 * x0 ** 2 + x1 ** 2))
    q0 = GridFn(grid, 0.5 * (x0 ** 2 + x1 ** 2))
    pair = pair_from_gridfns(p0, q0, C=0.5)
    nxt = asplund_step(pair)
    assert measured_ratio(nxt) <= 0.5 / 4 + 10 * grid.spacing[0]
    with pytest.raises(ParameterError):
        pair_from_gridfns(GridFn(grid, p0.values + 1.0), q0, C=0.5)


def test_sandwich_violation_raises():
    from convexdesk.errors import IterationDivergedError

    grid = small_grid(41, 2.0)
    x0, x1 = np.meshgrid(grid.coords(0), grid.coords(1), indexing="ij")
    q = GridFn(grid, 0.5 * (x0 ** 2 + x1 ** 2))
    p = GridFn(grid, 1.5 * q.values)
    # a deliberately understated C makes the re-verified bound unattainable
    bogus = NormPair(p, q, 0, 1e-9)
    with pytest.raises(IterationDivergedError):
        asplund_step(bogus, sandwich_slack=1e-6)


def test_nan_sandwich_slack_is_refused():
    # every `> bound + nan` comparison is false, so a NaN slack passed both guards
    pair = replace(init_pair(FnAtom("l1norm"), FnAtom("l2norm"), small_grid(21, 1.0)), C=1e-9)
    with pytest.raises(IterationDivergedError, match="sandwich bound violated"):
        asplund_step(pair, sandwich_slack=0.0)
    with pytest.raises(ParameterError, match="sandwich_slack must not be NaN"):
        asplund_step(pair, sandwich_slack=float("nan"))


def test_init_refuses_a_one_dimensional_grid():
    with pytest.raises(ParameterError, match="2-D grids"):
        init_pair(FnAtom("l1norm"), FnAtom("l2norm"), Grid.line(-2, 2, 41))


def test_measured_ratio_refuses_an_empty_window():
    grid = small_grid(5, 2.0)
    zero = GridFn(grid, np.zeros(grid.shape))  # q = 0: no usable node
    with pytest.raises(IterationDivergedError, match="no usable nodes"):
        measured_ratio(NormPair(zero, zero, 0, 0.0))


def test_init_refuses_norms_in_neither_order(monkeypatch):
    # 1.2 |x|_2 lies above |x|_1 on the axes and below it on the diagonals
    sample = renorm.sample
    monkeypatch.setattr(renorm, "sample", lambda a, g: GridFn(
        g, sample(a, g).values * (1.2 if a.tag == "l2norm" else 1.0)))
    with pytest.raises(NormalizationError, match="neither order"):
        init_pair(FnAtom("l1norm"), FnAtom("l2norm"), small_grid())


def _half_squares(grid, w=1.0):
    x0, x1 = np.meshgrid(grid.coords(0), grid.coords(1), indexing="ij")
    return GridFn(grid, 0.5 * (w * x0 ** 2 + x1 ** 2))


@pytest.mark.parametrize(
    "p0, q0, C, error, message",
    [
        ("p", "q-other-grid", 0.5, ParameterError, "share a grid"),
        ("p", "q-negative", 0.5, ParameterError, "q0 must be nonnegative"),
        ("p", "q", -0.5, ParameterError, "C must be >= 0"),
        ("q", "p", 0.5, NormalizationError, "q0 <= p0 fails"),
        ("p", "q", 0.1, NormalizationError, r"p0 <= \(1 \+ C\) q0 fails"),
    ],
)
def test_pair_from_gridfns_refusals(p0, q0, C, error, message):
    grid = small_grid(41, 2.0)
    neg = _half_squares(grid).values.copy()
    neg[0, 0] = -1.0
    fns = {"p": _half_squares(grid, 1.5), "q": _half_squares(grid),
           "q-other-grid": _half_squares(small_grid(41, 3.0)), "q-negative": GridFn(grid, neg)}
    with pytest.raises(error, match=message):
        renorm.pair_from_gridfns(fns[p0], fns[q0], C)


def test_step_refuses_a_finite_region_that_is_not_a_rectangle():
    grid = small_grid(41, 2.0)
    q = _half_squares(grid)
    holed = q.values.copy()
    holed[3, 3] = np.inf
    with pytest.raises(IterationDivergedError, match="not a rectangle"):
        asplund_step(NormPair(GridFn(grid, holed), q, 0, 1.0))


@pytest.mark.parametrize(
    "L, message",
    [(1e-200, "vanish at every node"), (1e160, "overflow on the grid")],
)
def test_init_refuses_norms_that_underflow_or_overflow(L, message):
    # every half-square underflowing to 0 left max() an empty set, and squares
    # past the float range warned, then divided inf / inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=message):
            init_pair(FnAtom("l1norm"), FnAtom("l2norm"), small_grid(5, L))
