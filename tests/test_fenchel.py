import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_coercivity,
    brute_conjugate_1d,
    brute_conjugate_2d,
    brute_conjugate_value_at,
    brute_infconv,
    brute_infconv_1d,
    brute_row_minkowski,
    random_convex_gridfn,
    random_convex_values,
)
from convexdesk import fenchel
from convexdesk.atoms import FnAtom, sample
from convexdesk.errors import GridMismatchError, ImproperFunctionError, ParameterError
from convexdesk.fenchel import (
    MAX_DIRECT_PAIRS,
    _axis_pairs,
    biconjugate,
    coercivity_check,
    conjugate,
    conjugate_oracle,
    conjugate_value_at,
    default_dual_grid,
    fenchel_duality_gap,
    inf_convolution,
    infconv_dual_check,
    max_formula_check,
    minkowski_infconv_convex,
    subdifferential,
)
from convexdesk.grids import Grid, GridFn, discrete_convexity_check


# ---- conjugate -------------------------------------------------------------


def test_conjugate_power2_golden():
    f = sample(FnAtom("power", (2.0,)), Grid.line(-5, 5, 1001))
    res = conjugate(f, Grid.line(-3, 3, 601))
    ys = res.dual.grid.coords(0)
    i = np.argmin(np.abs(ys - 1.0))
    assert abs(res.dual.values[i] - 0.5) <= 1e-4


def test_conjugate_exp_golden():
    f = sample(FnAtom("exp"), Grid.line(-10, 3, 2001))
    res = conjugate(f, Grid.line(0.5, 1.5, 201))
    ys = res.dual.grid.coords(0)
    i = np.argmin(np.abs(ys - 1.0))
    assert abs(res.dual.values[i] - (-1.0)) <= 1e-3  # y log y - y at 1


def test_conjugate_indicator_is_support():
    g = Grid.line(-2, 2, 401)
    f = sample(FnAtom("indicator", (-1.0, 1.0)), g)
    res = conjugate(f, g)
    assert np.array_equal(res.dual.values, np.abs(g.coords(0)))


def test_conjugate_rejects_improper_and_mismatch():
    g = Grid.line(-1, 1, 5)
    with pytest.raises(ImproperFunctionError):
        conjugate(GridFn(g, [np.inf] * 5), g)
    with pytest.raises(GridMismatchError):
        conjugate(sample(FnAtom("abs"), g), Grid.box((-1, 1, 3), (-1, 1, 3)))


def test_oracle_examples_from_brute_force():
    g = Grid.line(-2, 2, 5)
    f = sample(FnAtom("abs"), g)
    res = conjugate_oracle(f, Grid.line(-1, 1, 3))
    assert res.dual.values.tolist() == [0.0, 0.0, 0.0]  # conjugate of |x| inside the ball
    r2 = conjugate_oracle(f, Grid.line(2, 2.5, 2))
    assert r2.dual.values[0] == 2.0  # sup attained at the boundary x = 2
    fpoint = sample(FnAtom("point", (0.0,)), g)
    r3 = conjugate_oracle(fpoint, Grid.line(-7, 9, 5))
    assert np.array_equal(r3.dual.values, np.zeros(5))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 64), m=st.integers(2, 64),
       kind=st.integers(0, 2))
def test_fast_equals_oracle_bit_for_bit(seed, n, m, kind):
    rng = np.random.default_rng(seed)
    g = Grid.line(-3.0, 2.0, n)
    if kind == 0:
        vals = rng.normal(size=n) * 5
    elif kind == 1:
        vals = rng.integers(-5, 6, size=n).astype(float)  # exact ties
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


def test_fast_equals_oracle_2d():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n1, n2 = rng.integers(2, 14, 2)
        g = Grid.box((-2, 2, int(n1)), (-1, 3, int(n2)))
        vals = rng.normal(size=(n1, n2)) * 4
        vals[rng.random((n1, n2)) < 0.25] = np.inf
        if not np.isfinite(vals).any():
            vals[0, 0] = 0.0
        f = GridFn(g, vals)
        dg = Grid.box((-3, 3, int(rng.integers(2, 10))), (-3, 3, int(rng.integers(2, 10))))
        a = conjugate(f, dg)
        b = conjugate_oracle(f, dg)
        assert np.array_equal(a.dual.values, b.dual.values)
        assert np.array_equal(a.argmax, b.argmax)


def _collinear_family(kind, tenths, cuts, xs):
    """Linear, kinked or max-of-lines data with one-decimal slopes."""
    s = np.asarray(tenths, dtype=float) / 10
    if kind == 0:
        return s[0] * xs
    if kind == 1:
        c = cuts[0] / 10
        return np.where(xs < c, s[0] * (xs - c), s[1] * (xs - c))
    b = np.asarray(cuts, dtype=float) / 10
    return np.max(s[:, None] * xs[None, :] + b[:, None], axis=0)


@settings(max_examples=120, deadline=None)
@given(kind=st.integers(0, 2), n=st.integers(2, 1001),
       tenths=st.lists(st.integers(-20, 20), min_size=4, max_size=4),
       cuts=st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       pad=st.tuples(st.integers(0, 10), st.integers(1, 10)))
def test_fast_equals_oracle_on_collinear_runs(kind, n, tenths, cuts, pad):
    g = Grid.line(-1, 1, n)
    f = GridFn(g, _collinear_family(kind, tenths, cuts, g.coords(0)))
    used = tenths[: (1, 2, 4)[kind]]
    lo, hi = min(used) - pad[0], max(used) + pad[1]
    dg = Grid.line(lo / 10, hi / 10, hi - lo + 1)  # holds every slope
    a = conjugate(f, dg)
    b = conjugate_oracle(f, dg)
    assert np.array_equal(a.dual.values, b.dual.values)
    assert np.array_equal(a.argmax, b.argmax)


@pytest.mark.parametrize("a, n, expect_arg, expect_val", [
    (0.7, 7, 0, 0.0),  # a collinear run: every node attains the sup at y = a
    (0.3, 13, 12, 5.551115123125783e-17),  # rounding makes the last node the max
])
def test_collinear_line_matches_oracle(a, n, expect_arg, expect_val):
    g = Grid.line(-1, 1, n)
    f = GridFn(g, a * g.coords(0))
    dg = Grid.line(a - 1, a + 1, 3)
    res = conjugate(f, dg)
    ref = conjugate_oracle(f, dg)
    assert (res.argmax[1], res.dual.values[1]) == (expect_arg, expect_val)
    assert np.array_equal(res.dual.values, ref.dual.values)
    assert np.array_equal(res.argmax, ref.argmax)


@settings(max_examples=40, deadline=None)
@given(kinked=st.booleans(), n1=st.integers(2, 40), n2=st.integers(2, 40),
       tenths=st.lists(st.integers(-20, 20), min_size=4, max_size=4),
       cut=st.integers(-9, 9))
def test_fast_equals_oracle_values_2d_collinear(kinked, n1, n2, tenths, cut):
    # 2-D values are exact; the argmax breaks rounding ties row first, so
    # only the values are compared with the oracle
    g = Grid.box((-1, 1, n1), (-1, 1, n2))
    x1, x2 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
    s = np.asarray(tenths) / 10
    vals = s[0] * x1 + s[1] * x2
    if kinked:
        vals = np.maximum(vals, s[2] * x1 + s[3] * x2 + cut / 10)
    f = GridFn(g, vals)
    dg = Grid.box((-2, 2, 41), (-2, 2, 41))  # holds every one-decimal slope
    a = conjugate(f, dg)
    b = conjugate_oracle(f, dg)
    assert np.array_equal(a.dual.values, b.dual.values)
    # the argmax attains the value, by the oracle's expression
    i, j = np.divmod(a.argmax, n2)
    y1, y2 = np.meshgrid(dg.coords(0), dg.coords(1), indexing="ij")
    at = y1 * g.coords(0)[i] + (y2 * g.coords(1)[j] - f.values[i, j])
    assert np.array_equal(at, a.dual.values)


def _popping_line(kind, n, exp, seed, patches):
    """A line on which _lower_hull's pop test fires, on a dual grid that
    brings the conjugate's argmax near the popped nodes: the f* line of a
    random convex line, a collinear or a kinked run, or a zipper (one low
    end node that pops its neighbour in every batched round); +inf patches
    cut gaps into it."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exp
    g = Grid.line(-scale, scale, n)
    xs = g.coords(0)
    s = rng.integers(-20, 21, size=3) / 10
    if kind == 0:
        f = random_convex_gridfn(rng, g, scale)
        line = conjugate(f, default_dual_grid(f)).dual
        g, vals, dg = line.grid, line.values.copy(), g
    else:
        if kind == 1:
            vals = s[0] * scale * xs
        elif kind == 2:
            vals = np.maximum(s[0] * scale * xs, s[1] * scale * xs + s[2] * scale**2)
        else:
            vals = xs**2
            vals[-1 if seed % 2 else 0] = -1e3 * scale**2
        dg = Grid.line(-2 * scale, 2 * scale, 41)  # holds every one-decimal slope
    for a, w in patches:
        vals[a * n // 100 : (a + w) * n // 100] = np.inf
    if not np.isfinite(vals).any():
        vals[n // 2] = 0.0
    return GridFn(g, vals), dg


@settings(max_examples=150, deadline=None)
@given(kind=st.integers(0, 3), n=st.integers(3, 3000), exp=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1),
       patches=st.lists(st.tuples(st.integers(0, 99), st.integers(1, 20)), max_size=3))
def test_hull_elimination_matches_oracle_on_popping_lines(kind, n, exp, seed, patches):
    f, dg = _popping_line(kind, n, exp, seed, patches)
    a = conjugate(f, dg)
    b = conjugate_oracle(f, dg)
    assert np.array_equal(a.dual.values, b.dual.values)
    assert np.array_equal(a.argmax, b.argmax)


@settings(max_examples=30, deadline=None)
@given(atom=st.sampled_from(["l1norm", "l2norm"]), n1=st.integers(2, 41),
       n2=st.integers(2, 41), m1=st.integers(2, 41), m2=st.integers(2, 41),
       exp=st.integers(0, 8))
def test_hull_elimination_matches_oracle_values_2d(atom, n1, n2, m1, m2, exp):
    # norms sampled on grids pop by rounding along their linear runs, and
    # so do their conjugates, the second transform of the biconjugate
    scale = 10.0 ** exp
    g = Grid.box((-scale, scale, n1), (-0.5 * scale, 1.5 * scale, n2))
    f = sample(FnAtom(atom), g)
    dg = Grid.box((-1.5, 1.5, m1), (-1.5, 1.5, m2))
    fstar = conjugate(f, dg).dual
    assert np.array_equal(fstar.values, conjugate_oracle(f, dg).dual.values)
    assert np.array_equal(biconjugate(f, dg).values, conjugate_oracle(fstar, g).dual.values)


def test_zipper_line_elimination_work_is_linear(monkeypatch):
    import convexdesk.fenchel as fenchel

    n = 100_000
    g = Grid.line(0, 1, n)
    vals = g.coords(0) ** 2
    vals[-1] = -1e6  # each batched round pops only the node next to it
    f = GridFn(g, vals)
    tested, chained = [], []
    pops, hull = fenchel._pops, fenchel._lower_hull
    monkeypatch.setattr(fenchel, "_pops", lambda x, v: tested.append(x.size) or pops(x, v))
    monkeypatch.setattr(fenchel, "_lower_hull", lambda x, v: chained.append(x.size) or hull(x, v))
    dg = Grid.line(-2e6, 3, 101)
    res = conjugate(f, dg)
    # the batched rounds stop at a constant times the finite points, and
    # one chain call finishes the line
    assert sum(tested) <= fenchel._HULL_WORK * n
    assert len(chained) == 1 and chained[0] < n
    ref = conjugate_oracle(f, dg)
    assert np.array_equal(res.dual.values, ref.dual.values)
    assert np.array_equal(res.argmax, ref.argmax)


def test_oracle_2d_refuses_grids_over_the_pair_cap():
    g = Grid.box((-1, 1, 2000), (-1, 1, 2000))
    f = GridFn(g, np.zeros(g.shape))
    with pytest.raises(ParameterError, match="16000000000000"):
        conjugate_oracle(f, g)


def test_oracle_1d_refuses_grids_over_the_pair_cap():
    g = Grid.line(-1, 1, 50000)  # 2.5e9 primal-dual pairs
    f = GridFn(g, np.zeros(50000))
    with pytest.raises(ParameterError, match="2500000000"):
        conjugate_oracle(f, g)
    # 44721 nodes on each side are 1999967841 pairs, under the cap
    assert 44721**2 <= MAX_DIRECT_PAIRS < 44722**2


def test_oracle_matches_independent_loop(rng):
    g = Grid.line(-2, 2, 33)
    f = GridFn(g, rng.normal(size=33))
    ys = np.linspace(-3, 3, 17)
    ref = brute_conjugate_1d(f, ys)
    res = conjugate_oracle(f, Grid.line(-3, 3, 17))
    assert np.array_equal(res.dual.values, ref)


def test_rounding_windows_past_the_pair_cap_are_refused(monkeypatch):
    # f = 0 with the whole dual grid within rounding of the hull's slope 0:
    # every dual node's window spans all 50 nodes, 2500 window nodes
    f = GridFn(Grid.line(-1, 1, 50), np.zeros(50))
    dual = Grid.line(-1e-13, 1e-13, 50)
    monkeypatch.setattr(fenchel, "MAX_DIRECT_PAIRS", 2499)
    with pytest.raises(ParameterError, match="2500"):
        conjugate(f, dual)
    monkeypatch.setattr(fenchel, "MAX_DIRECT_PAIRS", 2500)
    res, ref = conjugate(f, dual), conjugate_oracle(f, dual)
    assert res.dual.values.tobytes() == ref.dual.values.tobytes()
    assert res.argmax.tobytes() == ref.argmax.tobytes()


def test_rounding_windows_cap_counts_across_blocks_in_2d(monkeypatch):
    # each pass: 20 lines x 20 dual nodes x windows of all 20 nodes, in
    # blocks of 2 lines; the cap holds per pass, over all its blocks
    g = Grid.box((-1, 1, 20), (-1, 1, 20))
    f = GridFn(g, np.zeros(g.shape))
    dual = Grid.box((-1e-13, 1e-13, 20), (-1e-13, 1e-13, 20))
    ref = conjugate_oracle(f, dual)  # 160000 pairs, over the patched caps
    monkeypatch.setattr(fenchel, "_BLOCK_ELEMS", 100)
    monkeypatch.setattr(fenchel, "MAX_DIRECT_PAIRS", 7999)
    with pytest.raises(ParameterError, match="8000"):
        conjugate(f, dual)
    monkeypatch.setattr(fenchel, "MAX_DIRECT_PAIRS", 8000)
    assert conjugate(f, dual).dual.values.tobytes() == ref.dual.values.tobytes()


def test_2d_blocks_of_lines_with_no_finite_value_match_the_oracle(monkeypatch):
    # blocks of 2 lines: the first rows lie outside the box, so whole
    # blocks of the row pass are +inf
    g = Grid.box((-2, 2, 21), (-3, 3, 17))
    x1, x2 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
    inside = (x1 >= 0.1) & (np.abs(x2 + 0.5) <= 1.1)
    f = GridFn(g, np.where(inside, 0.5 * x1 - x2, np.inf))
    assert not np.isfinite(f.values[:10]).any()
    dual = Grid.box((-3, 3, 19), (-2, 2, 17))
    monkeypatch.setattr(fenchel, "_BLOCK_ELEMS", 70)
    res, ref = conjugate(f, dual), conjugate_oracle(f, dual)
    assert res.dual.values.tobytes() == ref.dual.values.tobytes()


# one-decimal values tie exactly on one-decimal grids; the rest sit at the
# float limit, at -0.0 and at +inf
ORACLE_VALUES = st.one_of(
    st.integers(-20, 20).map(lambda k: k / 10),
    st.sampled_from([-0.0, math.inf, 1e308, -1e308, 1.7e308, -1.7e308]),
)


@st.composite
def _oracle_inputs(draw):
    dim = draw(st.integers(1, 2))
    hi, ylo = st.sampled_from([0.2, 1.0, 3.0]), st.sampled_from([-2.0, -0.5, 0.0])
    grid = Grid(tuple((-1.0, draw(hi), draw(st.integers(2, 9))) for _ in range(dim)))
    dual = Grid(tuple((draw(ylo), 1.0, draw(st.integers(2, 9))) for _ in range(dim)))
    n = grid.node_count
    v = np.array(draw(st.lists(ORACLE_VALUES, min_size=n, max_size=n)))
    if not np.isfinite(v).any():
        v[draw(st.integers(0, v.size - 1))] = -0.0
    return GridFn(grid, v.reshape(grid.shape)), dual


# the maximum at y = 0 is -0.0: 0 * (-1) - 0.0 in 1-D, and
# (0 * -1) + (0 * -1 - 0.0) in 2-D
_NEG_ZERO_1D = (GridFn(Grid.line(-1, 1, 2), [0.0, math.inf]), Grid.line(-1, 1, 3))
_NEG_ZERO_2D = (
    GridFn(Grid.box((-1, 1, 2), (-1, 1, 2)), [[0.0, math.inf], [math.inf, math.inf]]),
    Grid.box((-1, 1, 3), (-1, 1, 3)),
)


@settings(max_examples=300, deadline=None)
@given(_oracle_inputs(), st.sampled_from([1, 7, 50, fenchel._TILE_ELEMS]))
@example(_NEG_ZERO_1D, fenchel._TILE_ELEMS)
@example(_NEG_ZERO_2D, fenchel._TILE_ELEMS)
def test_oracle_is_the_plain_loop_bit_for_bit(case, tile_elems):
    f, dual = case
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(fenchel, "_TILE_ELEMS", tile_elems)  # small blocks: many per grid
        warnings.simplefilter("error")
        res = conjugate_oracle(f, dual)
    if f.grid.dim == 1:
        assert res.dual.values.tobytes() == brute_conjugate_1d(f, dual.coords(0)).tobytes()
    else:
        vals, arg = brute_conjugate_2d(f, dual)
        assert res.dual.values.tobytes() == vals.tobytes()
        assert np.array_equal(res.argmax, arg)
    assert res.argmax.dtype == np.int64 and res.argmax.shape == dual.shape


def test_oracle_memory_is_bounded_in_1d(rng):
    import tracemalloc

    n = 6000  # the dense m x n matrix would take 288 MB
    g = random_convex_gridfn(rng, Grid.line(-2, 2, n))
    dg = Grid.line(-3, 3, n)
    fast = conjugate(g, dg)
    tracemalloc.start()
    try:
        res = conjugate_oracle(g, dg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(res.dual.values, fast.dual.values)
    assert np.array_equal(res.argmax, fast.argmax)
    assert peak < 16 * 2**20


def test_1d_conjugate_memory_is_linear_in_the_line():
    # one line is one block of the kernel: at n = m its temporaries take
    # about 194 bytes per node, whatever the line's size
    n = 200_000
    f = sample(FnAtom("abs"), Grid.line(-1, 1, n))
    dual = Grid.line(-2, 2, n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        conjugate(f, dual)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 256 * n


NEAR_LIMIT = [1e308, -1e308, 1.7e308, -1.7e308, 5e307, 0.0, 1.0, -3.0, np.inf]


@settings(max_examples=300, deadline=None)
@given(
    vals=st.lists(st.sampled_from(NEAR_LIMIT), min_size=3, max_size=11),
    m=st.integers(2, 11),
)
@example(vals=[0.0, 1.0, np.inf, 0.0], m=11)  # the oracle's -0.0 at y = 0 comes from a window
@example(vals=[np.inf, 0.0, -3.0], m=4)
def test_conjugate_near_the_float_limit_is_the_oracle_or_refused(vals, m):
    kernel_calls = []
    kernel = fenchel._conjugate_lines
    f = GridFn(Grid.line(-1, 1, len(vals)), vals)
    dual = Grid.line(-3, 2, m)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(fenchel, "_conjugate_lines", lambda *a: kernel_calls.append(1) or kernel(*a))
        warnings.simplefilter("error")  # no overflow anywhere
        if not f.is_proper:
            with pytest.raises(ImproperFunctionError):
                conjugate(f, dual)
            assert not kernel_calls  # refused before any work
            return
        got, want = conjugate(f, dual), conjugate_oracle(f, dual)
    assert got.dual.values.tobytes() == want.dual.values.tobytes()
    assert got.argmax.tobytes() == want.argmax.tobytes()
    # 8 max(M, 1) max(S, 1/h) with S = 2 passes the largest float exactly
    # when a value is at least 5e307: those take the oracle, the rest the kernel
    huge = max(abs(v) for v in vals if math.isfinite(v)) >= 5e307
    assert bool(kernel_calls) != huge


def test_conjugate_slopes_beyond_the_largest_float_take_the_oracle():
    # the cross products stay small; the slopes 1e295 / 5e-14 would overflow
    f = GridFn(Grid.line(-1e-13, 1e-13, 5), [0.0, 1e295, 0.0, -1e295, 0.0])
    dual = Grid.line(-3, 2, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = conjugate(f, dual), conjugate_oracle(f, dual)
    assert got.dual.values.tobytes() == want.dual.values.tobytes()
    assert got.argmax.tobytes() == want.argmax.tobytes()


def test_conjugate_near_the_float_limit_over_the_pair_cap_is_refused(monkeypatch):
    monkeypatch.setattr(fenchel, "_conjugate_lines", None)  # any use of the kernel fails
    vals = np.zeros(50001)
    vals[7] = 1e308
    f = GridFn(Grid.line(-1, 1, 50001), vals)
    with pytest.raises(ParameterError, match="conjugate_oracle needs 2500100001 node pairs"):
        conjugate(f, Grid.line(-3, 2, 50001))


def test_conjugate_order_reversing(rng):
    g = Grid.line(-2, 2, 65)
    f = random_convex_gridfn(rng, g)
    gfn = GridFn(g, f.values + rng.uniform(0.0, 1.0, 65))  # g >= f
    dg = Grid.line(-2, 2, 41)
    cf = conjugate(f, dg).dual.values
    cg = conjugate(gfn, dg).dual.values
    assert np.all(cg <= cf + 1e-12)


def test_fenchel_young_grid_inequality(rng):
    g = Grid.line(-2, 2, 101)
    f = random_convex_gridfn(rng, g)
    dg = Grid.line(-3, 3, 101)
    fstar = conjugate(f, dg).dual
    xs, ys = g.coords(0), dg.coords(0)
    resid = f.values[:, None] + fstar.values[None, :] - xs[:, None] * ys[None, :]
    assert resid.min() >= -1e-12


def test_conjugate_always_convex(rng):
    g = Grid.line(-2, 2, 51)
    f = GridFn(g, rng.normal(size=51) * 3)  # arbitrary, not convex
    res = conjugate(f, Grid.line(-4, 4, 101))
    assert discrete_convexity_check(res.dual, tol=1e-12)


def test_conjugate_value_at_matches_node_transform():
    f = sample(FnAtom("power", (2.0,)), Grid.line(-4, 4, 801))
    v, j = conjugate_value_at(f, 1.0)
    res = conjugate(f, Grid.line(1.0, 2.0, 2))
    assert v == res.dual.values[0] and j == res.argmax[0]


CVA_VALUES = [0.0, -0.0, 0.1, -0.3, 1.0, np.inf, 1e308, 1.7e308, -1.7e308]


@st.composite
def conjugate_value_cases(draw):
    """A 1-D or 2-D grid on [-half, half] per axis, values from CVA_VALUES
    (signed zeros, +inf, values near the float limit) and a dual point whose
    products with the nodes may overflow."""
    shape = draw(st.one_of(st.tuples(st.integers(2, 8)),
                           st.tuples(st.integers(2, 6), st.integers(2, 6))))
    half = draw(st.sampled_from([1.0, 2.5, 1e-3, 1e300]))
    size = int(np.prod(shape))
    vals = draw(st.lists(st.sampled_from(CVA_VALUES), min_size=size, max_size=size)
                .filter(lambda v: any(np.isfinite(v))))
    y = draw(st.lists(st.one_of(st.floats(-10, 10),
                                st.floats(allow_nan=False, allow_infinity=False),
                                st.sampled_from([0.0, -0.0, 1e308, -7.7e307])),
                      min_size=len(shape), max_size=len(shape)))
    return Grid(tuple((-half, half, n) for n in shape)), vals, y


@settings(max_examples=300, deadline=None)
@given(case=conjugate_value_cases())
@example(case=(Grid.line(-2.5, 2.5, 6), [1.7e308, 0.1, 1.7e308, 0.1, 1e308, 1e308],
               [-7.68973468e307]))  # the resolvent certificate's overflow
def test_conjugate_value_at_is_the_plain_loop_bit_for_bit(case):
    g, vals, y = case
    f = GridFn(g, np.array(vals, dtype=float).reshape(g.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, j = conjugate_value_at(f, y)
    want_v, want_j = brute_conjugate_value_at(f, y)
    assert np.float64(v).tobytes() == np.float64(want_v).tobytes() and j == want_j


def test_conjugate_value_at_refuses_a_point_of_the_wrong_dimension():
    f = GridFn(Grid.line(-1, 1, 3), np.zeros(3))
    with pytest.raises(GridMismatchError):
        conjugate_value_at(f, (1.0, 2.0))


def test_young_inequality_power_pairs():
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        g = Grid.line(-3, 3, 151)
        xs = g.coords(0)
        fx = np.abs(xs) ** p / p
        gy = np.abs(xs) ** q / q
        resid = fx[:, None] + gy[None, :] - xs[:, None] * xs[None, :]
        assert resid.min() >= -1e-12


# ---- biconjugate -----------------------------------------------------------


def test_biconjugate_fixpoint_abs():
    g = Grid.line(-2, 2, 401)
    f = sample(FnAtom("abs"), g)
    bc = biconjugate(f, default_dual_grid(f))
    assert np.max(np.abs(bc.values - f.values)) <= 1e-9


def test_biconjugate_convexifies_double_well():
    g = Grid.line(-3, 3, 601)
    xs = g.coords(0)
    f = GridFn(g, np.minimum(np.abs(xs - 1), np.abs(xs + 1)))
    bc = biconjugate(f, Grid.line(-2, 2, 801))
    i0 = g.zero_index(0)
    assert f.values[i0] == 1.0
    assert abs(bc.values[i0]) <= 1e-9  # convex hull flattens the well
    assert np.all(bc.values <= f.values + 1e-12)


def test_biconjugate_cubic_on_unit_interval():
    g = Grid.line(0, 1, 101)
    f = GridFn(g, g.coords(0) ** 3)  # convex on [0, 1]
    bc = biconjugate(f, default_dual_grid(f, n=4001))
    assert np.max(np.abs(bc.values - f.values)) <= 1e-9


def test_biconjugate_dominance_random(rng):
    g = Grid.line(-2, 2, 101)
    f = GridFn(g, rng.normal(size=101))
    bc = biconjugate(f, Grid.line(-30, 30, 2001))
    assert np.all(bc.values <= f.values + 1e-10)


# ---- infimal convolution ---------------------------------------------------


def test_infconv_figure_values():
    g = Grid.line(-2, 2, 4001)
    res = inf_convolution(sample(FnAtom("negsqrt_circle"), g), sample(FnAtom("abs"), g))
    xs = g.coords(0)

    def at(x):
        return res.out.values[np.argmin(np.abs(xs - x))]

    assert abs(at(1.0) - (1 - math.sqrt(2))) <= 2e-3
    # oracle-confirmed circular-branch values (see notes on the example typo)
    assert abs(at(0.5) - (-math.sqrt(0.75))) <= 2e-3
    assert abs(at(0.25) - (-math.sqrt(1 - 0.0625))) <= 2e-3


def test_infconv_identity_element():
    g = Grid.line(-2, 2, 401)
    f = sample(FnAtom("power", (2.0,)), g)
    res = inf_convolution(f, sample(FnAtom("point", (0.0,)), g))
    assert np.array_equal(res.out.values, f.values)


def test_infconv_matches_brute_force(rng):
    g = Grid.line(-2, 2, 41)
    f = GridFn(g, rng.normal(size=41))
    h = GridFn(g, rng.normal(size=41))
    res = inf_convolution(f, h)
    assert np.array_equal(res.out.values, brute_infconv_1d(f, h))


@st.composite
def _infconv_inputs(draw):
    """f and g on a 1-D or 2-D grid whose zero node may sit anywhere, with
    one-decimal values (so sums tie exactly), -0.0 and +inf patches."""
    dim = draw(st.integers(1, 2))
    axes = []
    for _ in range(dim):
        n = draw(st.integers(2, 24 if dim == 1 else 7))
        i0 = draw(st.integers(0, n - 1))
        axes.append((-0.5 * i0, 0.5 * (n - 1 - i0), n))
    grid = Grid(tuple(axes))
    value = st.one_of(st.integers(-9, 9).map(lambda k: k / 10), st.sampled_from([-0.0, math.inf]))
    fns = []
    for _ in range(2):
        v = np.array(draw(st.lists(value, min_size=grid.node_count, max_size=grid.node_count)))
        v = v.reshape(grid.shape)
        lo = [draw(st.integers(0, n)) for n in grid.shape]
        hi = [draw(st.integers(a, n)) for a, n in zip(lo, grid.shape)]
        v[tuple(map(slice, lo, hi))] = math.inf
        if not np.isfinite(v).any():
            v.flat[draw(st.integers(0, grid.node_count - 1))] = -0.0
        fns.append(GridFn(grid, v))
    return fns


@settings(max_examples=200, deadline=None)
@given(_infconv_inputs(), st.sampled_from([1, 7, 50, fenchel._TILE_ELEMS]))
def test_infconv_values_signs_and_argmin_match_the_oracle(fg, tile_elems):
    f, g = fg
    with pytest.MonkeyPatch.context() as mp:  # small tiles: many per grid
        mp.setattr(fenchel, "_TILE_ELEMS", tile_elems)
        res = inf_convolution(f, g)
    vals, arg = brute_infconv(f, g)
    assert np.array_equal(res.out.values, vals)
    assert np.array_equal(np.signbit(res.out.values), np.signbit(vals))
    assert res.argmin.dtype == np.int64
    assert np.array_equal(res.argmin, arg)


@pytest.mark.parametrize("axes", [((-0.7, 2.9, 37), (-1.5, 0.7, 23)), ((-2.4, 0.6, 31), (0.0, 3.6, 19))],
                         ids=["37x23", "31x19"])
def test_infconv_is_the_oracle_on_non_square_grids_in_every_tiling(axes):
    # one-decimal values (sums tie), -0.0 and +inf, with whole +inf rows
    # and columns in both inputs, and the last half of the rows +inf so
    # that some x reach no finite pair; the zero node is off-centre on both
    # axes (at the corner in the second grid)
    grid = Grid(axes)
    rng = np.random.default_rng(14)
    fns = []
    for _ in range(2):
        v = rng.integers(-9, 10, size=grid.shape) / 10
        v[rng.random(grid.shape) < 0.1] = -0.0
        v[rng.random(grid.shape) < 0.1] = math.inf
        v[rng.integers(grid.shape[0], size=3)] = math.inf
        v[:, rng.integers(grid.shape[1], size=3)] = math.inf
        v[grid.shape[0] // 2 :] = math.inf
        fns.append(GridFn(grid, v))
    vals, arg = brute_infconv(*fns)
    assert (arg == -1).any() and (arg >= 0).any()
    # one tile per x column, then x0 tiles of one and of four nodes
    for tile_elems in (fenchel._TILE_ELEMS, 300, 4 * grid.node_count):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fenchel, "_TILE_ELEMS", tile_elems)
            res = inf_convolution(*fns)
        assert res.out.values.tobytes() == vals.tobytes()  # signs of zero included
        assert np.array_equal(np.signbit(res.out.values), np.signbit(vals))
        assert res.argmin.dtype == np.int64
        assert np.array_equal(res.argmin, arg)


@pytest.mark.parametrize("shape", [(20001,), (121, 121)])
def test_infconv_memory_is_bounded_by_tile_and_nodes(shape):
    g = Grid(tuple((-1.0, 1.0, n) for n in shape))
    rng = np.random.default_rng(5)
    f, h = GridFn(g, rng.normal(size=shape)), GridFn(g, rng.normal(size=shape))
    tracemalloc.start()
    try:
        inf_convolution(f, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all (x, y) sums at once would be 2.4 GB in 1-D and 1.0 GB at 121²
    assert peak < 8e6


def test_infconv_of_convex_is_convex(rng):
    g = Grid.line(-4, 4, 201)
    f = random_convex_gridfn(rng, g)
    h = random_convex_gridfn(rng, g)
    out = inf_convolution(f, h).out
    assert discrete_convexity_check(out, tol=1e-10)


def test_infconv_requires_same_geometry():
    f = sample(FnAtom("abs"), Grid.line(-2, 2, 41))
    h = sample(FnAtom("abs"), Grid.line(-2, 2, 43))
    with pytest.raises(GridMismatchError):
        inf_convolution(f, h)


def test_infconv_2d_matches_direct(rng):
    g = Grid.box((-1, 1, 9), (-1, 1, 9))
    f = sample(FnAtom("sqnorm2"), g)
    h = sample(FnAtom("l1norm"), g)
    res = inf_convolution(f, h)
    # independent dense check at a few nodes
    nodes = g.nodes()
    fv, hv = f.values.ravel(), h.values.ravel()
    for k in (0, 12, 40, 80):
        x = nodes[k]
        best = np.inf
        for j in range(nodes.shape[0]):
            d = x - nodes[j]
            i = g.nearest_index(d)
            di = np.array([g.coords(0)[i[0]], g.coords(1)[i[1]]])
            if np.max(np.abs(di - d)) < 1e-9:
                best = min(best, fv[j] + h.values[i])
        assert res.out.values.ravel()[k] == pytest.approx(best, abs=1e-12)


def test_infconv_2d_refuses_grids_over_the_pair_cap():
    g = Grid.box((-1, 1, 501), (-1, 1, 501))  # 188251 (x, y) pairs per axis
    f = GridFn(g, np.zeros(g.shape))
    with pytest.raises(ParameterError, match="35438439001"):
        inf_convolution(f, f)
    # the benchmark's 85² grid centred on 0 has 5419 pairs per axis
    assert 5419**2 <= MAX_DIRECT_PAIRS < 188251**2


def test_infconv_1d_refuses_grids_over_the_pair_cap():
    g = Grid.line(-1, 1, 51641)  # 2000094661 (x, y) pairs, about 3 n² / 4
    f = GridFn(g, np.zeros(51641))
    with pytest.raises(ParameterError, match="2000094661"):
        inf_convolution(f, f)
    # 51639 nodes have 1999939741 pairs; the benchmark's 4001 have 12006001
    assert _axis_pairs(51639, 25819) <= MAX_DIRECT_PAIRS


def test_minkowski_fast_path_matches_brute(rng):
    for _ in range(5):
        n, m = int(rng.integers(4, 30)), int(rng.integers(4, 30))
        from conftest import random_convex_values

        v = random_convex_values(rng, n)
        w = random_convex_values(rng, m)
        H = minkowski_infconv_convex(v, w)
        ref = np.full(n + m - 1, np.inf)
        for i in range(n):
            for j in range(m):
                ref[i + j] = min(ref[i + j], v[i] + w[j])
        assert np.max(np.abs(H - ref)) <= 1e-12


@pytest.mark.parametrize("shapes", [((9, 13), (6, 4)), ((5, 7), (11, 1)), ((1, 30), (1, 17))])
def test_minkowski_merge_is_the_plain_loop_bit_for_bit(rng, shapes):
    # row k is a convex sequence at slope scale 10^k, so increments mix
    # magnitudes; a one-column g has no increments at all
    F, G = (np.stack([random_convex_values(rng, s[1], slope_scale=10.0 ** k) for k in range(s[0])])
            for s in shapes)
    H = minkowski_infconv_convex(F, G)
    assert H.tobytes() == brute_row_minkowski(F, G, range(H.shape[0])).tobytes()
    rows = [0, H.shape[0] - 1, H.shape[0] // 2]
    H = minkowski_infconv_convex(F, G, rows=rows)
    assert H.tobytes() == brute_row_minkowski(F, G, rows).tobytes()


def test_infconv_dual_identity_examples():
    g = Grid.line(-6, 6, 1201)
    f = sample(FnAtom("power", (2.0,)), g)
    assert infconv_dual_check(f, f, Grid.line(-2, 2, 401)) <= 1e-3
    a = sample(FnAtom("abs"), g)
    c = sample(FnAtom("indicator", (-1.0, 1.0)), g)
    assert infconv_dual_check(a, c, Grid.line(-0.9, 0.9, 181)) <= 1e-3
    p = sample(FnAtom("point", (0.0,)), g)
    assert infconv_dual_check(f, p, Grid.line(-2, 2, 401)) <= 1e-9


# ---- subdifferential and max formula ----------------------------------------


def test_subdifferential_abs_at_zero():
    g = Grid.line(-2, 2, 401)
    f = sample(FnAtom("abs"), g)
    s = subdifferential(f, g.zero_index(0), epsilon=1e-9, dual_grid=Grid.line(-2, 2, 401))
    slopes = s.slopes.ravel()
    assert slopes.min() == -1.0 and slopes.max() == 1.0
    assert np.all(np.abs(slopes) <= 1.0 + 1e-12)
    assert slopes.size == 201  # every dual node in [-1, 1]


def test_subdifferential_smooth_width():
    g = Grid.line(-2, 2, 401)
    h = g.spacing[0]
    f = sample(FnAtom("power", (2.0,)), g)
    i1 = int(np.argmin(np.abs(g.coords(0) - 1.0)))
    eps = h * h / 4
    s = subdifferential(f, i1, epsilon=eps, dual_grid=Grid.line(-2, 2, 801))
    slopes = s.slopes.ravel()
    # eps-subdifferential of a quadratic is the gradient +- sqrt(2 eps)
    assert np.all(np.abs(slopes - 1.0) <= math.sqrt(2 * eps) + 1e-9)
    assert slopes.size >= 1


def test_subdifferential_empty_for_negsqrt_at_zero():
    # the truncated function's one-sided slopes at 0 sit below -1/sqrt(h),
    # which escapes any fixed dual window as the grid refines: the set
    # read through a fixed window is empty, matching the continuum -sqrt(x)
    g = Grid.line(0, 4, 4001)
    f = sample(FnAtom("negsqrt"), g)
    s = subdifferential(f, 0, epsilon=1e-9, dual_grid=Grid.line(-5, 5, 201))
    assert s.slopes.size == 0


def test_subdifferential_requires_finite_value():
    g = Grid.line(-2, 2, 5)
    f = sample(FnAtom("indicator", (-1.0, 1.0)), g)
    with pytest.raises(ImproperFunctionError):
        subdifferential(f, 0)  # f(-2) = +inf


def test_max_formula_abs_both_directions():
    g = Grid.line(-2, 2, 401)
    f = sample(FnAtom("abs"), g)
    i0 = g.zero_index(0)
    dg = Grid.line(-2, 2, 401)
    q, m = max_formula_check(f, i0, +1.0, epsilon=1e-9, dual_grid=dg)
    assert q == pytest.approx(1.0, abs=1e-12) and m == 1.0
    q2, m2 = max_formula_check(f, i0, -1.0, epsilon=1e-9, dual_grid=dg)
    assert q2 == pytest.approx(1.0, abs=1e-12) and m2 == 1.0


def test_max_formula_smooth_case():
    g = Grid.line(-2, 2, 401)
    h = g.spacing[0]
    f = sample(FnAtom("power", (2.0,)), g)
    i1 = int(np.argmin(np.abs(g.coords(0) - 1.0)))
    q, m = max_formula_check(f, i1, 1.0, epsilon=h * h / 4, dual_grid=Grid.line(-2, 2, 801))
    assert abs(q - 1.0) <= 2 * h
    assert abs(m - 1.0) <= 2 * h


def test_max_formula_boundary_error():
    g = Grid.line(-2, 2, 41)
    f = sample(FnAtom("abs"), g)
    with pytest.raises(GridMismatchError):
        max_formula_check(f, 0, 1.0)


# ---- coercivity -------------------------------------------------------------


def test_coercivity_power2():
    rep = coercivity_check(sample(FnAtom("power", (2.0,)), Grid.line(-5, 5, 501)))
    assert rep.growth_slope > 0 and rep.coercive
    assert all(bounded for c, bounded in rep.level_sets_bounded if c < 12.5)


def test_coercivity_constant():
    rep = coercivity_check(sample(FnAtom("const", (0.0,)), Grid.line(-5, 5, 501)))
    assert rep.growth_slope == 0.0 and not rep.coercive
    assert not any(bounded for _, bounded in rep.level_sets_bounded)


def test_coercivity_exp_flat_left_tail():
    rep = coercivity_check(sample(FnAtom("exp"), Grid.line(-10, 10, 2001)))
    assert not rep.coercive  # exp(-t)/t -> 0: the left tail never climbs


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 7), st.integers(2, 7)),
    lo=st.tuples(st.sampled_from([-3.0, -1.0, 0.0, 0.5]), st.sampled_from([-2.0, -0.5, 1.0])),
    data=st.data(),
)
def test_coercivity_2d_matches_a_brute_boundary_scan(shape, lo, data):
    grid = Grid(tuple((a, a + 2.0, n) for a, n in zip(lo, shape)))
    vals = data.draw(st.lists(
        st.one_of(st.integers(-20, 20).map(lambda k: k / 4), st.just(np.inf)),
        min_size=grid.node_count, max_size=grid.node_count,
    ).filter(lambda v: any(map(math.isfinite, v))))
    f = GridFn(grid, np.reshape(vals, shape))
    rep = coercivity_check(f)
    slope, scan, coercive = brute_coercivity(f)
    assert np.float64(rep.growth_slope).tobytes() == np.float64(slope).tobytes()
    assert rep.level_sets_bounded == scan
    assert rep.coercive == coercive


# ---- duality ----------------------------------------------------------------


def test_duality_quadratic_pair():
    g = Grid.line(-6, 6, 1201)
    f = sample(FnAtom("power", (2.0,)), g)
    res = fenchel_duality_gap(f, f, [[1.0]], Grid.line(-4, 4, 801), Grid.line(-4, 4, 801))
    assert abs(float(res.primal)) <= 1e-6
    assert abs(float(res.gap)) <= 1e-6


def test_duality_interval_vs_abs():
    g = Grid.line(-6, 6, 1201)
    f = sample(FnAtom("indicator", (1.0, 2.0)), g)
    a = sample(FnAtom("abs"), g)
    res = fenchel_duality_gap(f, a, [[1.0]], Grid.line(-4, 4, 801), Grid.line(-2, 2, 401))
    assert float(res.primal) == pytest.approx(1.0, abs=1e-9)
    assert float(res.dual) == pytest.approx(1.0, abs=1e-3)


def test_duality_point_pair():
    g = Grid.line(-6, 6, 1201)
    f = sample(FnAtom("point", (0.0,)), g)
    res = fenchel_duality_gap(f, f, [[1.0]], Grid.line(-4, 4, 801), Grid.line(-4, 4, 801))
    assert float(res.primal) == 0.0 and float(res.dual) == pytest.approx(0.0, abs=1e-12)


def test_duality_infeasible_is_inf():
    g = Grid.line(-6, 6, 1201)
    f = sample(FnAtom("point", (0.0,)), g)
    h = sample(FnAtom("indicator", (2.0, 3.0)), g)
    res = fenchel_duality_gap(f, h, [[1.0]], Grid.line(-4, 4, 801), Grid.line(-4, 4, 801))
    assert float(res.primal) == math.inf
    assert float(res.gap) == math.inf  # extended-real convention
    # both sums overflow: primal = dual = +inf, and the gap is +inf, not inf - inf
    c = sample(FnAtom("const", (1e308,)), Grid.line(-1, 1, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fenchel_duality_gap(c, c, [[1.0]], default_dual_grid(c), default_dual_grid(c))
    assert (res.primal, res.dual, res.gap) == (math.inf, math.inf, math.inf)


@pytest.mark.parametrize("T", [[[math.inf]], [[math.nan]], [[-math.inf]]])
def test_duality_refuses_a_non_finite_T(T):
    f = sample(FnAtom("quad", (1.0, 0.0)), Grid.line(-4, 4, 41))
    with pytest.raises(ParameterError, match="T must have finite entries"):
        fenchel_duality_gap(f, f, T, default_dual_grid(f), default_dual_grid(f))


def test_coercivity_continuity_duality_shadow():
    """Coercive f has a conjugate finite on a neighbourhood of 0; the
    non-coercive exp does not (its conjugate is +inf for y < 0)."""
    g = Grid.line(-6, 6, 1201)
    dual = Grid.line(-0.5, 0.5, 101)
    fq = sample(FnAtom("power", (2.0,)), g)
    assert coercivity_check(fq).coercive
    assert np.all(np.isfinite(conjugate(fq, dual).dual.values))
    fe = sample(FnAtom("exp"), Grid.line(-10, 3, 1201))
    assert not coercivity_check(fe).coercive
    xstar = sample(FnAtom("xlogx"), dual)  # the true conjugate: +inf left of 0
    assert np.any(np.isinf(xstar.values))


def test_conjugate_2d_is_convex(rng):
    g = Grid.box((-2, 2, 15), (-2, 2, 15))
    f = GridFn(g, rng.normal(size=(15, 15)) * 2)
    res = conjugate(f, Grid.box((-3, 3, 21), (-3, 3, 21)))
    assert discrete_convexity_check(res.dual, tol=1e-10)


def test_conjugate_2d_separable_matches_1d_products():
    # f(x1, x2) = x1^2/2 + x2^2/2 has conjugate y1^2/2 + y2^2/2
    g = Grid.box((-4, 4, 161), (-4, 4, 161))
    f = sample(FnAtom("sqnorm2"), g)
    dual = Grid.box((-2, 2, 81), (-2, 2, 81))
    res = conjugate(f, dual)
    y1, y2 = np.meshgrid(dual.coords(0), dual.coords(1), indexing="ij")
    assert np.max(np.abs(res.dual.values - (y1 ** 2 + y2 ** 2) / 2)) <= 1e-3


def test_duality_2d_identity_map():
    g = Grid.box((-4, 4, 161), (-4, 4, 161))
    f = sample(FnAtom("sqnorm2"), g)
    dual = Grid.box((-3, 3, 121), (-3, 3, 121))
    res = fenchel_duality_gap(f, f, [[1.0, 0.0], [0.0, 1.0]], dual, dual)
    assert abs(float(res.primal)) <= 1e-6
    assert -1e-9 <= float(res.gap) <= 1e-3


def test_duality_2d_to_1d_map():
    g2 = Grid.box((-4, 4, 161), (-4, 4, 161))
    g1 = Grid.line(-10, 10, 801)
    f = sample(FnAtom("sqnorm2"), g2)
    g = sample(FnAtom("power", (2.0,)), g1)
    res = fenchel_duality_gap(
        f, g, [[1.0, 1.0]], Grid.box((-3, 3, 121), (-3, 3, 121)), Grid.line(-6, 6, 481)
    )
    assert abs(float(res.primal)) <= 1e-6
    assert float(res.gap) >= -1e-9
