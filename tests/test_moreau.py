import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (brute_certificate, brute_envelope_1d, brute_node_minimum, brute_prox,
                      random_convex_gridfn)
from convexdesk import fenchel, moreau
from convexdesk.atoms import FnAtom, sample
from convexdesk.errors import (
    GridMismatchError,
    NonconvexError,
    ParameterError,
    WidenGridError,
)
from convexdesk.grids import Grid, GridFn, discrete_convexity_check
from convexdesk.monotone import resolvent, yosida
from convexdesk.moreau import (
    distance_via_infconv_check,
    moreau_decomposition_residual,
    moreau_envelope,
    project,
    prox,
)


# ---- prox -------------------------------------------------------------------


def test_prox_indicator_projects():
    f = sample(FnAtom("indicator", (-1.0, 1.0)), Grid.line(-4, 4, 801))
    assert prox(f, 1.0, 3.0).point == (1.0,)


def test_prox_soft_threshold():
    f = sample(FnAtom("abs"), Grid.line(-4, 4, 801))
    assert prox(f, 1.0, 0.4).point == (0.0,)  # dead zone
    assert prox(f, 1.0, 3.0).point == (2.0,)  # x - lambda


def test_prox_matches_brute_force_argmin(rng):
    g = Grid.line(-4, 4, 1601)
    f = random_convex_gridfn(rng, g)
    for x in rng.uniform(-3, 3, 10):
        r = prox(f, 1.0, x, check_convexity=False)
        obj = f.values + (x - g.coords(0)) ** 2 / 2.0
        assert r.envelope <= obj.min() + 1e-15
        assert abs(r.point[0] - g.coords(0)[np.argmin(obj)]) <= g.spacing[0]


def test_prox_envelope_value_consistent():
    f = sample(FnAtom("power", (2.0,)), Grid.line(-4, 4, 801))
    r = prox(f, 1.0, 1.0)
    # envelope value = f(point) + |x - point|^2 / (2 lambda)
    assert r.envelope == pytest.approx(r.point[0] ** 2 / 2 + (1.0 - r.point[0]) ** 2 / 2, abs=1e-12)
    assert r.point[0] == pytest.approx(0.5, abs=1e-9)


def test_prox_rejects_nonconvex_bad_lambda_outside_query():
    g = Grid.line(-2, 2, 101)
    f = GridFn(g, -np.abs(g.coords(0)))
    with pytest.raises(NonconvexError):
        prox(f, 1.0, 0.0)
    a = sample(FnAtom("abs"), g)
    with pytest.raises(ParameterError):
        prox(a, 0.0, 0.0)
    with pytest.raises(GridMismatchError):
        prox(a, 1.0, 5.0)


def test_nan_lambda_is_refused():
    # a NaN lambda passed `lam <= 0` and gave "envelope": NaN
    a = sample(FnAtom("abs"), Grid.line(-1, 1, 5))
    with pytest.raises(ParameterError, match="lambda must be > 0, got nan"):
        prox(a, math.nan, 0.5)
    with pytest.raises(ParameterError, match="lambda must be > 0, got nan"):
        moreau_envelope(a, math.nan)
    with pytest.raises(GridMismatchError, match=r"query \(9.0,\) is outside the grid box"):
        prox(a, 1.0, np.float64(9.0))


def test_nan_convexity_tol_is_refused():
    # a NaN tol reported f convex, and prox ran on it and returned (1.0,)
    f = GridFn(Grid.line(-1, 1, 3), [0.0, 1.0, 0.0])
    with pytest.raises(ParameterError, match="tolerance must not be NaN"):
        prox(f, 1.0, 0.2, convexity_tol=math.nan)
    with pytest.raises(ParameterError, match="tolerance must not be NaN"):
        moreau_envelope(f, 1.0, convexity_tol=math.nan)
    assert prox(f, 1.0, 0.2, check_convexity=False, convexity_tol=math.nan).point == (1.0,)


def test_queries_on_one_function_check_it_once_per_tol(convexity_scans):
    g = Grid.box((-2, 2, 41), (-2, 2, 33))
    f = sample(FnAtom("sqnorm2"), g)
    points = [prox(f, 0.5, x).point for x in [(1.0, 0.5), (-0.3, 1.2), (0.0, 0.0)]]
    env = moreau_envelope(f, 0.5)
    res = resolvent(f, 0.5, (1.0, 0.5))
    yos = yosida(f, 0.5, (1.0, 0.5))
    assert convexity_scans == [1e-9]
    assert prox(f, 0.5, (1.0, 0.5), convexity_tol=1e-6).point == points[0] == res.x
    assert moreau_envelope(f, 0.5, convexity_tol=1e-6) == env
    assert convexity_scans == [1e-9, 1e-6]
    assert np.array_equal(yosida(f, 0.5, (1.0, 0.5), check_convexity=False), yos)
    assert convexity_scans == [1e-9, 1e-6]


def test_nonconvex_function_reports_the_same_violation_every_call(convexity_scans):
    g = Grid.box((-1, 1, 9), (-1, 1, 9))
    x0, x1 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
    f = GridFn(g, x0 * x1)
    rep = discrete_convexity_check(f)
    assert not rep
    calls = [lambda: prox(f, 1.0, (0.1, 0.2)), lambda: moreau_envelope(f, 1.0),
             lambda: resolvent(f, 1.0, (0.1, 0.2)), lambda: yosida(f, 1.0, (0.1, 0.2))] * 2
    for call in calls:
        with pytest.raises(NonconvexError, match=re.escape(f"violation at {rep.violation_index}")):
            call()
    assert convexity_scans == [1e-9]
    assert discrete_convexity_check(GridFn(g, f.values)) == rep


def test_prox_2d_projection():
    g = Grid.box((-2, 2, 81), (-2, 2, 81))
    f = sample(FnAtom("sqnorm2"), g)
    r = prox(f, 1.0, (1.0, 0.5))
    assert np.allclose(r.point, (0.5, 0.25), atol=1e-9)


PROX_VALUES = [0.0, -0.0, 0.1, 0.2, 0.5, 1.0, -0.3, np.inf, 1e308, 1.7e308, -1e308, -1.7e308]


@st.composite
def prox_cases(draw):
    """A 1-D or 2-D grid on [-half, half] per axis, values from PROX_VALUES
    (ties between one-decimal values, +inf patches, values near the float
    limit), and a query on or off the nodes."""
    shape = draw(st.one_of(st.tuples(st.integers(3, 12)),
                           st.tuples(st.integers(3, 7), st.integers(3, 7))))
    half = draw(st.sampled_from([1.0, 2.5, 1e-3]))
    g = Grid(tuple((-half, half, n) for n in shape))
    size = int(np.prod(shape))
    vals = draw(st.lists(st.sampled_from(PROX_VALUES), min_size=size, max_size=size))
    x = [draw(st.one_of(st.sampled_from(g.coords(ax).tolist()), st.floats(-half, half)))
         for ax in range(g.dim)]
    return g, vals, x


@settings(max_examples=400, deadline=None)
@given(case=prox_cases(), lam=st.sampled_from([1e-308, 1e-300, 1e-3, 0.5, 1.0, 1e6, 1e100, 1e300]))
@example(case=(Grid.box((-1, 1, 3), (-1, 1, 3)), [0.0] * 9, [0.3, 0.3]), lam=1.0)  # axes tie
@example(case=(Grid.line(-1, 1, 3), [0.0, 0.0, 0.5], [1.0]), lam=1.0)  # the envelope refines
def test_prox_is_the_plain_dense_minimum_and_refinement_bit_for_bit(case, lam):
    g, vals, x = case
    f = GridFn(g, np.reshape(vals, g.shape))
    if not f.is_proper:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = prox(f, lam, x, check_convexity=False)
        env = moreau_envelope(f, lam, check_convexity=False).values
    point, value = brute_prox(f, lam, x)
    assert np.asarray(res.point).tobytes() == np.asarray(point).tobytes()
    assert np.float64(res.envelope).tobytes() == np.float64(value).tobytes()
    if g.dim == 1:  # the 1-D envelope takes the same refinement at every node
        brute = [brute_prox(f, lam, xk)[1] for xk in g.coords(0)]
        assert env.tobytes() == np.asarray(brute).tobytes()


@pytest.mark.parametrize("z, expect", [(2.4, 2.5), (0.77, 0.5), (-2.2689734684588077, -2.5),
                                       (-1.2e-12, 0.5)])
def test_prox_takes_the_minimizer_where_every_node_overflows(z, expect):
    # at lam = 1e-320, ||z - y||^2 / (2 lam) is +inf at every node; once
    # node 0 (-2.5) was returned for every query.  At z = -1.2e-12, lam f
    # at -0.5 (1.7e-12) outweighs its nearness to z (2.4e-12 in ||z - y||^2)
    f = GridFn(Grid.line(-2.5, 2.5, 6), np.array([1.7e308, 0.1, 1.7e308, 0.1, 1e308, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = prox(f, 1e-320, z, check_convexity=False)
    assert res.point == (expect,)
    assert res.envelope == np.inf
    # 2-D: the same minimizer per axis, ties to the smallest flat index
    g = GridFn(Grid.box((-2.5, 2.5, 6), (-1, 1, 3)), np.repeat(f.values[:, None], 3, axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert prox(g, 1e-320, (z, 0.5), check_convexity=False).point == (expect, 0.0)


QUERY_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0]


@st.composite
def query_cases(draw):
    """A 1-D or 2-D grid whose axes start at 0.0, -0.0 or a negative lo,
    values from QUERY_VALUES with +inf patches, and a query on a node, at
    a box edge, at -0.0 where lo is 0.0, or inside the box."""
    shape = draw(st.one_of(st.tuples(st.integers(2, 12)),
                           st.tuples(st.integers(2, 6), st.integers(2, 6))))
    axes = []
    for n in shape:
        lo = draw(st.sampled_from([0.0, -0.0, -1.0, -2.5]))
        axes.append((lo, lo + draw(st.sampled_from([1.0, 2.0, 5.0])), n))
    g = Grid(tuple(axes))
    vals = draw(st.lists(st.sampled_from(QUERY_VALUES + [np.inf]), min_size=g.node_count,
                         max_size=g.node_count))
    x = [draw(st.one_of(st.sampled_from(g.coords(ax).tolist() + [lo, hi, -0.0 if lo == 0.0 else lo]),
                        st.floats(lo, hi)))
         for ax, (lo, hi, _) in enumerate(g.axes)]
    return GridFn(g, np.reshape(vals, g.shape)), x


@settings(max_examples=300, deadline=None)
@given(case=query_cases(), lam=st.sampled_from([1e-3, 0.5, 1.0, 2.0, 10.0]))
@example(case=(GridFn(Grid.line(0.0, 1.0, 3), [0.0, 1.0, 0.5]), [-0.0]), lam=1.0)  # clip order
def test_prox_and_certificate_match_the_plain_loops_bit_for_bit(case, lam):
    # the point, the envelope, y and eps of one query against python loops
    # that follow the library's expression trees, warnings as errors
    f, x = case
    if not f.is_proper:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = prox(f, lam, x, check_convexity=False)
        r = resolvent(f, lam, x, check_convexity=False)
    point, value = brute_prox(f, lam, x)
    y, eps = brute_certificate(f, lam, x, point)
    assert np.asarray(res.point).tobytes() == np.asarray(point).tobytes()
    assert np.float64(res.envelope).tobytes() == np.float64(value).tobytes()
    assert np.asarray(r.x).tobytes() == np.asarray(point).tobytes()
    assert np.asarray(r.y).tobytes() == np.asarray(y).tobytes()
    assert np.float64(r.certificate_eps).tobytes() == np.float64(eps).tobytes()


# linear data whose squares (x - y)^2 overflow at two of three nodes
SQUARES_OVERFLOW = GridFn(Grid.line(0, 1e300, 3), [-1e300, -5e299, 0.0])


def test_prox_takes_the_exact_node_where_the_squares_overflow():
    # y = 1e300 with envelope 0.0 was returned: the nodes whose objective
    # overflowed were skipped.  The exact minimum is -5e299 at y = 0, as
    # for the same data scaled by 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = prox(SQUARES_OVERFLOW, 1e300, 1e300)
        small = prox(GridFn(Grid.line(0, 1, 3), [-1.0, -0.5, 0.0]), 1.0, 1.0)
    assert (res.point, res.envelope) == ((0.0,), -5e299)
    assert (small.point, small.envelope) == ((0.0,), -0.5)


def test_envelope_takes_the_exact_node_minima_where_the_squares_overflow():
    # the exhaustive envelope shares the node minimum: it was [-1e300, -5e299, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = moreau_envelope(SQUARES_OVERFLOW, 1e300).values
    assert env.tolist() == [-1e300, -8.75e299, -5e299]


def test_prox_where_every_objective_overflows_is_never_decided_by_a_nan():
    # at 2.5e299 every objective overflows and lam f is -inf at two nodes:
    # -inf + inf was nan ("invalid value encountered in add") and np.argmin
    # took the first nan.  The exact minimum is -9.6875e299 at y = 0
    g = GridFn(Grid.box((-0.0, 1e300, 6), (-1e-300, 1, 2)),
               [[0.0, 0.0], [-1e300, 0.0], [-1e300, -1e300], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = prox(SQUARES_OVERFLOW, 1e300, 2.5e299, check_convexity=False)
        for z in ([2.5e299, 0.5], [7e299, 1.0], [1e300, -1e-300]):
            got = prox(g, 1e300, z, check_convexity=False)
            resolvent(g, 1e300, z, check_convexity=False)
            yosida(g, 1e300, z, check_convexity=False)
            j, value = brute_node_minimum(g, 1e300, z)
            node = tuple(g.grid.nodes()[j].tolist())
            assert got.point == node and got.envelope == value
    assert (res.point, res.envelope) == ((0.0,), -9.6875e299)


LIMIT_VALUES = [0.0, -1.0, 1e300, -1e300, -5e299, 1.7e308, -1.7e308, np.inf]
LIMIT_AXES = [(0.0, 1e300), (-1e300, 1e300), (-0.0, 1e300), (-1e-300, 1.0), (-2.5, 2.5)]


@st.composite
def limit_cases(draw):
    """A 1-D or 2-D grid over LIMIT_AXES, values near the float limit from
    LIMIT_VALUES, and a query on a node or inside the box."""
    shape = draw(st.one_of(st.tuples(st.integers(2, 6)),
                           st.tuples(st.integers(2, 4), st.integers(2, 4))))
    g = Grid(tuple((*draw(st.sampled_from(LIMIT_AXES)), n) for n in shape))
    vals = draw(st.lists(st.sampled_from(LIMIT_VALUES), min_size=g.node_count,
                         max_size=g.node_count))
    x = [draw(st.one_of(st.sampled_from(g.coords(ax).tolist()), st.floats(lo, hi)))
         for ax, (lo, hi, _) in enumerate(g.axes)]
    return GridFn(g, np.reshape(vals, g.shape)), x


@settings(max_examples=300, deadline=None)
@given(case=limit_cases(),
       lam=st.sampled_from([1.7e308, 1e300, 1e200, 1.0, 1e-300, 1e-308, 1e-320]))
def test_node_minimum_near_the_float_limit_is_the_fraction_oracle(case, lam):
    # where the objective overflows, the node is the exact minimizer over
    # those nodes and the value the exact one, rounded; no warning, no nan
    f, x = case
    if not f.is_proper:
        return
    coords = [f.grid.coords(ax) for ax in range(f.grid.dim)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j, best = moreau._node_minimum(coords, f.values.ravel(), lam, np.array([x]))
        res = prox(f, lam, x, check_convexity=False)
        resolvent(f, lam, x, check_convexity=False)
    jb, value = brute_node_minimum(f, lam, x)
    assert int(j[0]) == jb
    assert np.float64(best[0]).tobytes() == np.float64(value).tobytes()
    assert res.envelope <= value


@pytest.mark.parametrize("lam", [1e-320, 1e-312])
def test_node_minimum_where_every_objective_overflows_is_the_fraction_oracle_on_long_lines(lam):
    # every objective overflows off the nodes: the exact pass pre-selects by
    # lam f + sq / 2 within its rounding, which must keep the minimizer
    rng = np.random.default_rng(7)
    for shape in ((400,), (20, 20)):
        g = Grid(tuple((-2.0, 2.0, n) for n in shape))
        vals = rng.choice([0.0, 1.0, -1e308, 1e308, 1.7e308, np.inf], size=shape)
        f = GridFn(g, vals)
        coords = [g.coords(ax) for ax in range(g.dim)]
        for x in rng.uniform(-2.0, 2.0, size=(5, g.dim)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                j, best = moreau._node_minimum(coords, f.values.ravel(), lam, x[None, :])
            jb, value = brute_node_minimum(f, lam, x)
            assert (int(j[0]), np.float64(best[0]).tobytes()) == (jb, np.float64(value).tobytes())


# ---- envelope ---------------------------------------------------------------


@pytest.mark.parametrize("shape", [(50,), (20, 20)])
def test_envelope_windows_past_the_pair_cap_are_refused(monkeypatch, shape):
    # f = 0 with lam = 1e20: the transform's slopes x / lam lie within
    # rounding of every dual node, so each pass has L n^2 window nodes
    g = Grid.line(-1, 1, 50) if len(shape) == 1 else Grid.box((-1, 1, 20), (-1, 1, 20))
    f = GridFn(g, np.zeros(shape))
    windows = 2500 if len(shape) == 1 else 8000
    expected = moreau_envelope(f, 1e20).values
    monkeypatch.setattr(fenchel, "MAX_DIRECT_PAIRS", windows - 1)
    with pytest.raises(ParameterError, match=str(windows)):
        moreau_envelope(f, 1e20)
    monkeypatch.setattr(fenchel, "MAX_DIRECT_PAIRS", windows)
    assert moreau_envelope(f, 1e20).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("x", [0.9, 0.0, -0.55])
def test_prox_near_the_float_limit_is_the_node_minimum_without_warnings(x):
    f = GridFn(Grid.line(-1, 1, 7), [1e308, 1.7e308, 1.7e308, 1e307, 1e308, 1.5e308, 1.7e308])
    lam = 1e-308
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the objective overflows to +inf silently
        res = prox(f, lam, x, check_convexity=False)
    xs = f.grid.coords(0)
    with np.errstate(over="ignore"):
        obj = f.values + (xs - x) ** 2 / (2.0 * lam)
    j = int(np.argmin(obj))  # the smallest index among ties
    assert res.point == (xs[j],)
    assert res.envelope == obj[j]


def test_envelope_is_huber():
    f = sample(FnAtom("abs"), Grid.line(-3, 3, 601))
    env = moreau_envelope(f, 1.0)
    xs = f.grid.coords(0)
    huber = np.where(np.abs(xs) <= 1.0, xs ** 2 / 2, np.abs(xs) - 0.5)
    assert np.max(np.abs(env.values - huber)) <= 1e-6
    i = np.argmin(np.abs(xs - 0.5))
    assert env.values[i] == pytest.approx(0.125, abs=1e-9)
    j = np.argmin(np.abs(xs - 2.0))
    assert env.values[j] == pytest.approx(1.5, abs=1e-9)


def test_envelope_point_indicator_is_quadratic():
    g = Grid.line(-2, 2, 401)
    f = sample(FnAtom("point", (0.0,)), g)
    for lam in (0.5, 1.0, 2.0):
        env = moreau_envelope(f, lam)
        assert np.max(np.abs(env.values - g.coords(0) ** 2 / (2 * lam))) <= 1e-12


def test_envelope_halves_quadratic():
    g = Grid.line(-3, 3, 601)
    f = sample(FnAtom("power", (2.0,)), g)
    env = moreau_envelope(f, 1.0)
    # smooth case: guarded refinement is exact up to the f-chord error h^2/8
    h = g.spacing[0]
    assert np.max(np.abs(env.values - g.coords(0) ** 2 / 4)) <= h * h / 4


def test_envelope_matches_brute_force(rng):
    g = Grid.line(-2, 2, 201)
    f = random_convex_gridfn(rng, g)
    env = moreau_envelope(f, 0.7)
    ref = brute_envelope_1d(f, 0.7)
    assert np.all(env.values <= ref + 1e-15)
    assert np.max(np.abs(env.values - ref)) <= 1e-4  # refinement may undercut nodes


def test_envelope_finite_and_below_f_with_infinities():
    f = sample(FnAtom("indicator", (-1.0, 1.0)), Grid.line(-4, 4, 401))
    env = moreau_envelope(f, 1.0)
    assert np.all(np.isfinite(env.values))
    assert np.all(env.values <= f.values + 1e-12)
    assert discrete_convexity_check(env, tol=1e-9)


def test_envelope_monotone_in_lambda(rng):
    g = Grid.line(-3, 3, 301)
    f = random_convex_gridfn(rng, g)
    e1 = moreau_envelope(f, 0.5)
    e2 = moreau_envelope(f, 1.5)
    assert np.all(e2.values <= e1.values + 1e-12)


# finite values whose hull slopes overflow in the conjugate kernel
SLOPES_OVERFLOW = [1e308, 1e307, 0.0, 1e307, 1e308, 1.5e308, 1.7e308]
NEAR_LIMIT = [1e308, -1e308, 1.7e308, -1.7e308, 5e307, 0.0, 1.0, -3.0, np.inf]


def _envelope_node_minima(f: GridFn, lam: float, kernel_calls: list):
    """_envelope_lines on a 1-D f, counting kernel calls, warnings as errors;
    its argmin must be the smallest minimizing index."""
    kernel = moreau._conjugate_lines
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(moreau, "_conjugate_lines", lambda *a: kernel_calls.append(1) or kernel(*a))
        warnings.simplefilter("error")  # no overflow anywhere
        j, vals = moreau._envelope_lines(f.grid.coords(0), f.values[None, :], lam)
        env = moreau_envelope(f, lam, check_convexity=False)
    with np.errstate(over="ignore"):
        xs = f.grid.coords(0)
        nodes = [brute_node_minimum(f, lam, [x]) for x in xs.tolist()]
        assert j[0].tolist() == [k for k, _ in nodes]  # the smallest minimizing index
    return vals[0], np.array([m for _, m in nodes]), env


def test_envelope_near_the_float_limit_takes_the_exhaustive_minimum():
    f = GridFn(Grid.line(-1, 1, 7), SLOPES_OVERFLOW)
    calls = []
    vals, brute, env = _envelope_node_minima(f, 1.0, calls)
    assert not calls  # the bound fails on g, so the kernel never runs
    assert vals.tobytes() == brute.tobytes()
    assert np.all(env.values <= vals)
    small = GridFn(f.grid, np.array(SLOPES_OVERFLOW) * 1e-308)
    vals, brute, _ = _envelope_node_minima(small, 1.0, calls)
    assert calls  # far from the limit, the kernel runs
    assert vals.tobytes() == brute.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    vals=st.lists(st.sampled_from(NEAR_LIMIT), min_size=3, max_size=11),
    lam=st.sampled_from([1.0, 0.01, 1e-300, 1e-308, 1e300]),
)
@example(vals=SLOPES_OVERFLOW, lam=1.0)
def test_envelope_near_the_float_limit_is_the_brute_minimum(vals, lam):
    f = GridFn(Grid.line(-1, 1, len(vals)), vals)
    if not f.is_proper:
        return
    vals, brute, env = _envelope_node_minima(f, lam, [])
    assert vals.tobytes() == brute.tobytes()
    assert np.all(env.values <= vals)


@settings(max_examples=200, deadline=None)
@given(
    vals=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, np.inf]), min_size=3, max_size=12),
    lam=st.sampled_from([1e300, 1e200, 1e100, 1.0, 0.1]),
)
@example(vals=[0.0, 1.0, 0.0, 0.0], lam=1e300)
def test_envelope_ties_between_distant_nodes_take_the_smallest_index(vals, lam):
    # for a large lam, f + (x - y)^2 / (2 lam) rounds to a tie between equal
    # values of f at nodes that are not neighbours
    f = GridFn(Grid.line(-1, 1, len(vals)), vals)
    if not f.is_proper:
        return
    got, brute, env = _envelope_node_minima(f, lam, [])  # asserts the argmin
    assert got.tobytes() == brute.tobytes()
    assert np.all(env.values <= got)


def test_envelope_near_the_float_limit_over_the_pair_cap_is_refused(monkeypatch):
    monkeypatch.setattr(moreau, "_conjugate_lines", None)  # any use of the kernel fails
    vals = np.zeros(50001)
    vals[7] = 1.7e308
    f = GridFn(Grid.line(-1, 1, 50001), vals)
    with pytest.raises(ParameterError, match="exhaustive envelope needs 2500100001 node pairs"):
        moreau_envelope(f, 1.0, check_convexity=False)


def test_envelope_2d_two_pass_matches_direct():
    g = Grid.box((-2, 2, 21), (-2, 2, 21))
    f = sample(FnAtom("l1norm"), g)
    env = moreau_envelope(f, 1.0)
    nodes = g.nodes()
    fv = f.values.ravel()
    for k in (0, 110, 220, 440):
        x = nodes[k]
        ref = np.min(fv + ((nodes - x) ** 2).sum(axis=1) / 2.0)
        assert env.values.ravel()[k] == pytest.approx(ref, abs=1e-12)


def test_envelope_2d_box_indicator_matches_direct():
    # rows and columns outside the box are +inf, so both passes see
    # lines that are partly or wholly infinite
    g = Grid.box((-2, 2, 41), (-3, 3, 31))
    x1, x2 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
    inside = (np.abs(x1 - 0.3) <= 0.8) & (np.abs(x2 + 0.5) <= 1.1)
    f = GridFn(g, np.where(inside, 0.5 * x1 - x2, np.inf))
    env = moreau_envelope(f, 0.7)
    nodes = g.nodes()
    fv = f.values.ravel()
    for k in range(0, nodes.shape[0], 7):
        ref = np.min(fv + ((nodes - nodes[k]) ** 2).sum(axis=1) / 1.4)
        assert abs(env.values.ravel()[k] - ref) <= 1e-12


def test_envelope_2d_leading_block_of_infinite_rows_matches_direct():
    # 101^2: the row pass runs in blocks of 40 lines, and the first 40
    # rows lie outside the box, so its first block has no finite value
    g = Grid.box((-1, 1, 101), (-1, 1, 101))
    x1, x2 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
    inside = (x1 >= -0.19) & (np.abs(x2) <= 0.5)
    f = GridFn(g, np.where(inside, x1 + 0.5 * x2, np.inf))
    assert not np.isfinite(f.values[:40]).any()
    env = moreau_envelope(f, 0.3)
    nodes = g.nodes()
    fv = f.values.ravel()
    for k in range(0, nodes.shape[0], 37):
        ref = np.min(fv + ((nodes - nodes[k]) ** 2).sum(axis=1) / 0.6)
        assert abs(env.values.ravel()[k] - ref) <= 1e-12


def test_envelope_1d_memory_is_linear(rng):
    import tracemalloc

    n = 200_001
    f = sample(FnAtom("abs"), Grid.line(-3, 3, n))
    tracemalloc.start()
    try:
        env = moreau_envelope(f, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * n  # a dense n x n objective would need 8 n^2 bytes
    xs = f.grid.coords(0)
    for k in rng.choice(n, 64, replace=False):
        assert env.values[k] <= np.min(f.values + (xs[k] - xs) ** 2 / 2.0) + 1e-15


def test_prox_firmly_nonexpansive(rng):
    g = Grid.line(-6, 6, 1201)
    f = random_convex_gridfn(rng, g, slope_scale=2.0)
    for _ in range(50):
        x, y = rng.uniform(-4, 4, 2)
        px = prox(f, 1.0, x, check_convexity=False).point[0]
        py = prox(f, 1.0, y, check_convexity=False).point[0]
        d = px - py
        assert d * d <= d * (x - y) + 1e-8
        assert abs(d) <= abs(x - y) + 1e-8  # plain nonexpansivity


# ---- decomposition, projection, distance -------------------------------------


def test_moreau_decomposition_examples():
    g = Grid.line(-4, 4, 801)
    h = g.spacing[0]
    fi = sample(FnAtom("indicator", (-1.0, 1.0)), g)
    assert moreau_decomposition_residual(fi, 3.0) <= 2 * h
    fq = sample(FnAtom("power", (2.0,)), g)
    assert moreau_decomposition_residual(fq, 1.0) <= 2 * h
    fa = sample(FnAtom("abs"), g)
    assert moreau_decomposition_residual(fa, 0.0) <= 1e-12  # symmetry: both proxes 0


def test_moreau_decomposition_widen_grid_error():
    g = Grid.line(-4, 4, 801)
    fq = sample(FnAtom("power", (2.0,)), g)
    with pytest.raises(WidenGridError):
        moreau_decomposition_residual(fq, 3.0, dual_grid=Grid.line(-1.4, 1.4, 101))


def test_moreau_decomposition_names_the_boundary_axis():
    # f is the indicator of the origin, so f* = 0 and prox_{f*}(x) = x
    g = Grid.box((-2, 2, 41), (-2, 2, 41))
    f = GridFn(g, np.where((g.nodes() == 0).all(axis=1).reshape(g.shape), 0.0, np.inf))
    dual = Grid.box((-1.4, 1.4, 29), (-1.4, 1.4, 29))
    for x, ax in (((0.1, 1.39), 1), ((1.39, 0.1), 0)):
        with pytest.raises(WidenGridError, match=f"boundary at axis {ax};"):
            moreau_decomposition_residual(f, x, dual_grid=dual)
    assert moreau_decomposition_residual(f, (0.1, 0.2), dual_grid=dual) <= 1e-12


def test_project_examples():
    assert project((-1, 1), 3.0).tolist() == [1.0]
    assert project(((-1, 1), (-1, 1)), (3.0, 0.5)).tolist() == [1.0, 0.5]
    assert project((0, 0), 7.0).tolist() == [0.0]
    with pytest.raises(ParameterError):
        project((1, -1), 0.0)


def test_project_agrees_with_prox_of_indicator(rng):
    g = Grid.line(-4, 4, 801)
    f = sample(FnAtom("indicator", (-1.0, 1.0)), g)
    for x in rng.uniform(-3.5, 3.5, 20):
        for lam in (0.5, 1.0, 2.0):
            assert prox(f, lam, x).point[0] == pytest.approx(
                project((-1, 1), x)[0], abs=1e-12
            )


def test_distance_via_infconv():
    assert distance_via_infconv_check((-1.0, 1.0), Grid.line(-3, 3, 601)) <= 1e-9
    assert distance_via_infconv_check((0.0, 0.0), Grid.line(-3, 3, 601)) <= 1e-9
    assert distance_via_infconv_check((-3.0, 3.0), Grid.line(-3, 3, 601)) <= 1e-9


def test_prox_envelope_below_f_at_query(rng):
    from convexdesk.grids import interp_gridfn

    g = Grid.line(-4, 4, 801)
    h = g.spacing[0]
    f = random_convex_gridfn(rng, g, slope_scale=2.0)
    for x in rng.uniform(-3.5, 3.5, 30):
        r = prox(f, 1.0, x, check_convexity=False)
        fx = float(interp_gridfn(f, np.array([[x]]))[0])
        assert r.envelope <= fx + h * h  # taking y = x in the inf
