import re
import warnings

import numpy as np
import pytest

from conftest import brute_certificate, brute_fitzpatrick, brute_violating_pair, random_convex_gridfn
from convexdesk import monotone
from convexdesk.atoms import FnAtom, sample
from convexdesk.errors import ParameterError
from convexdesk.grids import Grid, GridFn
from convexdesk.monotone import (
    OperatorGraph,
    fitzpatrick,
    is_monotone,
    monotonically_related,
    resolvent,
    surjectivity_probe,
    yosida,
)
from convexdesk.moreau import moreau_envelope, prox


def identity_graph(lo=-1.0, hi=1.0, n=101):
    xs = np.linspace(lo, hi, n)[:, None]
    return OperatorGraph(xs, xs)


def subdiff_abs_graph():
    xs = np.linspace(-2, 2, 201)
    xs = xs[xs != 0]
    pairs_x = np.concatenate([xs, np.zeros(41)])
    pairs_s = np.concatenate([np.sign(xs), np.linspace(-1, 1, 41)])
    return OperatorGraph(pairs_x[:, None], pairs_s[:, None])


def test_graph_validation():
    with pytest.raises(ParameterError):
        OperatorGraph(np.empty((0, 1)), np.empty((0, 1)))
    with pytest.raises(ParameterError):
        OperatorGraph(np.zeros((3, 3)), np.zeros((3, 3)))


def test_is_monotone_identity():
    assert is_monotone(identity_graph())


def test_is_monotone_rejects_decreasing():
    xs = np.linspace(-1, 1, 51)[:, None]
    rep = is_monotone(OperatorGraph(xs, -xs))
    assert not rep
    assert rep.violating_pair is not None
    i, j = rep.violating_pair
    prod = float((xs[i, 0] - xs[j, 0]) * (-xs[i, 0] + xs[j, 0]))
    assert prod < 0


def test_is_monotone_subdiff_abs():
    assert is_monotone(subdiff_abs_graph())


def test_gradient_graphs_monotone_and_decreasing_rejected(rng):
    g = Grid.line(-2, 2, 201)
    f = random_convex_gridfn(rng, g)
    slopes = np.diff(f.values) / g.spacing[0]
    mids = (g.coords(0)[:-1] + g.coords(0)[1:]) / 2
    assert is_monotone(OperatorGraph(mids[:, None], slopes[:, None]))
    decreasing = OperatorGraph(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]))
    assert not is_monotone(decreasing)


@pytest.mark.parametrize("seed", range(6))
def test_violating_pair_is_the_smallest_pair(seed):
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(2, 30)), int(rng.integers(1, 3))
    xs, xstars = rng.normal(size=(k, d)), rng.normal(size=(k, d))
    rep = is_monotone(OperatorGraph(xs, xstars))
    tol = 1e-8 * (1.0 + np.abs(xs).max() * np.abs(xstars).max())
    assert rep.violating_pair == brute_violating_pair(xs.tolist(), xstars.tolist(), tol)


@pytest.mark.parametrize(
    "xs, xstars, pair",
    [
        ([[0.0], [np.inf]], [[1.0], [0.0]], "(0, 1)"),  # 0 + inf * 0
        ([[1.0], [1e200]], [[0.0], [1e200]], "(1, 1)"),  # 1e400 + 1e400 - 1e400 - 1e400
    ],
)
def test_is_monotone_refuses_a_nan_product_without_a_warning(xs, xstars, pair):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=f"stored pairs {re.escape(pair)} give a NaN"):
            is_monotone(OperatorGraph(np.array(xs), np.array(xstars)))


# max|x| max|x*| = 1e400: the tolerance was +inf and accepted every graph
_HUGE = OperatorGraph(np.array([[1e200], [0.0]]), np.array([[0.0], [1e200]]))


def test_is_monotone_keeps_a_finite_tolerance_past_the_float_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = is_monotone(_HUGE)  # <x0 - x1, x0* - x1*> = -1e400
    assert (rep.monotone, rep.violating_pair, rep.min_product) == (False, (0, 1), -np.inf)


def test_monotonically_related_keeps_a_finite_tolerance_past_the_float_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not monotonically_related(_HUGE, (0.0, 1e200))  # 1e200 * -1e200 against pair 0
        assert monotonically_related(_HUGE, (0.0, 0.0))
        with pytest.raises(ParameterError, match="stored pair 1 gives a NaN product"):
            monotonically_related(_HUGE, (np.inf, 1e200))  # -inf * 0 against pair 1


def test_monotonically_related_examples():
    G = identity_graph()
    assert monotonically_related(G, (0.0, 0.0))
    assert monotonically_related(G, (2.0, 5.0))  # (5-x)(2-x) >= 0 on [-1,1]
    assert not monotonically_related(G, (0.0, 1.0))  # y=0.5 violates


def test_fitzpatrick_graph_point_equality():
    G = identity_graph(-2, 2, 401)
    r = fitzpatrick(G, (1.0, 1.0))
    assert abs(float(r.value) - 1.0) <= 1e-12
    assert float(r.value) >= 1.0 - 1e-12  # minorization with equality on the graph


def test_fitzpatrick_off_graph_strict():
    G = identity_graph(-2, 2, 401)
    r = fitzpatrick(G, (1.0, -1.0))
    assert abs(float(r.value) - 0.0) <= 1e-12  # sup of -a^2 + 0a
    assert float(r.value) > -1.0  # strictly above <x, x*>


def test_fitzpatrick_singleton():
    G = OperatorGraph(np.zeros((1, 1)), np.zeros((1, 1)))
    assert float(fitzpatrick(G, (3.0, -7.0)).value) == 0.0


@pytest.mark.parametrize("dim, query", [(1, ([1.0, 2.0], [1.0, 2.0])), (1, (1.0, [1.0, 2.0])),
                                        (2, (1.0, 1.0)), (2, ([1.0, 1.0], 1.0))])
def test_fitzpatrick_refuses_a_query_of_the_wrong_dimension(dim, query):
    # a component past the graph's dimension was dropped; one too few read past the query
    G = OperatorGraph(np.eye(dim)[:1].repeat(3, axis=0), np.ones((3, dim)))
    with pytest.raises(ValueError, match=r"^inner product of vectors of \d and \d components$"):
        fitzpatrick(G, query)


def test_fitzpatrick_refuses_an_overflowing_pair_without_a_warning():
    # pair 0's term is 1e200 * -1e200 + 1e200 * 1e200 - 1e400: -inf + inf - inf
    G = OperatorGraph(np.array([[1e200], [-1e200], [0.0]]), np.array([[1e200], [-1e200], [0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"stored pair 0 gives a NaN Fitzpatrick term"):
            fitzpatrick(G, (1e200, -1e200))
        # an overflow alone is a plain -inf term, which never attains the sup
        r = fitzpatrick(OperatorGraph(G.xs[::2], G.xstars[::2]), (1.0, 1.0))
    assert type(r.value) is float and (r.value, r.attaining_index) == (0.0, 1)


def test_2d_fitzpatrick_is_the_plain_loop_bit_for_bit():
    # each <., .> summed elementwise in axis order; a BLAS matrix-vector
    # product may fuse its multiply-adds, and its bits then depend on the
    # kernel the CPU selects
    rng = np.random.default_rng(2027)
    for _ in range(200):
        xs = rng.normal(size=(50, 2))
        G = OperatorGraph(xs, xs @ rng.normal(size=(2, 2)) + rng.normal(scale=0.1, size=(50, 2)))
        q = rng.normal(size=(2, 2))
        r = fitzpatrick(G, (q[0], q[1]))
        value, index = brute_fitzpatrick(G, (q[0], q[1]))
        assert (np.float64(r.value).tobytes(), r.attaining_index) == (np.float64(value).tobytes(), index)


def test_2d_resolvent_certificate_is_the_plain_loop_bit_for_bit():
    # <x, y> summed in axis order as brute_certificate's loop does, for
    # resolvents of the l2 norm (a BLAS dot may fuse its multiply-adds)
    f = sample(FnAtom("l2norm"), Grid.box((-2, 2, 81), (-2, 2, 81)))
    for z in np.random.default_rng(2027).uniform(-2, 2, size=(60, 2)):
        r = resolvent(f, 0.7, z)
        y, eps = brute_certificate(f, 0.7, z, r.x)
        assert np.asarray(r.y).tobytes() == np.asarray(y).tobytes()
        assert np.float64(r.certificate_eps).tobytes() == np.float64(eps).tobytes()


def test_fitzpatrick_identity_closed_form(rng):
    G = identity_graph(-2, 2, 401)
    h = 4 / 400
    for _ in range(100):
        x, s = rng.uniform(-1, 1, 2)
        F = float(fitzpatrick(G, (x, s)).value)
        assert abs(F - (x + s) ** 2 / 4) <= h * h
        assert F >= x * s - h * h / 4  # minorization up to sampling error


def test_resolvent_quadratic():
    f = sample(FnAtom("power", (2.0,)), Grid.line(-6, 6, 1201))
    r = resolvent(f, 1.0, 2.0)
    assert r.x[0] == pytest.approx(1.0, abs=1e-9)
    assert r.y[0] == pytest.approx(1.0, abs=1e-9)
    assert r.certificate_eps <= 1e-6


def test_resolvent_indicator_normal_cone():
    f = sample(FnAtom("indicator", (-1.0, 1.0)), Grid.line(-4, 4, 801))
    r = resolvent(f, 1.0, 3.0)
    assert r.x[0] == pytest.approx(1.0, abs=1e-12)
    assert r.y[0] == pytest.approx(2.0, abs=1e-12)


def test_resolvent_symmetric_zero():
    f = sample(FnAtom("abs"), Grid.line(-4, 4, 801))
    r = resolvent(f, 1.0, 0.0)
    assert r.x[0] == 0.0 and r.y[0] == 0.0


def test_minty_roundtrip_exact():
    f = sample(FnAtom("abs"), Grid.line(-4, 4, 801))
    for lam in (0.5, 1.0, 2.0, 4.0):  # powers of two: float-exact roundtrip
        for z in (-3.0, -0.7, 0.3, 2.5):
            r = resolvent(f, lam, z, check_convexity=False)
            y = yosida(f, lam, z, check_convexity=False)
            assert r.x[0] + lam * y[0] == z
            assert r.y[0] == y[0]


def test_yosida_huber_gradient():
    f = sample(FnAtom("abs"), Grid.line(-4, 4, 801))
    assert yosida(f, 1.0, 0.5)[0] == pytest.approx(0.5, abs=1e-12)
    assert yosida(f, 1.0, 3.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert yosida(f, 1.0, 0.0)[0] == 0.0


def test_yosida_matches_envelope_gradient():
    for tag, params in (("abs", ()), ("power", (2.0,))):
        f = sample(FnAtom(tag, params), Grid.line(-3, 3, 121))
        h = f.grid.spacing[0]
        env = moreau_envelope(f, 1.0)
        xs = f.grid.coords(0)
        worst = 0.0
        for i in range(1, xs.size - 1):
            cd = (env.values[i + 1] - env.values[i - 1]) / (2 * h)
            yo = yosida(f, 1.0, xs[i], check_convexity=False)[0]
            worst = max(worst, abs(yo - cd))
        assert worst <= 10 * h * h + 1e-8


def test_resolvent_firmly_nonexpansive(rng):
    g = Grid.line(-6, 6, 1201)
    f = random_convex_gridfn(rng, g, slope_scale=2.0)
    for _ in range(50):
        z1, z2 = rng.uniform(-4, 4, 2)
        x1 = resolvent(f, 1.0, z1, check_convexity=False).x[0]
        x2 = resolvent(f, 1.0, z2, check_convexity=False).x[0]
        d = x1 - x2
        assert d * d <= d * (z1 - z2) + 1e-8


def test_surjectivity_probe_examples():
    fa = sample(FnAtom("abs"), Grid.line(-6, 6, 4001))
    rep = surjectivity_probe(fa, [-3.0, -0.5, 0.0, 0.5, 3.0])
    assert rep.all_certified
    assert max(rep.residuals) <= 1e-6

    fq = sample(FnAtom("power", (2.0,)), Grid.line(-6, 6, 16001))
    rep2 = surjectivity_probe(fq, [2.0])
    assert rep2.all_certified

    fp = sample(FnAtom("point", (0.0,)), Grid.line(-4, 4, 801))
    rep3 = surjectivity_probe(fp, [-2.0, 1.5, 3.0])
    assert rep3.all_certified  # normal cone of {0} absorbs any target


def test_surjectivity_probe_boundary_flag():
    f = sample(FnAtom("power", (2.0,)), Grid.line(-1, 1, 201))
    rep = surjectivity_probe(f, [1.0, 0.95])  # interior solutions x = 0.5, 0.475
    assert rep.all_certified
    # steep linear drift pushes the solution to the grid edge: flagged
    g = sample(FnAtom("linear", (-5.0,)), Grid.line(-1, 1, 201))
    rep2 = surjectivity_probe(g, [-0.5])
    assert rep2.boundary_flags[0] and not rep2.all_certified


def test_resolvent_is_silent_near_the_float_limit_as_prox_is():
    # at lam = 1e-308, y = (z - x) / lam is about -7.7e307 and <x_j, y>
    # overflows on the nodes; at lam = 1e-320, y itself overflows
    f = GridFn(Grid.line(-2.5, 2.5, 6), np.array([1.7e308, 0.1, 1.7e308, 0.1, 1e308, 1e308]))
    z = -2.2689734684588077
    for lam in (1e-308, 1e-320):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = prox(f, lam, z, check_convexity=False)
            r = resolvent(f, lam, z, check_convexity=False)
            y = yosida(f, lam, z, check_convexity=False)
        assert r.x == p.point and r.y == tuple(y)


def test_resolvent_certificate_is_inf_where_the_residual_is_inf_minus_inf():
    # every objective overflows, so prox takes its scaled rule: x = 5e299,
    # the node nearest z (node 0 before), y = 7.4e283, and both f*(y) and
    # <x, y> overflow to +inf
    f = GridFn(Grid.line(-1e300, 1e300, 5), np.array([0.0, 0.0, -1e308, 0.0, 1.7e308]))
    z = np.nextafter(5e299, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = resolvent(f, 1.0, z, check_convexity=False)
    assert r.x == (5e299,) and r.y == (z - 5e299,) and r.certificate_eps == np.inf


def test_surjectivity_probe_refuses_an_empty_target_set(monkeypatch):
    f = sample(FnAtom("abs"), Grid.line(-2, 2, 41))
    monkeypatch.setattr(monotone, "resolvent", None)  # no work may start
    with pytest.raises(ParameterError, match="at least one target"):
        surjectivity_probe(f, [])
    with pytest.raises(ParameterError, match="at least one target"):
        surjectivity_probe(f, np.empty(0))


def test_surjectivity_probe_flags_a_solution_half_a_step_from_the_boundary():
    # spacing 0.25: the target 0.875 ties between the last two nodes, the
    # smaller wins, and the refined solution is 0.875 = hi - h / 2 exactly
    f = GridFn(Grid.line(-1, 1, 9), np.zeros(9))
    rep = surjectivity_probe(f, [0.875, 0.86])
    assert rep.boundary_flags == (True, False)
