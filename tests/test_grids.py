import copy
import pickle
from fractions import Fraction
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KNIGHT_FORMS, _brute_line_violation, brute_convexity_check_2d, brute_interp
from convexdesk import grids
from convexdesk.atoms import FnAtom, sample
from convexdesk.errors import EmptyDomainError, ParameterError
from convexdesk.fileio import read_gridfn_json, write_gridfn_csv, write_gridfn_json
from convexdesk.grids import (
    ConvexityReport,
    Grid,
    GridFn,
    discrete_convexity_check,
    interp_gridfn,
)


def test_grid_basics():
    g = Grid.line(-1, 1, 5)
    assert g.dim == 1 and g.shape == (5,)
    assert g.spacing == (0.5,)
    assert g.zero_index(0) == 2
    b = Grid.box((-1, 1, 3), (0, 2, 5))
    assert b.dim == 2 and b.node_count == 15


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid.line(1, -1, 5)
    with pytest.raises(ParameterError):
        Grid.line(-1, 1, 1)
    with pytest.raises(ParameterError):
        Grid.box((-1, 1, 2001), (-1, 1, 2001))  # over the node cap


def test_grid_refuses_an_axis_whose_nodes_are_not_strictly_increasing():
    # on a subnormal span np.linspace's step rounds: 18 nodes of
    # [-1.5e-323, 3.5e-323] end 5.4e-323, 5.9e-323, 6.4e-323, 3.5e-323,
    # out of order and past hi; a step below an ulp repeats nodes
    with pytest.raises(ParameterError, match=r"^axis 0 nodes np.linspace\(-1.5e-323, 3.5e-323, 18\) "
                                             r"are not strictly increasing$"):
        Grid.line(-1.5e-323, 3.5e-323, 18)
    with pytest.raises(ParameterError, match="^axis 1 nodes .* not strictly increasing$"):
        Grid.box((-1, 1, 3), (1.0, 1.0 + 1e-15, 100))
    for lo, hi, n in ((-1.5e-323, 3.5e-323, 11), (0.0, 5e-324, 2), (1.0, 1.0 + 4.5e-16, 3)):
        c = Grid.line(lo, hi, n).coords(0)  # steps of whole subnormals, or of one ulp, are kept
        assert (np.diff(c) > 0).all() and c[-1] == hi


@settings(max_examples=500, deadline=None)
@given(lo=st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, -1.5e-323, 5e-324, 1.0])),
       width=st.one_of(st.floats(5e-324, 1e300), st.sampled_from([5e-324, 2.5e-323, 4.5e-16])),
       n=st.integers(2, 3000))
def test_grid_coords_are_np_linspace_bit_for_bit(lo, width, n):
    # Grid computes np.linspace's arithmetic itself; on a span whose nodes
    # are not strictly increasing it refuses, as before
    hi = lo + width
    if not hi > lo:
        return
    expect = np.linspace(lo, hi, n)
    if not (expect[1:] > expect[:-1]).all():
        with pytest.raises(ParameterError, match="not strictly increasing"):
            Grid.line(lo, hi, n)
        return
    assert Grid.line(lo, hi, n).coords(0).tobytes() == expect.tobytes()


def test_gridfn_shape_and_proper():
    g = Grid.line(-1, 1, 3)
    f = GridFn(g, [1.0, 0.0, np.inf])
    assert f.is_proper
    assert not GridFn(g, [np.inf, np.inf, np.inf]).is_proper
    assert not GridFn(g, [1.0, -np.inf, 2.0]).is_proper
    with pytest.raises(ValueError):
        GridFn(g, [1.0, np.nan, 2.0])


def test_convexity_accepts_documented_convex_atoms():
    cases = [
        (FnAtom("abs"), Grid.line(-2, 2, 401)),
        (FnAtom("power", (2.0,)), Grid.line(-2, 2, 401)),
        (FnAtom("power", (1.5,)), Grid.line(-2, 2, 401)),
        (FnAtom("exp"), Grid.line(-3, 3, 301)),
        (FnAtom("indicator", (-1.0, 1.0)), Grid.line(-2, 2, 401)),
        (FnAtom("distance", (-1.0, 1.0)), Grid.line(-3, 3, 301)),
    ]
    for atom, grid in cases:
        assert discrete_convexity_check(sample(atom, grid)), atom.tag


def test_convexity_rejects_neg_abs():
    g = Grid.line(-2, 2, 401)
    f = GridFn(g, -np.abs(g.coords(0)))
    rep = discrete_convexity_check(f)
    assert not rep
    # violation at the interior node nearest 0 (the kink)
    assert abs(g.coords(0)[rep.violation_index[0]]) <= g.spacing[0]


def test_convexity_cubic_violation_in_negative_region():
    g = Grid.line(-1, 1, 101)
    f = GridFn(g, g.coords(0) ** 3)
    rep = discrete_convexity_check(f)
    assert not rep
    assert g.coords(0)[rep.violation_index[0]] < 0  # second derivative 6x < 0 there


def test_convexity_domain_gap_detected():
    g = Grid.line(-2, 2, 5)
    rep = discrete_convexity_check(GridFn(g, [0.0, np.inf, 0.0, 1.0, 2.0]))
    assert not rep and rep.violation_kind == "domain-gap"


def test_convexity_all_infinite_raises():
    g = Grid.line(-1, 1, 3)
    with pytest.raises(EmptyDomainError):
        discrete_convexity_check(GridFn(g, [np.inf] * 3))


def test_convexity_2d_l1_squared():
    g = Grid.box((-2, 2, 41), (-2, 2, 41))
    f = sample(FnAtom("l1norm"), g)
    f = GridFn(g, f.values ** 2 / 2)
    assert discrete_convexity_check(f)


def test_convexity_2d_saddle_rejected():
    g = Grid.box((-2, 2, 41), (-2, 2, 41))
    x0, x1 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
    rep = discrete_convexity_check(GridFn(g, x0 * x1))  # saddle: convex on axes only
    assert not rep and rep.direction in ((1, 1), (1, -1))


@st.composite
def convexity_inputs(draw):
    n0, n1 = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    family = draw(st.sampled_from(["mask", "saddle", "knight", "dent", "noise"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = Grid.box((-1.0, 1.0, n0), (-1.5, 1.0, n1))
    x0, x1 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
    if family == "saddle":
        v = draw(st.sampled_from([-1.0, 1.0])) * x0 * x1
    elif family == "knight":
        a11, a22, a12 = draw(st.sampled_from(KNIGHT_FORMS))
        v = a11 * x0**2 + 2 * a12 * x0 * x1 + a22 * x1**2
    elif family == "noise":
        v = rng.normal(size=(n0, n1))
    else:
        v = x0**2 + 2 * x1**2 + 0.5 * x0 * x1
        if family == "dent":
            v[rng.integers(n0), rng.integers(n1)] += draw(st.sampled_from([-1e-9, 1e-9]))
    v = v * 10.0 ** draw(st.integers(0, 300))
    if family == "mask" or draw(st.booleans()):
        v = np.where(rng.random((n0, n1)) < draw(st.floats(0.0, 0.7)), np.inf, v)
    if draw(st.booleans()):
        v[rng.integers(n0), rng.integers(n1)] = -np.inf
    if not np.isfinite(v).any():
        v[0, 0] = 0.0
    return GridFn(g, v), draw(st.sampled_from([0.0, 1e-9, 1e-3]))


@settings(max_examples=400, deadline=None)
@given(convexity_inputs())
def test_convexity_2d_matches_line_by_line_oracle(case):
    f, tol = case
    assert discrete_convexity_check(f, tol) == brute_convexity_check_2d(f, tol)


@st.composite
def convexity_lines(draw):
    """convexity_inputs' families on lines of 2 to 30 nodes: a saddle is
    a concave or convex parabola, a knight form the kink |x - 0.3|."""
    n = draw(st.integers(2, 30))
    family = draw(st.sampled_from(["mask", "saddle", "knight", "dent", "noise"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = Grid.line(-1.0, 1.5, n)
    x = g.coords(0)
    if family == "saddle":
        v = draw(st.sampled_from([-1.0, 1.0])) * x**2
    elif family == "knight":
        v = np.abs(x - 0.3)
    elif family == "noise":
        v = rng.normal(size=n)
    else:
        v = x**2 + 0.5 * x
        if family == "dent":
            v[rng.integers(n)] += draw(st.sampled_from([-1e-9, 1e-9]))
    v = v * 10.0 ** draw(st.integers(0, 300))
    if family == "mask" or draw(st.booleans()):
        v = np.where(rng.random(n) < draw(st.floats(0.0, 0.7)), np.inf, v)
    if draw(st.booleans()):
        v[rng.integers(n)] = -np.inf
    if not np.isfinite(v).any():
        v[0] = 0.0
    return GridFn(g, v), draw(st.sampled_from([0.0, 1e-9, 1e-3]))


@settings(max_examples=400, deadline=None)
@given(convexity_lines())
def test_convexity_1d_matches_the_line_oracle(case):
    f, tol = case
    fin = np.isfinite(f.values)
    hit = _brute_line_violation(f.values, tol * max(1.0, float(np.max(np.abs(f.values[fin])))))
    expected = ConvexityReport(True) if hit is None else ConvexityReport(False, (hit[0],), hit[1], (1,))
    assert discrete_convexity_check(f, tol) == expected


@settings(max_examples=200, deadline=None)
@given(convexity_inputs())
def test_stored_convexity_report_is_a_fresh_scan(case):
    f, tol = case
    expected = brute_convexity_check_2d(f, tol)
    first = discrete_convexity_check(f, tol)
    assert first == expected == discrete_convexity_check(GridFn(f.grid, f.values), tol)
    again = discrete_convexity_check(f, tol)
    assert again == expected == discrete_convexity_check(GridFn(f.grid, f.values), tol)


def test_convexity_scans_once_per_tol(convexity_scans):
    g = Grid.box((-1, 1, 7), (-1, 1, 9))
    x0, x1 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
    f = GridFn(g, x0 * x1)
    reports = [discrete_convexity_check(f) for _ in range(3)]
    assert convexity_scans == [1e-9] and not reports[0]
    assert reports[1] is reports[0] and reports[2] is reports[0]
    assert not discrete_convexity_check(f, tol=1e-3) and convexity_scans == [1e-9, 1e-3]
    discrete_convexity_check(f, tol=1e-3)
    discrete_convexity_check(GridFn(g, f.values))  # a new GridFn scans anew
    assert convexity_scans == [1e-9, 1e-3, 1e-9]


def test_values_cannot_be_made_writable_so_the_stored_verdict_stays_fresh():
    f = GridFn(Grid.line(-1, 1, 3), [1.0, 0.0, 1.0])
    assert discrete_convexity_check(f)
    with pytest.raises(ValueError, match="WRITEABLE"):
        f.values.setflags(write=True)
    with pytest.raises(ValueError, match="read-only"):
        f.values[1] = 5.0
    assert discrete_convexity_check(f) == grids._convexity_scan(f, 1e-9)
    assert discrete_convexity_check(f) and f.values.tolist() == [1.0, 0.0, 1.0]


def _read_only_objects():
    from convexdesk.fenchel import conjugate, inf_convolution, subdifferential
    from convexdesk.monotone import OperatorGraph

    f = GridFn(Grid.line(-1, 1, 5), [1.0, 0.5, 0.0, 0.5, 1.0])
    assert discrete_convexity_check(f)  # stored on f
    # each object with a function that returns its arrays
    return [(f, lambda o: [o.values]),
            (Grid.box((-1, 1, 3), (0, 2, 4)), lambda o: [o.coords(0), o.coords(1)]),
            (conjugate(f, f.grid), lambda o: [o.argmax]),
            (subdifferential(f, 2), lambda o: [o.slopes]),
            (OperatorGraph([[0.0], [1.0]], [[1.0], [2.0]]), lambda o: [o.xs, o.xstars]),
            (inf_convolution(f, f), lambda o: [o.argmin])]


OBJECT_IDS = ["GridFn", "Grid", "ConjugateResult", "SubdifferentialSet", "OperatorGraph",
              "InfConvResult"]


def _assert_read_only(a: np.ndarray) -> None:
    assert not a.flags.writeable
    with pytest.raises(ValueError, match="WRITEABLE"):  # a _frozen view: numpy refuses
        a.setflags(write=True)
    with pytest.raises(ValueError, match="read-only"):
        a.flat[0] = -5.0


@pytest.mark.parametrize("k", range(6), ids=OBJECT_IDS)
def test_every_array_a_value_holds_refuses_to_become_writable(k):
    # Grid.coords, ConjugateResult.argmax, SubdifferentialSet.slopes and
    # OperatorGraph's arrays owned their data, so setflags(write=True)
    # made them writable; InfConvResult.argmin was writable from the start
    obj, arrays = _read_only_objects()[k]
    for a in arrays(obj):
        _assert_read_only(a)


@pytest.mark.parametrize("clone", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("k", range(6), ids=OBJECT_IDS)
def test_a_copied_or_unpickled_object_is_read_only_with_no_stored_verdict(clone, k):
    # they came back writable, and a GridFn kept its verdict: after
    # f2.values[2] = -5.0 the stored "convex" let prox accept a nonconvex f
    obj, arrays = _read_only_objects()[k]
    obj2 = clone(obj)
    assert type(obj2) is type(obj)
    for a, a2 in zip(arrays(obj), arrays(obj2), strict=True):
        assert a2.tobytes() == a.tobytes() and a2.dtype == a.dtype
        _assert_read_only(a2)
    if isinstance(obj2, GridFn):
        assert obj2._convexity == {} and obj2 == obj
        assert discrete_convexity_check(obj2) == grids._convexity_scan(obj, 1e-9)
    elif isinstance(obj2, Grid):
        assert obj2 == obj


def test_convexity_check_leaves_equality_and_repr_alone():
    g = Grid.box((-1, 1, 3), (-1, 1, 4))
    f = GridFn(g, np.arange(12.0).reshape(3, 4) ** 2)
    text = repr(f)
    assert f == GridFn(g, f.values) and f != GridFn(g, f.values + 1.0)
    assert discrete_convexity_check(f) and discrete_convexity_check(f, tol=0.0)
    assert repr(f) == text and "_convexity" not in text
    assert f == GridFn(g, f.values) and GridFn(g, f.values) == f


def test_convexity_tol_nan_is_refused_inf_and_negative_keep_their_meaning():
    g = Grid.line(-1, 1, 3)
    f = GridFn(g, [0.0, 1.0, 0.0])
    # every `< -nan` comparison is false, so a NaN tol reported this f convex
    with pytest.raises(ParameterError, match="tolerance must not be NaN"):
        discrete_convexity_check(f, tol=np.nan)
    assert f._convexity == {}  # nothing stored: a NaN key would never match again
    with pytest.raises(ParameterError, match="tolerance must not be NaN"):  # before the scan
        discrete_convexity_check(GridFn(g, [np.inf] * 3), tol=float("nan"))
    # tol = inf accepts every second difference and still reports domain gaps
    assert discrete_convexity_check(f, tol=np.inf)
    gap = discrete_convexity_check(GridFn(Grid.line(-2, 2, 5), [0, np.inf, 0, 1, 2]), np.inf)
    assert gap == ConvexityReport(False, (1,), "domain-gap", (1,))
    # a negative tol demands second differences of at least |tol| times the scale
    line = GridFn(g, [-1.0, 0.0, 1.0])
    assert discrete_convexity_check(line, tol=0.0)
    assert discrete_convexity_check(line, tol=-0.5) == ConvexityReport(
        False, (1,), "second-difference", (1,))
    assert discrete_convexity_check(GridFn(g, [1.0, 0.0, 1.0]), tol=-1.0)


def _quadratic(a11, a22, a12, n0=5, n1=5):
    g = Grid.box((0, n0 - 1, n0), (0, n1 - 1, n1))
    x0, x1 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
    return GridFn(g, a11 * x0**2 + 2 * a12 * x0 * x1 + a22 * x1**2)


def _finite_at(shape, nodes):
    v = np.full(shape, np.inf)
    for ij in nodes:
        v[ij] = 0.0
    return GridFn(Grid.box((-1, 1, shape[0]), (-1, 1, shape[1])), v)


_I = np.arange(3.0)
SD, GAP = "second-difference", "domain-gap"
CONVEXITY_CASES = {
    "1d-second-difference": (GridFn(Grid.line(-1, 1, 3), [0.0, 1.0, 0.0]), ((1,), SD, (1,))),
    "1d-gap": (GridFn(Grid.line(-1, 1, 3), [0.0, np.inf, 0.0]), ((1,), GAP, (1,))),
    "row-second-difference": (
        GridFn(Grid.box((-1, 1, 3), (-1, 1, 3)), -np.tile((_I - 1) ** 2, (3, 1))),
        ((0, 1), SD, (0, 1)),
    ),
    "row-gap": (
        GridFn(Grid.box((-1, 1, 3), (-1, 1, 3)), [[0, 0, 0], [0, np.inf, 0], [0, 0, 0]]),
        ((1, 1), GAP, (0, 1)),
    ),
    "column-second-difference": (
        GridFn(Grid.box((-1, 1, 3), (-1, 1, 3)), -np.tile((_I - 1) ** 2, (3, 1)).T),
        ((1, 0), SD, (1, 0)),
    ),
    "column-gap": (
        GridFn(Grid.box((-1, 1, 3), (-1, 1, 2)), [[0, 0], [np.inf, 0], [0, 0]]),
        ((1, 0), GAP, (1, 0)),
    ),
    "diagonal-second-difference": (
        GridFn(Grid.box((-1, 1, 3), (-1, 1, 3)), -np.outer(_I - 1, _I - 1)),
        ((1, 1), SD, (1, 1)),
    ),
    "diagonal-gap": (_finite_at((3, 3), [(0, 0), (2, 2)]), ((1, 1), GAP, (1, 1))),
    "anti-diagonal-second-difference": (
        GridFn(Grid.box((-1, 1, 3), (-1, 1, 3)), np.outer(_I - 1, _I - 1)),
        ((1, 1), SD, (1, -1)),
    ),
    "anti-diagonal-gap": (_finite_at((3, 3), [(0, 2), (2, 0)]), ((1, 1), GAP, (1, -1))),
    "knight-1-2": (_quadratic(*KNIGHT_FORMS[0]), ((1, 2), SD, (1, 2))),
    "knight-2-1": (_quadratic(*KNIGHT_FORMS[1]), ((2, 1), SD, (2, 1))),
    "knight-1-m2": (_quadratic(*KNIGHT_FORMS[2]), ((1, 2), SD, (1, -2))),
    "knight-2-m1": (_quadratic(*KNIGHT_FORMS[3]), ((2, 1), SD, (2, -1))),
}


@pytest.mark.parametrize("name", list(CONVEXITY_CASES))
def test_convexity_report_for_each_kind_and_direction(name):
    f, (index, kind, direction) = CONVEXITY_CASES[name]
    rep = discrete_convexity_check(f)
    assert rep == ConvexityReport(False, index, kind, direction)
    if f.grid.dim == 2:
        assert rep == brute_convexity_check_2d(f)


# concave knight-move triples (start, direction) on pairwise distinct rows,
# columns, diagonals and anti-diagonals of a 16 x 20 grid, +inf elsewhere,
# so only the knight checks see them
KNIGHT_TRIPLES = (((13, 5), (1, 2)), ((5, 2), (2, 1)), ((10, 18), (1, -2)), ((2, 12), (2, -1)))


@pytest.mark.parametrize("first", range(4))
def test_convexity_knight_directions_in_scan_order(first):
    v = np.full((16, 20), np.inf)
    for (i, j), (d0, d1) in KNIGHT_TRIPLES[first:]:
        v[i, j] = v[i + 2 * d0, j + 2 * d1] = 0.0
        v[i + d0, j + d1] = 1.0
    f = GridFn(Grid.box((0, 15, 16), (0, 19, 20)), v)
    (i, j), (d0, d1) = KNIGHT_TRIPLES[first]
    expected = ConvexityReport(False, (i + d0, j + d1), SD, (d0, d1))
    assert discrete_convexity_check(f) == expected == brute_convexity_check_2d(f)


# a, b, c where a - 2b + c and a + c - 2b round to opposite sides of 0
ROW_ONLY = (5.344499083419163e19, 2.6722495417141436e19, 91239936.0)  # -2560 vs 0
KNIGHT_ONLY = (172228870144.0, 1.7530081406415707e21, 3.506016281110912e21)  # 0 vs -524288


@pytest.mark.parametrize(
    "nodes, abc, report",
    [
        (((0, 0), (0, 1), (0, 2)), ROW_ONLY, ((0, 1), SD, (0, 1))),
        (((0, 0), (0, 1), (0, 2)), KNIGHT_ONLY, None),
        (((0, 0), (1, 2), (2, 4)), KNIGHT_ONLY, ((1, 2), SD, (1, 2))),
        (((0, 0), (1, 2), (2, 4)), ROW_ONLY, None),
    ],
)
def test_convexity_keeps_each_direction_expression(nodes, abc, report):
    v = np.full((3, 5), np.inf)
    for ij, x in zip(nodes, abc):
        v[ij] = x
    f = GridFn(Grid.box((0, 2, 3), (0, 4, 5)), v)
    expected = ConvexityReport(True) if report is None else ConvexityReport(False, *report)
    assert discrete_convexity_check(f, tol=0.0) == expected == brute_convexity_check_2d(f, 0.0)


@pytest.mark.parametrize("c", [1.7e308, 1e308, -1.7e308, 8e307])
def test_a_constant_near_the_float_limit_is_convex(c):
    # 2b overflowed, so a - 2b + c was -inf: "violation at (1,)"
    assert discrete_convexity_check(sample(FnAtom("const", (c,)), Grid.line(-1, 1, 5)))
    assert discrete_convexity_check(GridFn(Grid.box((-1, 1, 5), (-1, 1, 5)), np.full((5, 5), c)))


# second differences of these overflow in floats wherever 2b or a + c passes
# the largest float
EDGE_VALUES = (1.7e308, -1.7e308, 1e308, -1e308, 5e307, 0.0, 1.0, np.inf)
DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (1, -2), (2, -1))


def _exact_midpoints(v: np.ndarray, d: tuple[int, int], t: float) -> np.ndarray:
    """_concave_midpoints node by node: the float second difference where
    it is finite, else the exact one in Fractions."""
    out = np.zeros(v.shape, dtype=bool)
    knight = 2 in map(abs, d)
    for i, j in np.ndindex(*v.shape):
        lo, hi = (i - d[0], j - d[1]), (i + d[0], j + d[1])
        if not all(0 <= p < n for q in (lo, hi) for p, n in zip(q, v.shape)):
            continue
        a, b, c = v[lo], v[i, j], v[hi]
        if not np.isfinite([a, b, c]).all():
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            second = a + c - 2.0 * b if knight else a - 2.0 * b + c
        if np.isfinite(second):
            out[i, j] = second < -t
        else:
            out[i, j] = Fraction(a) - 2 * Fraction(b) + Fraction(c) < -Fraction(t)
    return out


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from([(3,), (7,), (3, 5), (5, 3), (5, 6)]), tol=st.sampled_from([0.0, 1e-9]),
       data=st.data())
def test_convexity_near_the_float_limit_matches_exact_second_differences(shape, tol, data):
    size = int(np.prod(shape))
    v = np.array(data.draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=size, max_size=size)))
    v[data.draw(st.integers(0, size - 1))] = data.draw(st.sampled_from(EDGE_VALUES[:-1]))
    v = v.reshape(shape)
    fin = np.isfinite(v)
    t = tol * max(1.0, float(np.max(np.abs(v[fin]))))
    # every scan direction, the anti-diagonals as the diagonals of v flipped
    v2 = np.atleast_2d(v)
    for w in (v2, v2[:, ::-1]):
        finite = np.isfinite(w)
        for d in DIRECTIONS:
            got = grids._concave_midpoints(w, None if finite.all() else finite, d, t,
                                           knight=2 in map(abs, d))
            assert np.array_equal(got, np.flatnonzero(_exact_midpoints(w, d, t))), d
    f = GridFn(Grid(tuple((-1, 1, n) for n in shape)), v)
    if len(shape) == 2:
        assert discrete_convexity_check(f, tol) == brute_convexity_check_2d(f, tol)
    else:
        hit = _brute_line_violation(v, t)
        expected = ConvexityReport(True) if hit is None else ConvexityReport(False, (hit[0],), hit[1], (1,))
        assert discrete_convexity_check(f, tol) == expected


@pytest.mark.parametrize("case", ["convex", "disk", "saddle"])
def test_convexity_2d_memory_is_linear(case):
    # the saddle violates at every diagonal node, so the scan holds the
    # indices of all of them
    import tracemalloc

    n = 301
    g = Grid.box((-1, 1, n), (-1, 1, n))
    x0, x1 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
    v = x0**2 + 2 * x1**2 + 0.3 * x0 * x1
    if case == "disk":
        v = np.where(x0**2 + x1**2 > 0.8, np.inf, v)
    elif case == "saddle":
        v = x0**2 + x1**2 - 3 * x0 * x1
    f = GridFn(g, v)
    tracemalloc.start()
    try:
        rep = discrete_convexity_check(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bool(rep) == (case != "saddle")
    assert peak < 96 * n * n


def test_sample_roundtrip_bit_for_bit():
    g = Grid.line(-2, 2, 101)
    atom = FnAtom("power", (3.0,))
    f = sample(atom, g)
    from convexdesk.atoms import atom_eval

    for i in (0, 17, 50, 100):
        assert f.values[i] == float(atom_eval(atom, g.coords(0)[i]))


def test_json_roundtrip_bit_exact(tmp_path):
    g = Grid.line(-1, 1, 9)
    vals = np.array([np.inf, 0.1 + 0.2, -5.0, 1e-300, np.pi, -np.inf, 2.0 ** -52, 0.0, 3.3])
    f = GridFn(g, vals)
    p = str(tmp_path / "f.json")
    write_gridfn_json(f, p)
    g2 = read_gridfn_json(p)
    assert g2.grid == f.grid
    assert np.array_equal(g2.values, f.values)


def test_json_roundtrip_2d(tmp_path):
    g = Grid.box((-1, 1, 3), (-1, 1, 3))
    f = sample(FnAtom("l2norm"), g)
    p = str(tmp_path / "f2.json")
    write_gridfn_json(f, p)
    assert np.array_equal(read_gridfn_json(p).values, f.values)


def test_csv_export_format(tmp_path):
    g = Grid.line(-1, 1, 3)
    f = GridFn(g, [1.0, np.inf, 2.0])
    p = str(tmp_path / "f.csv")
    write_gridfn_csv(f, p)
    lines = open(p).read().splitlines()
    assert lines[0] == "x,value"
    assert lines[2] == "0,inf"


def test_interp_exact_on_nodes_and_chord_between():
    g = Grid.line(0, 1, 5)
    f = GridFn(g, g.coords(0) ** 2)
    pts = np.array([[0.25], [0.375], [2.0]])
    out = interp_gridfn(f, pts)
    assert out[0] == f.values[1]
    assert out[1] == pytest.approx((0.0625 + 0.25) / 2)
    assert out[2] == np.inf


# ---- grid bounds and interpolation against the per-point oracle -------------


@pytest.mark.parametrize(
    "axes, message",
    [
        (((float("-inf"), 1.0, 3),), "axis 0 needs finite bounds, got lo = -inf"),
        (((-1.0, float("inf"), 3),), "axis 0 needs finite bounds, got hi = inf"),
        (((float("nan"), 1.0, 3),), "axis 0 needs finite bounds, got lo = nan"),
        (((-1.0, 1.0, 3), (0.0, float("inf"), 3)), "axis 1 needs finite bounds, got hi = inf"),
        (((-1e308, 1e308, 3),), "axis 0 spacing overflows: hi - lo of [-1e+308, 1e+308]"),
        (((-1.0, 1.0, 3), (-1.7e308, 1e308, 5)), "axis 1 spacing overflows"),
    ],
)
def test_grid_refuses_infinite_bounds_and_overflowing_spacing(axes, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns
        with pytest.raises(ParameterError, match=re.escape(message)):
            Grid(axes)
    # the largest spans that still fit are grids
    assert Grid.line(-8e307, 8e307, 3).spacing == (8e307,)


@st.composite
def interp_cases(draw):
    axes = []
    for _ in range(draw(st.integers(1, 2))):
        lo = draw(st.sampled_from([-2.0, -1.0, 0.0, 0.3, 1e-3]))
        axes.append((lo, lo + draw(st.sampled_from([0.5, 1.0, 3.0, 7.25])), draw(st.integers(2, 5))))
    grid = Grid(tuple(axes))
    vals = draw(st.lists(
        st.one_of(st.integers(-30, 30).map(lambda k: k / 10), st.sampled_from([-0.0, np.inf, 1e308, -1e308])),
        min_size=grid.node_count, max_size=grid.node_count,
    ))
    f = GridFn(grid, np.reshape(vals, grid.shape))
    coord = []
    for ax, (lo, hi, n) in enumerate(grid.axes):
        slack = 1e-12 * max(1.0, abs(lo)), 1e-12 * max(1.0, abs(hi))
        coord.append(st.one_of(
            st.sampled_from(grid.coords(ax).tolist()),  # on-node hits, next to +inf corners too
            st.floats(lo, hi),
            st.sampled_from([lo - slack[0] / 2, hi + slack[1] / 2,  # inside the slack
                             lo - 4 * slack[0], hi + 4 * slack[1], lo - 1.0, hi + 1.0,
                             np.inf, -np.inf, -0.0]),
        ))
    points = draw(st.lists(st.tuples(*coord), min_size=1, max_size=12))
    return f, np.asarray(points, dtype=float)


@settings(max_examples=300, deadline=None)
@given(case=interp_cases())
def test_interp_matches_the_per_point_oracle_bit_for_bit(case):
    f, pts = case
    got = interp_gridfn(f, pts)
    assert got.tobytes() == brute_interp(f, pts).tobytes()  # sign of zero included
