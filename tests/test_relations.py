"""Metamorphic relations of prox, the Moreau envelope and the
inf-convolution, on inputs where each relation holds exactly in floats:
dyadic grids (2^m + 1 nodes on [-2^a, 2^a]), integer values, power-of-two
factors and queries on quarter nodes.  Every assertion is bit for bit, and
none of them shares the library's float expression: a defect of that
expression shows as a broken relation, where a plain-loop oracle of the
same expression would agree with it."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexdesk.fenchel import inf_convolution
from convexdesk.grids import Grid, GridFn
from convexdesk.moreau import moreau_envelope, prox


def _dyadic_grid(draw, dim: int) -> tuple[int, list[int]]:
    """a and the axes' m of a grid of 2^m + 1 nodes per axis on [-2^a, 2^a]."""
    return draw(st.integers(-2, 3)), [draw(st.integers(1, 5)) for _ in range(dim)]


def _grid(a: int, ms: list[int]) -> Grid:
    return Grid(tuple((-(2.0 ** a), 2.0 ** a, 2 ** m + 1) for m in ms))


def _convex_line(draw, n: int) -> np.ndarray:
    """Integer values of a convex line: a running sum of sorted integer
    slopes, and +inf outside an interval of nodes now and then."""
    slopes = sorted(draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1)))
    vals = draw(st.integers(-8, 8)) + np.concatenate([[0], np.cumsum(slopes)]).astype(float)
    if draw(st.booleans()) and n > 2:
        lo = draw(st.integers(0, n - 2))
        hi = draw(st.integers(lo + 1, n - 1))
        vals[:lo], vals[hi + 1 :] = np.inf, np.inf
    return vals


@st.composite
def dyadic_cases(draw, dims=(1, 2)):
    """(a, the axes' exponents m, integer convex values, a quarter-node
    query, lam = 2^e): separable in 2-D, a sum of convex lines."""
    dim = draw(st.sampled_from(dims))
    a, ms = _dyadic_grid(draw, dim)
    lines = [_convex_line(draw, 2 ** m + 1) for m in ms]
    vals = lines[0] if dim == 1 else lines[0][:, None] + lines[1][None, :]
    # the query on a quarter node: lo + k (hi - lo) / (4 (n - 1))
    x = [-(2.0 ** a) + draw(st.integers(0, 2 ** (m + 2))) * 2.0 ** (a + 1 - m - 2) for m in ms]
    return a, ms, vals, x, 2.0 ** draw(st.integers(-4, 3))


def _bits(*xs) -> bytes:
    return np.asarray(xs, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(case=dyadic_cases(), k=st.integers(-3, 3))
def test_prox_and_envelope_scale_with_the_grid(case, k):
    # x -> 2^k x with lam -> 4^k lam: the prox point scales by 2^k and the
    # envelope keeps its value
    a, ms, vals, x, lam = case
    f, g = GridFn(_grid(a, ms), vals), GridFn(_grid(a + k, ms), vals)
    p, q = prox(f, lam, x), prox(g, 4.0 ** k * lam, [2.0 ** k * v for v in x])
    assert _bits(*q.point) == _bits(*(2.0 ** k * v for v in p.point))
    assert _bits(q.envelope) == _bits(p.envelope)
    if len(ms) == 1:
        ef, eg = moreau_envelope(f, lam), moreau_envelope(g, 4.0 ** k * lam)
        assert eg.values.tobytes() == ef.values.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=dyadic_cases(), k=st.integers(-3, 3))
def test_prox_and_envelope_scale_with_the_values(case, k):
    # f -> 2^k f with lam -> 2^-k lam: the prox point stays and the
    # envelope scales by 2^k
    a, ms, vals, x, lam = case
    f, g = GridFn(_grid(a, ms), vals), GridFn(_grid(a, ms), 2.0 ** k * vals)
    p, q = prox(f, lam, x), prox(g, 2.0 ** -k * lam, x)
    assert _bits(*q.point) == _bits(*p.point)
    assert _bits(q.envelope) == _bits(2.0 ** k * p.envelope)
    if len(ms) == 1:
        ef, eg = moreau_envelope(f, lam), moreau_envelope(g, 2.0 ** -k * lam)
        assert eg.values.tobytes() == (2.0 ** k * ef.values).tobytes()


@st.composite
def infconv_pairs(draw):
    """Two functions on one small dyadic grid: integer values, not
    necessarily convex, with +inf patches; each keeps a finite value."""
    dim = draw(st.sampled_from((1, 2)))
    a, ms = draw(st.integers(-2, 3)), [draw(st.integers(1, 4 if dim == 1 else 3)) for _ in range(dim)]
    g = _grid(a, ms)
    out = []
    for _ in range(2):
        vals = np.array(draw(st.lists(st.sampled_from([-3.0, -1.0, 0.0, 1.0, 2.0, 5.0, np.inf]),
                                      min_size=g.node_count, max_size=g.node_count)))
        vals[draw(st.integers(0, g.node_count - 1))] = draw(st.integers(-4, 4))
        out.append(GridFn(g, vals.reshape(g.shape)))
    return out


@settings(max_examples=200, deadline=None)
@given(pair=infconv_pairs())
def test_inf_convolution_values_commute(pair):
    # f box g and g box f take the minimum over the same sums f(y) + g(x - y)
    f, g = pair
    assert inf_convolution(f, g).out.values.tobytes() == inf_convolution(g, f).out.values.tobytes()


@st.composite
def boundary_ties(draw):
    """f = c + <s, x> on a dyadic grid and a query whose node minimum ties
    between the first node and the second on each tied axis: the query at
    lo + t h there, s = (t - 1/2) h / lam, so that q - lam s = lo + h/2; on
    an axis without a tie, s = 0 and the query on a node."""
    dim = draw(st.sampled_from((1, 2)))
    a, ms = _dyadic_grid(draw, dim)
    g = _grid(a, ms)
    tied = [True] if dim == 1 else draw(st.sampled_from([[True, False], [False, True]]))
    lam = g.spacing[0] * 2.0 ** draw(st.integers(-2, 1))
    t = draw(st.sampled_from([0.0, 0.25, 0.75, 1.0]))
    s, x = [], []
    for (lo, _, n), h, tie in zip(g.axes, g.spacing, tied):
        s.append((t - 0.5) * h / lam if tie else 0.0)
        x.append(lo + t * h if tie else lo + draw(st.integers(0, n - 1)) * h)
    c = float(draw(st.integers(-4, 4)))
    return g, c, s, x, lam


@settings(max_examples=300, deadline=None)
@given(case=boundary_ties())
@example(case=(Grid.line(-2, 2, 9), 1.0, [0.5], [-1.5], 0.5))  # nodes -2 and -1.5 tie
def test_prox_of_a_boundary_tie_mirrors_and_is_exact(case):
    # x -> -x: the mirrored problem's node minimum is the other node of the
    # tie; both give the exact minimizer q - lam s = lo + h/2 of the affine
    # f, whose envelope value is exact in floats here
    g, c, s, x, lam = case
    X = np.meshgrid(*(g.coords(ax) for ax in range(g.dim)), indexing="ij")
    f = GridFn(g, c + sum(sa * xa for sa, xa in zip(s, X)))
    mirror = GridFn(g, c - sum(sa * xa for sa, xa in zip(s, X)))
    p, q = prox(f, lam, x), prox(mirror, lam, [-v for v in x])
    exact = [v - lam * sa for v, sa in zip(x, s)]
    value = c + sum(sa * e for sa, e in zip(s, exact)) + sum((v - e) ** 2 for v, e in zip(x, exact)) / (2 * lam)
    assert _bits(*p.point) == _bits(*exact)
    assert _bits(*q.point) == _bits(*(0.0 - v for v in exact))  # the grid's 0 is +0.0
    assert _bits(p.envelope) == _bits(q.envelope) == _bits(value)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(-2, 3), m=st.integers(1, 6), e=st.integers(-2, 1), sign=st.sampled_from([1.0, -1.0]))
def test_envelope_of_an_all_ties_line_mirrors(a, m, e, sign):
    # lam s = -h/2: every node's minimum ties with its right neighbour, the
    # first node's included; the mirror image ties to the left
    g = _grid(a, [m])
    h = g.spacing[0]
    lam = h * 2.0 ** e
    f = GridFn(g, 1.0 - sign * h / (2 * lam) * g.coords(0))
    env, back = moreau_envelope(f, lam).values, moreau_envelope(GridFn(g, f.values[::-1]), lam).values
    assert env.tobytes() == back[::-1].tobytes()
