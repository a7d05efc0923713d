"""Proximal mappings, Moreau envelopes, Moreau decomposition, projections.

Envelope node minima come from the conjugate kernel, as
env(x) = x^2 / (2 lam) - (f + |.|^2 / (2 lam))*(x / lam), once per axis.
A prox query takes the exhaustive node minimum instead, cheaper than a
kernel pass at one query; the exhaustive envelope fallback shares it.
Prox points and the 1-D envelope then take one guarded quadratic
refinement: the parabola through the three bracketing samples proposes a
vertex, the objective is re-evaluated there through interpolation, and
the better of node and vertex wins.  Interpolation over-estimates convex
data, so the refinement can only improve on the node value and never
drops below the true envelope.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import GridMismatchError, NonconvexError, ParameterError, WidenGridError
from .fenchel import (_TILE_ELEMS, _budget, _conjugate_lines, _kernel_overflows, conjugate,
                      default_dual_grid, inf_convolution)
from .grids import (Grid, GridFn, _frozen, _interp, _norm, discrete_convexity_check,
                    require_proper)

__all__ = [
    "ProxResult",
    "prox",
    "moreau_envelope",
    "moreau_decomposition_residual",
    "project",
    "distance_via_infconv_check",
]


@dataclass(frozen=True)
class ProxResult:
    point: tuple[float, ...]
    envelope: float
    lam: float
    # f at point as interp_gridfn values it, for the resolvent certificate
    f_point: float = field(default=math.nan, repr=False, compare=False)


def _check_inputs(
    f: GridFn, lam: float, check_convexity: bool, convexity_tol: float, name: str, x=None
) -> Optional[np.ndarray]:
    """Input checks of prox (with its query x) and moreau_envelope."""
    require_proper(f, f"{name} input")
    if not lam > 0:  # NaN too
        raise ParameterError(f"lambda must be > 0, got {lam}")
    xv = None if x is None else np.array(x, dtype=float, ndmin=1)
    if xv is not None and xv.size != f.grid.dim:
        raise GridMismatchError("query dimension does not match the grid")
    if xv is not None and not f.grid.contains(xv):
        raise GridMismatchError(f"query {tuple(xv.tolist())} is outside the grid box")
    if check_convexity:
        rep = discrete_convexity_check(f, tol=convexity_tol)
        if not rep:
            raise NonconvexError(f"{name} requires convex f; violation at {rep.violation_index}")
    return xv


def _node_minimum(coords, values: np.ndarray, lam: float, X: np.ndarray):
    """Smallest flat index j minimizing values[j] + ||x - x_j||^2 / (2 lam)
    over the row-major nodes x_j of the axis coordinates `coords`, and that
    minimum, for each query row x of X (K, dim), in blocks of about
    _TILE_ELEMS (query, node) pairs; the squares are summed over the axes
    in order, as ((x_j - x) ** 2).sum(-1).
    A query whose quotient overflows at some node, or whose objective
    overflows at every node, takes _exact_minimum."""
    sqmax = sum(d * d for d in (float(c[-1] - c[0]) for c in coords))
    qmax = sqmax / (2.0 * float(lam))
    step, out = max(1, _TILE_ELEMS // values.size), []
    with np.errstate(over="ignore", invalid="ignore"):  # near the float limit
        for a in range(0, X.shape[0], step):
            Xb = X[a : a + step]
            sq = functools.reduce(lambda q, d: (q[:, :, None] + d[:, None, :]).reshape(len(d), -1),
                                  ((c - x[:, None]) ** 2 for c, x in zip(coords, Xb.T)))
            quot = sq / (2.0 * lam)  # at most qmax for a query in the box
            v = values + quot
            # v[j]: no -0.0 in v (quot >= +0.0); a nan row is redone below
            j, best = v.argmin(axis=1), np.minimum.reduce(v, axis=1)
            out.append((j, best))
            if not qmax < math.inf or np.maximum.reduce(best) == np.inf:  # qmax is nan where 2 lam is inf
                if sqmax < math.inf and values.min() >= best.max() - sys.float_info.max / 2:
                    continue  # no node can beat its row's minimum (see _exact_minimum)
                r = np.flatnonzero(~(quot < np.inf).all(axis=1) | ~(best < np.inf))
                j[r], best[r] = _exact_minimum(coords, values, lam, Xb[r], sq[r], quot[r])
    return out[0] if len(out) == 1 else tuple(np.concatenate(z) for z in zip(*out))


def _exact_minimum(coords, values: np.ndarray, lam: float, X, sq, quot):
    """_node_minimum's choice for the query rows of X where quot = sq / (2 lam)
    overflows (or is inf / inf) at some node, or the objective at every
    node: there, in dom f, the objective is the exact f_j + ||x - x_j||^2 /
    (2 lam), elsewhere the float one; the least (value, index) wins, its
    value rounded (+inf past the float range).  Only nodes that can beat
    the float minimum m are evaluated: f below m and, unless sq overflows
    there, below m - max_float / 2, as the quotient exceeds max_float / 2;
    where m is +inf, lam f + sq / 2 within its rounding of its least value."""
    plain = quot < np.inf
    v = np.where(plain, values + quot, np.inf)
    j0, m = np.argmin(v, axis=1), v.min(axis=1, keepdims=True)
    keep = (values < m - sys.float_info.max / 2) | (np.isinf(sq) & (values < m))
    keep &= (~plain | (m == np.inf)) & np.isfinite(values)
    m, lamq = m[:, 0], 2 * Fraction(lam)
    for k in np.flatnonzero(m == np.inf).tolist():
        w = lam * values + sq[k] / 2  # lam times the objective, to 2^-51 relative and 2^-1072
        err = 2.0 ** -50 * (np.abs(lam * values) + sq[k] / 2) + 2.0 ** -1070
        if keep[k].any() and np.isfinite(w[keep[k]]).all():
            keep[k] &= w - err <= (w + err)[keep[k]].min()
    for k in np.flatnonzero(keep.any(axis=1)).tolist():
        top = (Fraction(m[k]) if m[k] < math.inf else math.inf, j0[k])
        for jj in np.flatnonzero(keep[k]).tolist():
            node = [c[i] for c, i in zip(coords, np.unravel_index(jj, [c.size for c in coords]))]
            e = Fraction(values[jj]) + sum((Fraction(c) - Fraction(xa)) ** 2
                                           for c, xa in zip(node, X[k])) / lamq
            top = min(top, (e, jj))
        # m is never -0.0 (v = f + q, q >= +0.0), so it comes back as it was
        j0[k], m[k] = top[1], math.inf if top[0] >= _ROUNDS_TO_INF else float(top[0])
    return j0, m


def _vertex(pm, p0, pp, cm, c0, cp, h: float):
    """Where the step applies (centre c0 interior, cm < cp, and the curvature
    of pm, p0, pp finite and positive), that mask, and the parabola's vertex
    c0 + delta, delta clipped to [-h, h]; elsewhere c0 (+ 0.0)."""
    denom = pm - 2.0 * p0 + pp
    # a finite denom has pm, p0 and pp finite: none of them is -inf or nan
    ok = (denom > 0) & (denom < np.inf) & (cm < cp)
    delta = np.minimum(h, np.maximum(-h, 0.5 * (pm - pp) / denom * h))  # np.clip's bits
    return ok, c0 + np.where(ok, delta, 0.0)


def _parabola_step(f: GridFn, coords, j: np.ndarray, x: np.ndarray, lam: float):
    """Guarded quadratic refinement along each axis a for K queries x (K, dim)
    at their argmin nodes, flat indices j (K,): the parabola through the
    objective there and at the nodes at flat offsets -s and +s, s the axis'
    stride (_vertex).  Where that step does not apply and the +1 neighbour
    ties the node (a -1 neighbour cannot: j is the smallest index), the
    parabola centred on the neighbour.  Each vertex moves along one axis
    and is valued through interpolation; the first strictly least wins,
    the node's steps axis by axis, then the neighbours'.  Returns the node
    per axis and f there, and the winning vertex per axis, its value (+inf
    where no step applies) and f there, each (K,).  Cost: a fixed number
    of array calls per axis whatever K and N, about 60 in 1-D and 135 in
    2-D with the interpolation, and as many again for an axis with a tie."""
    dim, v, lam2, shape = len(coords), f.values.ravel(), 2.0 * lam, f.values.shape
    idx = (j,) if dim == 1 else np.unravel_index(j, shape)  # in 1-D the flat index is the axis index
    with np.errstate(all="ignore"):  # inf and nan where the step does not apply
        # the stencil's indices and coordinates per axis, (4, K): wrapped past
        # an end node, so that only an interior centre has increasing neighbours
        ks = [i + _STENCIL for i in idx]
        ck = [c.take(k, mode="wrap") for c, k in zip(coords, ks)]
        sq = [(c - xa) ** 2 for c, xa in zip(ck, x.T)]
        node, oks, moved, ties, stride = [c[1] for c in ck], [], [], [], v.size
        for a, (c, (cm, c0, cp, _)) in enumerate(zip(coords, ck)):
            stride //= c.size  # of axis a, row-major
            q = functools.reduce(operator.add, (d if b == a else d[1] for b, d in enumerate(sq)))
            flat = ks[a] if dim == 1 else j + _STENCIL * stride
            p = v.take(flat, mode="wrap") + q / lam2
            pm, p0, pp, _ = p
            h = float(c[1] - c[0])
            ok, m = _vertex(pm, p0, pp, cm, c0, cp, h)
            oks.append(ok)
            moved.append(m)
            if not np.logical_and.reduce(ok):  # the queries whose own step does not apply and whose +1 neighbour ties
                t = np.flatnonzero((pp == p0) > ok)
                if t.size:
                    _, p0, pp, p2 = (r.take(t) for r in p)
                    ties.append((a, t, *_vertex(p0, pp, p2, c0.take(t), cp.take(t), ck[a][3].take(t), h)))
        # the node, then the step along each axis, as rows
        cand = [np.array([c] + [m if a == b else c for a, m in enumerate(moved)]) for b, c in enumerate(node)]
        fc = _interp(f, cand)  # never nan: an infinite corner gives +inf or the node's value
        val = np.where(np.array(oks), (fc + _sqdist(x.T, cand) / lam2)[1:], np.inf)
        point, value, fv = [c[1] for c in cand], val[0], fc[1]
        for r in range(1, dim):  # the first strictly better step wins
            better = val[r] < value
            point = [np.where(better, c[r + 1], p) for c, p in zip(cand, point)]
            value, fv = np.where(better, val[r], value), np.where(better, fc[r + 1], fv)
        for a, t, ok, m in ties:  # a step from a tied neighbour wins where strictly better
            pt = [m if b == a else c.take(t) for b, c in enumerate(node)]
            ft = _interp(f, pt)
            vt = np.where(ok, ft + _sqdist([xa.take(t) for xa in x.T], pt) / lam2, np.inf)
            w = vt < value[t]
            tw = t[w]
            for p, c in zip(point, pt):
                p[tw] = c[w]
            value[tw], fv[tw] = vt[w], ft[w]
    return node, fc[0], point, value, fv


def _sqdist(xs, pts) -> np.ndarray:
    """||x - p||^2 for the queries and the points whose axis-a coordinates
    are xs[a] and pts[a], the squares added in axis order."""
    return functools.reduce(operator.add, ((xa - c) ** 2 for xa, c in zip(xs, pts)))


# the index steps of the stencil along one axis, as rows: the parabola
# centred on the node takes the first three, that on its +1 neighbour the last three
_STENCIL = _frozen([[-1], [0], [1], [2]], np.int64)
_ROUNDS_TO_INF = Fraction(2 ** 1024 - 2 ** 970)  # max_float + half an ulp, which rounds up


def prox(
    f: GridFn, lam: float, x, check_convexity: bool = True, convexity_tol: float = 1e-9
) -> ProxResult:
    """argmin of f(y) + ||x - y||^2 / (2 lam) over the grid, refined.

    Ties in the discrete argmin break to the smallest index; convexity
    makes them adjacent.  Where ||x - y||^2 / (2 lam) overflows at a node
    of dom f, or the objective at every node, the objective there is the
    exact rational value, and the envelope reported at such a node is that
    value rounded, +inf only past the float range.  The refinement is
    _parabola_step's: where the node's own step does not apply and its +1
    neighbour ties it, the step from that neighbour too.  Cost: the O(N)
    node scan (about 10 array calls) plus the steps' fixed number of array
    calls per axis (about 60 in 1-D, 135 in 2-D), whatever N.
    """
    xv = _check_inputs(f, lam, check_convexity, convexity_tol, "prox", x)[None, :]
    coords = [f.grid.coords(ax) for ax in range(f.grid.dim)]
    j, best = _node_minimum(coords, f.values.ravel(), lam, xv)
    node, f_node, point, value, fv = _parabola_step(f, coords, j, xv, lam)
    if value.item() < best.item():  # the step is strictly better than the node
        return ProxResult(tuple(c.item() for c in point), value.item(), float(lam), fv.item())
    return ProxResult(tuple(c.item() for c in node), best.item(), float(lam), f_node.item())


def _envelope_lines(xs: np.ndarray, F: np.ndarray, lam: float):
    """For every line l of F (shape (L, n)) and node x_k: the smallest index
    j minimizing F[l, j] + (x_k - x_j)^2 / (2 lam), and that minimum.

    The minimizer is the argmax of the conjugate of g = F + x^2 / (2 lam)
    at y = x_k / lam, with rounding windows resolved by the envelope's own
    expression (_conjugate_lines with lam: a line with no finite value gives
    (-1, +inf)).  Where conjugate's float-limit bound fails on g (its
    largest finite |g| taken as max |f| + max x^2 / (2 lam)) and the dual
    nodes x / lam, the minimum is the exhaustive node minimum instead, its
    work L n^2 (line node, node) pairs; the kernel's windows count as in
    conjugate.
    """
    lo, hi, n, lam = float(xs[0]), float(xs[-1]), xs.size, float(lam)
    fmax = max(-float(F.min()), float(np.max(F, where=np.isfinite(F), initial=0.0)))
    gmax = fmax + max(lo * lo, hi * hi) / (2.0 * lam)  # Python floats: inf, no warning
    if _kernel_overflows(gmax, [(lo, hi, n)], [(lo / lam, hi / lam, n)]):
        _budget(F.size * n, "exhaustive envelope needs {} node pairs")
        j, best = zip(*(_node_minimum([xs], line, lam, xs[:, None]) for line in F))
        return np.array(j), np.array(best)
    vals, j = _conjugate_lines(xs, F, xs, lam)
    return j, -vals


def moreau_envelope(
    f: GridFn, lam: float, check_convexity: bool = True, convexity_tol: float = 1e-9
) -> GridFn:
    """Envelope values at every node; finite everywhere and <= f.

    Each node's value is the node minimum of f(y) + (x - y)^2 / (2 lam)
    found through the conjugate kernel; 1-D then refines it like prox, and
    2-D applies the node minimum once per axis, which is exact because the
    quadratic kernel separates.
    """
    _check_inputs(f, lam, check_convexity, convexity_tol, "moreau_envelope")
    if f.grid.dim == 2:
        inner = _envelope_lines(f.grid.coords(1), f.values, lam)[1]
        return GridFn(f.grid, _envelope_lines(f.grid.coords(0), inner.T, lam)[1].T)
    xs = f.grid.coords(0)
    j, vals = _envelope_lines(xs, f.values[None, :], lam)
    _, _, _, refined, _ = _parabola_step(f, [xs], j[0], xs[:, None], lam)
    return GridFn(f.grid, np.minimum(vals[0], refined))


def moreau_decomposition_residual(f: GridFn, x, dual_grid: Optional[Grid] = None) -> float:
    """|| x - prox_f(x) - prox_{f*}(x) || at lambda = 1, for convex f."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if dual_grid is None:
        dual_grid = default_dual_grid(f, pad=1.0 + float(np.abs(xv).max()))
    if not dual_grid.contains(xv):
        raise WidenGridError("dual grid does not contain the query point; widen it")
    a = np.asarray(prox(f, 1.0, xv).point)
    fstar = conjugate(f, dual_grid).dual
    b = np.asarray(prox(fstar, 1.0, xv, check_convexity=False).point)
    ax = _boundary_axis(dual_grid, b)
    if ax is not None:
        raise WidenGridError(
            f"prox of f* landed on the dual grid boundary at axis {ax}; widen the dual grid"
        )
    with np.errstate(over="ignore"):
        return float(_norm(xv - a - b))


def _boundary_axis(grid: Grid, x) -> Optional[int]:
    """The first axis on which x lies within half a spacing of the box's boundary, or None."""
    return next((ax for ax, (xa, (lo, hi, _), h) in enumerate(zip(x, grid.axes, grid.spacing))
                 if xa <= lo + 0.5 * h or xa >= hi - 0.5 * h), None)


def project(box, x) -> np.ndarray:
    """Componentwise clamp onto a nonempty interval or box.

    `box` is (a, b) in 1-D or a sequence of per-axis (a, b) pairs.
    """
    b = np.atleast_2d(np.asarray(box, dtype=float))
    if b.shape[1] != 2:
        raise ParameterError("box must be (a, b) pairs")
    if np.any(b[:, 0] > b[:, 1]):
        raise ParameterError("empty box: needs a <= b per axis")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.size != b.shape[0]:
        raise GridMismatchError("point dimension does not match the box")
    return np.clip(xv, b[:, 0], b[:, 1])


def distance_via_infconv_check(C: tuple[float, float], grid: Grid) -> float:
    """Max |(|.| box i_C) - d_C| over grid nodes: the distance function is
    the inf-convolution of the norm with the indicator."""
    from .atoms import FnAtom, sample

    a, b = float(C[0]), float(C[1])
    lo, hi, _ = grid.axes[0]
    if not (lo <= a <= b <= hi):
        raise ParameterError("C must sit inside the grid box")
    conv = inf_convolution(sample(FnAtom("abs"), grid), sample(FnAtom("indicator", (a, b)), grid))
    direct = sample(FnAtom("distance", (a, b)), grid)
    return float(np.max(np.abs(conv.out.values - direct.values)))
