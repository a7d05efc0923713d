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
from .grids import Grid, GridFn, _frozen, _norm, discrete_convexity_check, interp_gridfn, require_proper

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
    j = np.empty(X.shape[0], dtype=np.int64)
    best = np.empty(X.shape[0])
    sqmax = sum(float(c[-1] - c[0]) * float(c[-1] - c[0]) for c in coords)
    qmax = sqmax / (2.0 * float(lam))
    step = max(1, _TILE_ELEMS // values.size)
    with np.errstate(over="ignore", invalid="ignore"):  # near the float limit
        for a in range(0, X.shape[0], step):
            b = slice(a, a + step)
            sq = functools.reduce(lambda q, d: (q[:, :, None] + d[:, None, :]).reshape(len(d), -1),
                                  ((c - x[:, None]) ** 2 for c, x in zip(coords, X[b].T)))
            quot = sq / (2.0 * lam)  # at most qmax for a query in the box
            v = values + quot
            j[b] = np.argmin(v, axis=1)
            best[b] = v.min(axis=1)  # v[j]: no -0.0 in v (quot >= +0.0); a nan row is redone below
            if not qmax < math.inf or best[b].max() == np.inf:  # qmax is nan where 2 lam is inf
                if sqmax < math.inf and values.min() >= best[b].max() - sys.float_info.max / 2:
                    continue  # no node can beat its row's minimum (see _exact_minimum)
                r = np.flatnonzero(~(quot < np.inf).all(axis=1) | ~(best[b] < np.inf))
                j[b][r], best[b][r] = _exact_minimum(coords, values, lam, X[b][r], sq[r], quot[r])
    return j, best


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


def _parabola_step(f: GridFn, coords, idx, x: np.ndarray, lam: float):
    """Guarded quadratic refinement along each axis a for K queries x (K, dim)
    at their argmin nodes, indices `idx` (a (K,) array per axis) into `coords`:
    the parabola through the objective there and at the two neighbours on
    axis a.  Returns its vertices (dim, K, dim) and their values (dim, K),
    +inf where not applied, with the node as vertex dim, and f interpolated
    at all (dim + 1, K); a fixed number of array calls per axis."""
    dim, K = len(coords), x.shape[0]
    i = np.array(idx)  # (dim, K)
    near = i[:, None, :] + _STEPS[dim]  # [a, b]: axis b's index of the step along a, unclipped
    with np.errstate(all="ignore"):  # inf and nan where the step does not apply
        sq = functools.reduce(operator.add, ((c.take(near[:, b], mode="clip") - xb) ** 2
                                             for b, (c, xb) in enumerate(zip(coords, x.T))))
        flat = np.ravel_multi_index(tuple(near.transpose(1, 0, 2, 3)), f.grid.shape, mode="clip")
        pm, p0, pp = (f.values.take(flat) + sq / (2.0 * lam)).transpose(1, 0, 2)
        denom = pm - 2.0 * p0 + pp
        # a finite denom has pm, p0 and pp finite: none of them is -inf or nan
        ok = (i > 0) & (i < np.array([[c.size - 1] for c in coords])) & (denom > 0) & (denom < np.inf)
        h, neg_h = np.array([[[c[1] - c[0]], [c[0] - c[1]]] for c in coords]).transpose(1, 0, 2)
        delta = np.minimum(h, np.maximum(neg_h, 0.5 * (pm - pp) / denom * h))  # np.clip's bits
        cand, step = np.empty((dim + 1, K, dim)), np.where(ok, delta, 0.0)
        for b, (c, ib) in enumerate(zip(coords, idx)):  # the node, moved along axis b in row b
            cand[:, :, b] = c[ib]
            cand[b, :, b] += step[b]
        fc = interp_gridfn(f, cand.reshape(-1, dim)).reshape(dim + 1, K)
        val = fc[:dim] + np.add.reduce((x - cand[:dim]) ** 2, axis=-1) / (2.0 * lam)
    return cand, np.where(ok & np.isfinite(fc[:dim]), val, np.inf), fc


# per dimension, shape (axis a, axis b, 3, 1): the index steps (-1, 0, 1) along each axis a
_STEPS = {d: _frozen(np.eye(d)[:, :, None, None] * np.arange(-1, 2)[:, None], np.int64) for d in (1, 2)}
_ROUNDS_TO_INF = Fraction(2 ** 1024 - 2 ** 970)  # max_float + half an ulp, which rounds up


def prox(
    f: GridFn, lam: float, x, check_convexity: bool = True, convexity_tol: float = 1e-9
) -> ProxResult:
    """argmin of f(y) + ||x - y||^2 / (2 lam) over the grid, refined.

    Ties in the discrete argmin break to the smallest index; convexity
    makes them adjacent.  Where ||x - y||^2 / (2 lam) overflows at a node
    of dom f, or the objective at every node, the objective there is the
    exact rational value, and the envelope reported at such a node is that
    value rounded, +inf only past the float range.  Cost: the O(N) node
    scan plus a fixed number of array calls per axis, whatever N.
    """
    xv = _check_inputs(f, lam, check_convexity, convexity_tol, "prox", x)[None, :]
    coords = [f.grid.coords(ax) for ax in range(f.grid.dim)]
    j, best = _node_minimum(coords, f.values.ravel(), lam, xv)
    cand, val, fc = _parabola_step(f, coords, np.unravel_index(j, f.grid.shape), xv, lam)
    a, best_val = f.grid.dim, float(best[0])  # vertex dim is the node
    for ax in range(f.grid.dim):  # per axis from the node; the first strictly better wins
        if val[ax, 0] < best_val:
            a, best_val = ax, float(val[ax, 0])
    return ProxResult(tuple(float(v) for v in cand[a, 0]), best_val, float(lam), float(fc[a, 0]))


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
    _, refined, _ = _parabola_step(f, [xs], (j[0],), xs[:, None], lam)
    return GridFn(f.grid, np.minimum(vals[0], refined[0]))


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
