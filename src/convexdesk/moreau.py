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
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GridMismatchError, NonconvexError, ParameterError, WidenGridError
from .fenchel import (MAX_DIRECT_PAIRS, _conjugate_lines, _kernel_overflows, _line_blocks,
                      conjugate, default_dual_grid, inf_convolution)
from .grids import Grid, GridFn, discrete_convexity_check, interp_gridfn, require_proper

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


def _check_inputs(
    f: GridFn, lam: float, check_convexity: bool, convexity_tol: float, name: str, x=None
) -> Optional[np.ndarray]:
    """Input checks of prox (with its query x) and moreau_envelope."""
    require_proper(f, f"{name} input")
    if not lam > 0:  # NaN too
        raise ParameterError(f"lambda must be > 0, got {lam}")
    xv = None if x is None else np.atleast_1d(np.asarray(x, dtype=float))
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
    minimum, for each query row x of X (K, dim), a block at a time; the
    squares are summed over the axes in order, as ((x_j - x) ** 2).sum(-1)."""
    j = np.empty(X.shape[0], dtype=np.int64)
    best = np.empty(X.shape[0])
    with np.errstate(over="ignore"):  # near the float limit: inf samples skip the step
        for b in _line_blocks(X.shape[0], values.size):
            sq = functools.reduce(lambda q, d: (q[:, :, None] + d[:, None, :]).reshape(len(d), -1),
                                  ((c - x[:, None]) ** 2 for c, x in zip(coords, X[b].T)))
            v = values + sq / (2.0 * lam)
            j[b] = np.argmin(v, axis=1)
            best[b] = v[np.arange(v.shape[0]), j[b]]
    return j, best


def _parabola_step(f: GridFn, coords, idx, axis: int, x: np.ndarray, lam: float):
    """Guarded quadratic refinement along `axis` for K queries x (K, dim) at
    their argmin nodes, indices `idx` (a (K,) array per axis) into `coords`:
    the parabola through the objective there and at the two neighbours on
    the axis.  Returns its vertices and their values, +inf where not applied."""
    c, i = coords[axis], idx[axis]
    h = c[1] - c[0]
    near = list(idx)
    near[axis] = np.clip(i + np.arange(-1, 2)[:, None], 0, c.size - 1)
    with np.errstate(all="ignore"):  # inf and nan where the step does not apply
        sq = functools.reduce(operator.add,
                              ((cs[k] - xa) ** 2 for cs, k, xa in zip(coords, near, x.T)))
        pm, p0, pp = f.values[tuple(near)] + sq / (2.0 * lam)
        denom = pm - 2.0 * p0 + pp
        ok = (i > 0) & (i < c.size - 1) & (denom > 0) & np.isfinite(denom)
        ok &= np.isfinite(pm) & np.isfinite(p0) & np.isfinite(pp)
        delta = np.clip(0.5 * (pm - pp) / denom * h, -h, h)
        cand = np.stack([cs[k] for cs, k in zip(coords, idx)], axis=1)
        cand[:, axis] += np.where(ok, delta, 0.0)
        fc = interp_gridfn(f, cand)
        val = fc + ((x - cand) ** 2).sum(axis=1) / (2.0 * lam)
    return cand, np.where(ok & np.isfinite(fc), val, np.inf)


def prox(
    f: GridFn, lam: float, x, check_convexity: bool = True, convexity_tol: float = 1e-9
) -> ProxResult:
    """argmin of f(y) + ||x - y||^2 / (2 lam) over the grid, refined.

    Ties in the discrete argmin break to the smallest index; convexity
    makes them adjacent.  Where the objective overflows at every node (a
    tiny lam), the node minimizes lam f(y) + ||x - y||^2 / 2 instead,
    which has the same minimizer.
    """
    xv = _check_inputs(f, lam, check_convexity, convexity_tol, "prox", x)[None, :]
    coords = [f.grid.coords(ax) for ax in range(f.grid.dim)]
    j, best = _node_minimum(coords, f.values.ravel(), lam, xv)
    if best[0] == np.inf:
        with np.errstate(over="ignore"):
            j, _ = _node_minimum(coords, lam * f.values.ravel(), 1.0, xv)
    idx = np.unravel_index(j, f.grid.shape)
    best_pt, best_val = [c[i[0]] for c, i in zip(coords, idx)], float(best[0])
    for ax in range(f.grid.dim):  # per axis from the node; the first strictly better wins
        cand, val = _parabola_step(f, coords, idx, ax, xv, lam)
        if val[0] < best_val:
            best_pt, best_val = cand[0], float(val[0])
    return ProxResult(tuple(float(v) for v in best_pt), best_val, float(lam))


def _envelope_lines(xs: np.ndarray, F: np.ndarray, lam: float):
    """For every line l of F (shape (L, n)) and node x_k: the smallest index
    j minimizing F[l, j] + (x_k - x_j)^2 / (2 lam), and that minimum.

    The minimizer is the argmax of the conjugate of g = F + x^2 / (2 lam)
    at y = x_k / lam, with rounding windows resolved by the envelope's own
    expression (_conjugate_lines with lam: a line with no finite value gives
    (-1, +inf)).  Where conjugate's float-limit bound fails on g (its
    largest finite |g| taken as max |f| + max x^2 / (2 lam)) and the dual
    nodes x / lam, the minimum is the exhaustive one instead, which refuses
    more than MAX_DIRECT_PAIRS (line node, node) pairs before its work; the
    kernel's windows are capped as in conjugate.
    """
    lo, hi, n, lam = float(xs[0]), float(xs[-1]), xs.size, float(lam)
    fmax = max(-float(F.min()), float(np.max(F, where=np.isfinite(F), initial=0.0)))
    gmax = fmax + max(lo * lo, hi * hi) / (2.0 * lam)  # Python floats: inf, no warning
    if _kernel_overflows(gmax, [(lo, hi, n)], [(lo / lam, hi / lam, n)]):
        return _envelope_exhaustive(xs, F, lam)
    vals, j = _conjugate_lines(xs, F, xs, lam)
    return j, -vals


def _envelope_exhaustive(xs: np.ndarray, F: np.ndarray, lam: float):
    """_envelope_lines by the node minimum over every node pair, a line at a time."""
    pairs = F.size * xs.size
    if pairs > MAX_DIRECT_PAIRS:
        raise ParameterError(
            f"exhaustive envelope needs {pairs} node pairs, cap is {MAX_DIRECT_PAIRS}"
        )
    j, best = zip(*(_node_minimum([xs], line, lam, xs[:, None]) for line in F))
    return np.array(j), np.array(best)


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
    _, refined = _parabola_step(f, [xs], (j[0],), 0, xs[:, None], lam)
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
    return float(np.linalg.norm(xv - a - b))


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
