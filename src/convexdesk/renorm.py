"""Asplund averaging of two norms on R^2.

Starting from half-squared norms p0 >= q0 with p0 <= (1 + C) q0, each
step replaces p by the pointwise average and q by the scaled infimal
convolution q'(x) = (p box q)(2x) / 2.  The sandwich q_n <= p_n <=
(1 + 4^-n C) q_n contracts geometrically; the common limit is a convex
function whose square root renorms the space.

Evaluation at 2x is exact index doubling on the Minkowski index-sum
lattice; nodes with 2x outside the reachable sum box become +inf, so the
faithful ('valid') window halves each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atoms import FnAtom, sample
from .errors import (
    IterationDivergedError,
    NormalizationError,
    ParameterError,
)
from .fenchel import minkowski_infconv_convex
from .grids import Grid, GridFn, interp_gridfn

__all__ = ["NormPair", "init_pair", "pair_from_gridfns", "asplund_step", "measured_ratio",
           "valid_region_halfwidth", "window_node_count", "strict_convexity_probe",
           "StrictConvexityReport"]

_NORM_TAGS = ("l1norm", "l2norm", "linfnorm")


@dataclass(frozen=True)
class NormPair:
    """Current iterates (p_n, q_n) plus the initial bound constant C."""

    p: GridFn
    q: GridFn
    n: int
    C: float
    swapped: bool = False  # inputs were exchanged so q0 <= p0 on the grid


def _grid_symmetric_odd(grid: Grid) -> None:
    if grid.dim != 2:
        raise ParameterError("norm averaging runs on 2-D grids")
    for lo, hi, n in grid.axes:
        if n % 2 == 0:
            raise ParameterError("grid needs odd point counts so the origin is a node")
        if abs(lo + hi) > 1e-12 * max(1.0, abs(hi)):
            raise ParameterError("grid must be symmetric about 0")


def valid_region_halfwidth(grid: Grid, n: int) -> float:
    """Half-width of the window where iterate n is faithful: L / 2^n."""
    return grid.axes[0][1] / (2 ** n)


def window_node_count(grid: Grid, n: int) -> int:
    """Nodes in the valid window of iterate n, origin included: the nodes
    measured_ratio reads."""
    return int(_region_mask(grid, valid_region_halfwidth(grid, n)).sum())


def _region_mask(grid: Grid, halfwidth: float) -> np.ndarray:
    c0 = np.abs(grid.coords(0)) <= halfwidth + 1e-12
    c1 = np.abs(grid.coords(1)) <= halfwidth + 1e-12
    return c0[:, None] & c1[None, :]


def measured_ratio(pair: NormPair) -> float:
    """r = max(p/q - 1) over finite nodes of the valid window, origin excluded."""
    mask = _region_mask(pair.p.grid, valid_region_halfwidth(pair.p.grid, pair.n))
    pv, qv = pair.p.values, pair.q.values
    ok = mask & np.isfinite(pv) & np.isfinite(qv) & (qv > 0)
    if not ok.any():
        raise IterationDivergedError("valid window holds no usable nodes")
    return float(np.max(pv[ok] / qv[ok] - 1.0))


def init_pair(norm1: FnAtom, norm2: FnAtom, grid: Grid) -> NormPair:
    """Sample half-squared norms, order them as q0 <= p0, and measure C."""
    for a in (norm1, norm2):
        if a.tag not in _NORM_TAGS:
            raise ParameterError(
                f"supported norms: {', '.join(_NORM_TAGS)}; got {a.tag!r}"
            )
    _grid_symmetric_odd(grid)
    with np.errstate(over="ignore"):  # refused below where a node overflows
        pv = sample(norm1, grid).values ** 2 / 2.0
        qv = sample(norm2, grid).values ** 2 / 2.0
    if not (np.isfinite(pv).all() and np.isfinite(qv).all()):
        raise ParameterError(f"half-squared norms overflow on the grid {grid.axes}")
    swapped = False
    if not np.all(pv >= qv):
        if np.all(qv >= pv):
            pv, qv = qv, pv
            swapped = True
        else:
            raise NormalizationError("neither order satisfies q0 <= p0 on the grid")
    nz = qv > 0
    if not nz.any():
        raise ParameterError(f"half-squared norms vanish at every node of the grid {grid.axes}")
    C = float(np.max(pv[nz] / qv[nz] - 1.0))
    return NormPair(GridFn(grid, pv), GridFn(grid, qv), 0, C, swapped)


def pair_from_gridfns(p0: GridFn, q0: GridFn, C: float) -> NormPair:
    """Start the iteration from arbitrary convex, even, half-squared-norm-like
    GridFns with a user-supplied bound constant C."""
    if p0.grid != q0.grid:
        raise ParameterError("p0 and q0 must share a grid")
    _grid_symmetric_odd(p0.grid)
    i0 = (p0.grid.zero_index(0), p0.grid.zero_index(1))
    for name, f in (("p0", p0), ("q0", q0)):
        if f.values[i0] != 0.0:
            raise ParameterError(f"{name} must vanish at the origin node")
        if np.any(f.values < 0):
            raise ParameterError(f"{name} must be nonnegative")
    if C < 0:
        raise ParameterError("C must be >= 0")
    if not np.all(q0.values <= p0.values):
        raise NormalizationError("q0 <= p0 fails on the grid")
    if np.any(p0.values > (1.0 + C) * q0.values + 1e-12 * (1.0 + C)):
        raise NormalizationError("p0 <= (1 + C) q0 fails on the grid")
    return NormPair(p0, q0, 0, float(C), False)


def asplund_step(pair: NormPair, sandwich_slack: Optional[float] = None) -> NormPair:
    """One averaging step; re-verifies the contracted sandwich bound on the
    halved valid window (slack defaults to 10 h, the index-doubling error
    scale).  Raises IterationDivergedError when the bound fails, and
    ParameterError for a NaN slack, under which neither guard could fire."""
    grid = pair.p.grid
    h = grid.spacing[0]
    if sandwich_slack is None:
        sandwich_slack = 10.0 * h
    if math.isnan(sandwich_slack):
        raise ParameterError("sandwich_slack must not be NaN")
    p1_vals = (pair.p.values + pair.q.values) / 2.0  # p, q hold no -inf: +inf absorbs

    pb = _finite_box(pair.p.values)
    qb = _finite_box(pair.q.values)
    F = pair.p.values[pb[0] : pb[1] + 1, pb[2] : pb[3] + 1]
    G = pair.q.values[qb[0] : qb[1] + 1, qb[2] : qb[3] + 1]
    # output node i reads the lattice index 2i minus the two boxes' offsets
    K0 = 2 * np.arange(grid.shape[0]) - pb[0] - qb[0]
    K1 = 2 * np.arange(grid.shape[1]) - pb[2] - qb[2]
    ok0 = (K0 >= 0) & (K0 < F.shape[0] + G.shape[0] - 1)
    ok1 = (K1 >= 0) & (K1 < F.shape[1] + G.shape[1] - 1)
    H = minkowski_infconv_convex(F, G, rows=K0[ok0])
    q1_vals = np.full(grid.shape, np.inf)
    q1_vals[np.ix_(ok0, ok1)] = H[np.ix_(K0[ok0], K1[ok1])] / 2.0

    n_next = pair.n + 1
    new = NormPair(GridFn(grid, p1_vals), GridFn(grid, q1_vals), n_next, pair.C, pair.swapped)
    bound = 4.0 ** (-n_next) * pair.C
    r = measured_ratio(new)
    if r > bound + sandwich_slack:
        raise IterationDivergedError(
            f"sandwich bound violated at step {n_next}: r={r:.3e} > {bound:.3e} + {sandwich_slack:.3e}"
        )
    fin = np.isfinite(new.q.values) & np.isfinite(new.p.values)
    if fin.any() and float(np.max(new.q.values[fin] - new.p.values[fin])) > sandwich_slack:
        raise IterationDivergedError("q exceeded p beyond the slack")
    return new


def _finite_box(vals: np.ndarray) -> tuple[int, int, int, int]:
    fin = np.isfinite(vals)
    rows = np.flatnonzero(fin.any(axis=1))
    cols = np.flatnonzero(fin.any(axis=0))
    r0, r1, c0, c1 = rows[0], rows[-1], cols[0], cols[-1]
    if not fin[r0 : r1 + 1, c0 : c1 + 1].all():
        raise IterationDivergedError("finite region is not a rectangle")
    return int(r0), int(r1), int(c0), int(c1)


@dataclass(frozen=True)
class StrictConvexityReport:
    min_gap: float
    argpair: tuple[tuple[float, ...], tuple[float, ...]]
    flagged_flat: int  # pairs with gap below the flat threshold
    samples_used: int
    excluded_collinear: int  # pairs skipped: collinear with the origin, or an infinite midpoint


def strict_convexity_probe(
    f: GridFn, samples: int, seed: int = 0, flat_tol: float = 1e-9
) -> StrictConvexityReport:
    """Midpoint-gap probe of strict convexity at grid resolution.

    Samples random node pairs with distinct directions (pairs collinear
    with the origin are excluded, where half-squared norms are exactly
    quadratic), interpolates f at midpoints, and reports the smallest gap
    [f(a) + f(b)]/2 - f(midpoint).  A probe, not a proof: it gives up
    after 100 * samples skipped pairs, collinear with the origin or with
    a midpoint outside dom f.  ParameterError for fewer than two finite
    nodes.
    """
    rng = np.random.default_rng(seed)
    nodes = f.grid.nodes()
    vals = f.values.ravel()
    fin = np.flatnonzero(np.isfinite(vals))
    if fin.size < 2:
        raise ParameterError(f"strict convexity probe needs two finite nodes, f has {fin.size}")
    min_gap = math.inf
    argpair = ((), ())
    flagged = 0
    used = 0
    excluded = 0
    while used < samples and excluded <= 100 * samples:
        i, j = rng.choice(fin, size=2, replace=False)
        a, b = nodes[i], nodes[j]
        cross = a[0] * b[1] - a[1] * b[0] if f.grid.dim == 2 else np.inf
        if f.grid.dim == 2 and abs(cross) <= 1e-12:
            excluded += 1
            continue
        mid = 0.5 * (a + b)
        fm = float(interp_gridfn(f, mid[None, :])[0])
        if not np.isfinite(fm):
            excluded += 1
            continue
        gap = 0.5 * (vals[i] + vals[j]) - fm
        used += 1
        if gap < min_gap:
            min_gap = gap
            argpair = (tuple(a), tuple(b))
        if gap <= flat_tol:
            flagged += 1
    return StrictConvexityReport(float(min_gap), argpair, flagged, used, excluded)
