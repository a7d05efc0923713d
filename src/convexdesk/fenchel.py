"""Discrete Legendre-Fenchel transforms, infimal convolution,
subdifferentials, coercivity, and duality gaps.

The fast conjugate transforms stacks of lines at once.  The lower convex
hull of every line comes from the monotone chain's pop test, batched:
the first round drops the middle of every consecutive triple that lies
strictly above its chord, and each further round, over the kept points
of the lines that popped, also drops a middle within the test's own
rounding below its chord (a margin of 2 eps (|f0| + |f1| + |f2|)
(x2 - x0) on the cross product), until no triple pops, so rounding noise
on collinear runs goes in a few rounds.  Lines that still pop after a
work budget of a constant times the block's points, geometric zippers
with one low end node, finish in the per-point chain, so the hull costs
O(n) per line.  A block of lines whose values are all finite and where
no triple pops is its own hull, and skips this compaction.  Each hull
segment is placed once among the sorted dual nodes, by its slope plus a
rounding tolerance, and counting the placements puts each dual node on
a hull vertex, O(n + m) per line.  A segment straddles the dual nodes
within that tolerance of its slope; only such segments are placed a
second time, and the nodes each one straddles widen their rounding
windows by one vertex.  Over a window the exhaustive max is taken, over
the nodes rounding could make the argmax; a line's depth, its deepest
dropped node below the kept hull, widens the tolerance, and a line
deeper than an eighth of it (true curvature under the margin) is done
again with the exact test.  So 1-D values and argmax agree bit-for-bit
with the oracle, ties to the smallest primal index.  A 2-D transform is two
batched passes, rows then columns: its values agree bit-for-bit, its
argmax breaks ties row first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatchError, ImproperFunctionError, ParameterError, TruncationWarning
from .grids import Grid, GridFn, _dots, _frozen, _Frozen, _norm, interp_gridfn, require_proper

__all__ = [
    "ConjugateResult",
    "SubdifferentialSet",
    "conjugate",
    "conjugate_oracle",
    "biconjugate",
    "default_dual_grid",
    "inf_convolution",
    "InfConvResult",
    "minkowski_infconv_convex",
    "infconv_dual_check",
    "subdifferential",
    "max_formula_check",
    "coercivity_check",
    "CoercivityReport",
    "fenchel_duality_gap",
    "DualityGapResult",
]


@dataclass(frozen=True)
class ConjugateResult(_Frozen):
    """Values of f* on a dual grid plus the attaining primal node per dual node."""

    dual: GridFn
    argmax: np.ndarray  # flat primal index (row-major), -1 where no finite value

    def __post_init__(self) -> None:
        object.__setattr__(self, "argmax", _frozen(self.argmax, np.int64))


def _lower_hull(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull of the finite points (x, f), x
    increasing: the per-point monotone chain.

    Collinear vertices are kept so that exact sup ties resolve to the
    smallest index exactly as in the exhaustive oracle.
    """
    xl, fl = x.tolist(), f.tolist()
    hull: list[int] = []
    for i, (xi, fi) in enumerate(zip(xl, fl)):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            # pop i2 when it lies strictly above the chord i1 -> i
            if (fl[i2] - fl[i1]) * (xi - xl[i1]) > (fi - fl[i1]) * (xl[i2] - xl[i1]):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=np.int64)


def _above(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """_lower_hull's pop test, batched over consecutive triples of (x, f)
    along the last axis: the middle lies strictly above the chord of its
    neighbours."""
    return (f[..., 1:-1] - f[..., :-2]) * (x[2:] - x[:-2]) > (f[..., 2:] - f[..., :-2]) * (x[1:-1] - x[:-2])


_EPS = float(np.finfo(float).eps)


def _pops(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """_above with a rounding margin: the middle also pops where it lies
    within 2 eps (|f0| + |f1| + |f2|) (x2 - x0) of the chord in the cross
    product, the test's own rounding, where the float test cannot tell
    its side."""
    dx = x[2:] - x[:-2]
    af = np.abs(f)
    margin = af[:-2] + af[1:-1]
    margin += af[2:]
    margin *= (2.0 * _EPS) * dx
    margin += (f[1:-1] - f[:-2]) * dx
    return margin > (f[2:] - f[:-2]) * (x[1:-1] - x[:-2])


# Hull elimination budget of a block, in points tested: a round costs its
# points plus _ROUND_WORK, the points its fixed cost (about 20 us, at some
# 8 ns a point) would test; past _HULL_WORK times the block's finite
# points, the lines still popping finish in _lower_hull.
_HULL_WORK = 16
_ROUND_WORK = 2048
# a popping line whose depth (see _hull_mask) passes this share of its
# rounding bound is done again with the exact test
_DEEP = 0.125


def _hull_mask(rows: np.ndarray, x: np.ndarray, f: np.ndarray, pops: np.ndarray, bound: np.ndarray):
    """Which of a block's finite points (rows, x, f), sorted by line then
    x, are kept as their line's hull (their indices, increasing), and per
    line how deep a dropped point lies below the kept chain; pops is
    _above on their consecutive triples, false where a triple spans two
    lines, and bound holds the lines' rounding bounds (see
    _conjugate_block).

    The first round drops the middle of every triple that pops, and each
    further round the middles that pop with _pops's margin among the kept
    points of the lines that popped (_rounds).  A line where no triple
    pops is its own hull.  A dropped point lies above a chord or within
    rounding below it, so a line's depth is its deepest dropped point
    below the kept chain, which the windows absorb.  A line deeper than an
    eighth of its bound (true curvature under the margin) is done again
    from all its points with the exact test, depth 0.
    """
    keep = np.ones(rows.size, dtype=bool)
    _rounds(keep, rows, x, f, np.arange(rows.size), pops, _pops)
    # a line's first and last points are kept, so every dropped point d
    # has kept neighbours a < d < b on its own line
    k, d = np.flatnonzero(keep), np.flatnonzero(~keep)
    b = d - np.arange(d.size)  # kept points before d
    a, b = k[b - 1], k[b]
    below = f[a] + (f[b] - f[a]) * ((x[d] - x[a]) / (x[b] - x[a])) - f[d]
    depth = np.zeros(bound.size)
    np.maximum.at(depth, rows[d], below)
    deep = depth > _DEEP * bound
    if deep.any():
        depth[deep] = 0.0
        idx = np.flatnonzero(deep[rows])
        keep[idx] = True
        r = rows[idx]
        _rounds(keep, rows, x, f, idx, (r[2:] == r[:-2]) & _above(x[idx], f[idx]), _above)
        k = np.flatnonzero(keep)
    return k, depth


def _rounds(keep: np.ndarray, rows: np.ndarray, x: np.ndarray, f: np.ndarray, idx: np.ndarray,
            pops: np.ndarray, test) -> None:
    """Batched elimination rounds over the points idx (sorted by line then
    x), pops on their consecutive triples, then test on the kept points of
    the lines that popped, until none pops.  A zipper line (one low end
    point) loses one point a round, so past the work budget the lines
    still popping finish in _lower_hull on their kept points: O(n) per
    line either way."""
    work, budget = idx.size, _HULL_WORK * idx.size
    live = np.zeros(rows[-1] + 1, dtype=bool)
    r = rows[idx]
    while pops.any():
        # every point of idx is kept, so the next round's points are those
        # of the lines that popped, less the middles that popped (p)
        p = np.flatnonzero(pops) + 1
        keep[idx[p]] = False
        live[:] = False
        live[r[p]] = True
        s = live[r]
        s[p] = False
        s = np.flatnonzero(s)
        idx, r = idx[s], r[s]
        work += idx.size + _ROUND_WORK
        if work > budget:
            for p in np.split(idx, np.flatnonzero(r[1:] != r[:-1]) + 1):
                keep[p] = False
                keep[p[_lower_hull(x[p], f[p])]] = True
            return
        pops = (r[2:] == r[:-2]) & test(x[idx], f[idx])


# Elements per block of lines, which bounds the kernel's temporaries.
# grid-2d's eight kernel calls (2-D conjugates, biconjugates and envelopes
# at 251^2 and 355^2) took 240, 174, 155 and 170 ms at 2^13, 2^14, 2^15
# and 2^16 elements on a shared 2-vCPU Xeon host (9 alternated reps): the
# blocks' numpy calls cost less per element as blocks grow, until the
# working set, a few dozen arrays of a block's size, leaves its 4 MB L2.
_BLOCK_ELEMS = 1 << 15


def _line_blocks(nlines: int, width: int):
    """Slices over a stack of lines, `width` temporaries per line each."""
    step = max(1, _BLOCK_ELEMS // width)
    return (slice(a, a + step) for a in range(0, nlines, step))


def _place(ys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """np.searchsorted(ys, keys, side="right") for sorted ys (a grid axis,
    which Grid keeps strictly increasing, or its nodes over an envelope's
    lam), uniform up to rounding: a key's count c is read off its offset
    from ys[0] and kept where ys[c - 1] <= key < ys[c], which fixes it; the
    keys that miss (next to a node, or on far from uniform ys) take the
    binary search.  So do fewer than 2048 keys, for which the search costs
    less than the estimate's fixed cost (some 15 us)."""
    m = ys.size
    if keys.size < 2048:
        return np.searchsorted(ys, keys, side="right")
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        inv = (m - 1) / (ys[-1] - ys[0])
        c = keys * inv
        c += 1.0 - ys[0] * inv
    c = np.fmin(np.fmax(c, 0.0, out=c), float(m), out=c).astype(np.int64)  # nan to 0
    yp = np.concatenate(([-np.inf], ys, [np.inf]))  # yp[c] = ys[c - 1]
    miss = np.flatnonzero(~((yp[:-1].take(c) <= keys) & (yp[1:].take(c) > keys)))  # a nan key too
    if miss.size:
        np.put(c, miss, np.searchsorted(ys, np.take(keys, miss), side="right"))
    return c


def _conjugate_block(xs: np.ndarray, F: np.ndarray, ys: np.ndarray, lam: Optional[float], windows: int):
    if lam is not None:  # the envelope's transform, see _conjugate_lines
        f, xq, F, ys = np.ascontiguousarray(F).ravel(), ys, F + xs ** 2 / (2.0 * lam), ys / lam
    # the gathers below take flat indices into the block; a 2-D column pass
    # hands in a transposed view, copied here one block at a time
    F = np.ascontiguousarray(F)
    Ff = F.ravel()
    L, n = F.shape
    m = ys.size
    fin = np.isfinite(F)
    finite = fin.all()
    fmax = np.abs(F).max(axis=1) if finite else np.max(np.abs(F), axis=1, where=fin, initial=0.0)
    # A hull segment whose slope is within tol of y drops by at most `bound`
    # per index step, so rounding can make any node on or above it the
    # oracle's argmax.  The window spans the run of such segments around y;
    # every node outside it is below the window's best by more than `bound`,
    # and a node the margin dropped lies at most its line's depth below the
    # kept chain, so the depth widens the line's bound.
    yx = max(abs(ys[0]), abs(ys[-1])) * max(abs(xs[0]), abs(xs[-1]))
    bound = 64.0 * _EPS * (yx + fmax + 1.0)
    # every value finite and no triple popping: each line is its own hull,
    # its segments a row of slopes, and hull vertex v of line l is node v
    pops = _above(xs, F) if finite else None
    full = finite and not pops.any()
    if full:
        slopes = np.diff(F, axis=1) / (xs[1:] - xs[:-1])
        srow = np.arange(L)[:, None]
    else:
        # the finite points in line then node order: line hr, node hc,
        # value hf, abscissa hx; no triple spans two lines
        if finite:
            hr, hc, hf, hx = np.repeat(np.arange(L), n), np.tile(np.arange(n), L), Ff, np.tile(xs, L)
            pops = np.concatenate([pops, np.zeros((L, 2), dtype=bool)], axis=1).ravel()[:-2]
        else:
            p = np.flatnonzero(fin)
            if not p.size:
                return np.full((L, m), -np.inf), np.full((L, m), -1, dtype=np.int64), windows
            hr = p // n
            hc = p - hr * n
            hf, hx = Ff[p], xs[hc]
            pops = (hr[2:] == hr[:-2]) & _above(hx, hf)
        # a line where the exact pop test never fires is its own hull
        if pops.any():
            k, depth = _hull_mask(hr, hx, hf, pops, bound)
            hr, hc, hf, hx = hr[k], hc[k], hf[k], hx[k]
            bound += depth
        seg = np.flatnonzero(hr[1:] == hr[:-1])
        slopes = (hf[1:] - hf[:-1])[seg] / (hx[1:] - hx[:-1])[seg]
        srow = hr[seg]
        # each line's first hull vertex; a line without finite values lands
        # on another line's vertex: -inf
        start = np.searchsorted(hr, np.arange(L + 1))

    def vertex(l, v):  # node of hull vertex v of line l
        return v if full else hc.take(np.minimum(start[l] + v, hc.size - 1))

    yq = ys if lam is None else xq  # the dual nodes of the oracle's expression

    def value(y, j, q):  # that expression at y (of yq), node j and F's flat index q
        if lam is None:
            return y * xs.take(j) - Ff.take(q)
        return -(f.take(q) + (y - xs.take(j)) ** 2 / (2.0 * lam))  # the envelope's, negated

    tol = (bound * (n - 1) / (xs[-1] - xs[0]))[srow]
    # per line and dual node y: the hull segments with slope + tol < y, one
    # placement each, so y lands on vertex lo of its line
    k1 = _place(ys, slopes + tol)
    counts = np.bincount((srow * (m + 1) + k1).ravel(), minlength=L * (m + 1))
    lo = np.cumsum(counts.reshape(L, m + 1)[:, :m], axis=1)
    rows = np.arange(L)[:, None]
    arg = vertex(rows, lo)
    vals = value(yq, arg, rows * n + arg)

    # The window at (line, y) runs from vertex lo to vertex lo + extra, with
    # extra the segments with slope - tol < y <= slope + tol: the segments
    # that straddle a dual node, each +1 on its nodes [k0, k1), summed over
    # (m + 1) bins per line that has one.
    lows = slopes - tol
    st = np.flatnonzero((ys.take(k1 - 1) > lows) & (k1 > 0))
    wl = wk = e = np.zeros(0, dtype=np.int64)
    if st.size:
        r = st // (n - 1) if full else srow[st]  # their lines
        has = np.zeros(L, dtype=bool)
        has[r] = True
        wrows = has.nonzero()[0]
        at = (has.cumsum() - 1)[r] * (m + 1)
        events = np.bincount(at + _place(ys, np.take(lows, st)), minlength=wrows.size * (m + 1))
        events -= np.bincount(at + np.take(k1, st), minlength=events.size)
        # a line's events sum to 0, so one running sum serves all its lines
        extra = np.cumsum(events)
        wk = np.flatnonzero(extra)
        e, wl = extra[wk], wk // (m + 1)
        wk -= wl * (m + 1)
        wl = wrows[wl]
    q = wl * m + wk  # flat index of (line, dual node)
    a = np.take(arg, q)
    size = vertex(wl, np.take(lo, q) + e) - a + 1
    windows = _budget(windows + int(size.sum()), "conjugate's rounding windows need {} nodes")
    # Chunks of window nodes, the block's size at most: a 2-D block settles
    # its windows in one chunk unless they outnumber its elements, and a
    # line in chunks of 2^13 nodes or of n + m.
    chunk = min(_BLOCK_ELEMS, max(1 << 13, L * (n + m)))
    ends = np.cumsum(size)
    c0 = 0
    while c0 < wl.size:
        # exhaustive smallest-index max of the oracle's expression per window
        c = slice(c0, max(c0 + 1, int(np.searchsorted(ends, ends[c0] - size[c0] + chunk))))
        first = np.cumsum(size[c]) - size[c]
        w = np.repeat(np.arange(first.size), size[c])
        j = (a[c] - first)[w] + np.arange(w.size)
        v = value(yq.take(wk[c])[w], j, (wl[c] * n)[w] + j)
        hit = np.flatnonzero(v == np.maximum.reduceat(v, first)[w])
        # each window's first maximum, with its own sign of zero as in the
        # oracle: every window has one, so the hits open window after window
        wh = w[hit]
        k = hit[np.flatnonzero(np.concatenate(([True], wh[1:] != wh[:-1])))]
        np.put(vals, q[c], v[k])
        np.put(arg, q[c], j[k])
        c0 = c.stop
    if not full:
        arg[start[:-1] == start[1:]] = -1
    return vals, arg, windows


def _conjugate_lines(xs: np.ndarray, F: np.ndarray, ys: np.ndarray, lam: Optional[float] = None):
    """Values and argmax of max_j (y x_j - F[l, j]) for every line l of F
    (shape (L, n)) at every dual node y of the sorted ys (shape (m,)).

    Both equal the exhaustive max over j, ties to the smallest j; lines
    without a finite value give (-inf, -1).  The hulls come from batched
    rounds of the chain's pop test over a block of lines, at most
    _HULL_WORK tested points per finite point, and the lines still popping
    then from the per-point chain.  O(n + m) per line, plus the windows of
    dual nodes that hit a hull slope within rounding, capped as in conjugate.

    With lam, the Moreau envelope's: the transform of F + x^2 / (2 lam) at
    ys / lam, with every value (windows included) taken in the envelope's
    own expression, negated: vals = -min_j F[l, j] + (y - x_j)^2 / (2 lam)
    and arg its smallest minimizing index, for y in ys.
    """
    L, m = F.shape[0], ys.size
    vals = np.empty((L, m))
    arg = np.empty((L, m), dtype=np.int64)
    windows = 0
    for b in _line_blocks(L, F.shape[1] + m):
        vals[b], arg[b], windows = _conjugate_block(xs, F[b], ys, lam, windows)
    return vals, arg


def _kernel_overflows(vmax: float, axes, dual_axes) -> bool:
    """Whether the bound in conjugate's docstring fails on some axis, for
    values of largest finite magnitude vmax on the primal axes (lo, hi, n)
    and the dual axes (lo, hi, m), all Python floats (inf, no warning)."""
    m = vmax
    for (lo, hi, _), (ylo, yhi, _) in zip(axes, dual_axes):
        m += max(abs(lo), abs(hi)) * max(abs(ylo), abs(yhi))
    return any(
        not 8.0 * max(m, 1.0) * max(hi - lo, 1.0 / ((hi - lo) / (n - 1))) <= np.finfo(float).max
        for lo, hi, n in axes
    )


def conjugate(f: GridFn, dual_grid: Grid) -> ConjugateResult:
    """Fenchel conjugate of a proper GridFn on a dual grid.

    In 1-D, values and argmax agree exactly with conjugate_oracle,
    including smallest-index tie-breaking.  In 2-D the values agree
    exactly too; the argmax attains the value but breaks ties row first,
    so on rounding ties it can name another node than the oracle's.

    Near the float limit the kernel's cross products and slope quotients
    could overflow.  With M the largest finite |f| plus the sum over axes
    of max |x| max |y| (a bound on every value the kernel forms), it runs
    only if 8 max(M, 1) max(S, 1/h) is at most the largest float on every
    axis of f's grid (span S, spacing h).  Otherwise the result is
    conjugate_oracle's, with its work budget.

    The hull's rounds drop a node within rounding below its chord too (the
    margin in the module docstring).  Each line's window bound grows by
    its depth, the deepest node so dropped below the kept hull, so the
    windows hold every such node that could be the argmax; a line deeper
    than an eighth of its bound is done again with the exact test, so the
    bound grows by at most an eighth.  Only geometric zippers (one low end
    node) still reach the per-point chain, past the rounds' work budget.

    Each hull segment is placed once among the dual nodes, by its slope
    plus the line's tolerance: read off its offset on the uniform dual
    grid and checked against the two nodes around it, with a binary search
    where that check fails or a block has fewer than 2048 segments.  Only
    a segment that straddles a dual node
    (one lies within the tolerance of its slope) is placed again, by its
    slope minus the tolerance, and adds one vertex to the windows of the
    nodes it straddles, summed per line that has one.  A block whose
    values are all finite and where no triple pops is its own hull: its
    slopes come from the values and nothing is gathered or compacted.
    The rounding windows take an exhaustive max over each window's nodes.
    Their work is one pass's window nodes, counted a block of lines at a
    time and refused before the block that crosses the cap.  A pass has at
    most one window of one line's nodes per line and dual node, so only
    inputs over the oracle's pair cap reach it; f = 0 on [-1, 1] with the
    dual grid in [-1e-13, 1e-13] has n*m window nodes.

    Blocks: a pass of L lines, n nodes and m dual nodes each, goes in
    blocks of _BLOCK_ELEMS // (n + m) lines (2^15 elements; at least one
    line), and a block of L lines takes its windows in chunks of
    min(_BLOCK_ELEMS, max(2^13, L (n + m))) window nodes.  So a 2-D block
    settles its windows in one chunk unless they outnumber its elements,
    and a line of n + m <= 2^13 goes in chunks of 2^13 window nodes.

    Memory: a 1-D line is one kernel block, not split, so its temporaries
    grow linearly in n + m.  By tracemalloc at n = m, |x| peaks at 82
    bytes per primal node (held under 256), and f = 0 with every segment
    straddling every dual node (n = m = 3000, the example above) at 146
    bytes per primal and dual node (held under 256); the windows are
    summed per line, never per (segment, dual node) pair.  A 2-D
    transform holds its (n1, m2) inner transform and its (m1, m2) result,
    values and argmax, 16 bytes a node each, and one block's temporaries
    at a time, at most 96 bytes per element of the block (82 on a block
    that pops, 33 on one that is its own hull).  f = a quadratic at 355^2
    onto 355^2 peaks at 5.3 MB, and its biconjugate, which holds the first
    transform's values (8 bytes a dual node) through the second, at 7.5 MB
    (held under 32 and 40 bytes a node plus 96 _BLOCK_ELEMS).
    """
    require_proper(f, "conjugate input")
    if dual_grid.dim != f.grid.dim:
        raise GridMismatchError("dual grid dimension must match the function's")
    vmax = float(np.max(np.abs(f.values), where=np.isfinite(f.values), initial=0.0))
    if _kernel_overflows(vmax, f.grid.axes, dual_grid.axes):
        return conjugate_oracle(f, dual_grid)
    if f.grid.dim == 1:
        vals, arg = _conjugate_lines(f.grid.coords(0), f.values[None, :], dual_grid.coords(0))
        return ConjugateResult(GridFn(dual_grid, vals[0]), arg[0])
    inner, inner_arg = _conjugate_lines(f.grid.coords(1), f.values, dual_grid.coords(1))
    vals, a1 = _conjugate_lines(f.grid.coords(0), np.negative(inner, out=inner).T, dual_grid.coords(0))
    del inner  # in place and freed early: the (n1, m2) arrays set the peak memory
    argmax = np.take_along_axis(inner_arg, a1.T, axis=0)
    del inner_arg
    a1 *= f.grid.shape[1]
    argmax += a1.T
    return ConjugateResult(GridFn(dual_grid, vals.T), argmax)


def conjugate_oracle(f: GridFn, dual_grid: Grid) -> ConjugateResult:
    """Exhaustive O(n*m) conjugate; ground truth for the fast transform.

    Its work is the n*m primal-dual node pairs (MAX_DIRECT_PAIRS caps it);
    the result is _conjugate_scan's.  Where a term is inf - inf in dom f
    (in 2-D, x1 y1 and x2 y2 - f past the float limit with opposite signs)
    it raises ParameterError naming the dual and the primal node.
    """
    require_proper(f, "conjugate input")
    if dual_grid.dim != f.grid.dim:
        raise GridMismatchError("dual grid dimension must match the function's")
    _budget(f.grid.node_count * dual_grid.node_count, "conjugate_oracle needs {} node pairs")
    ys = dual_grid.nodes()
    best, arg = _conjugate_scan(f, ys)
    if np.isnan(best).any():  # np.argmax named the first nan term
        i = int(np.argmax(np.isnan(best)))
        raise ParameterError(
            f"conjugate term <x, y> - f(x) is inf - inf at dual node y = {ys[i].tolist()} "
            f"and primal node x = {f.grid.nodes()[arg[i]].tolist()} of dom f"
        )
    shape = dual_grid.shape
    return ConjugateResult(GridFn(dual_grid, best.reshape(shape)), arg.reshape(shape))


def _conjugate_scan(f: GridFn, ys: np.ndarray):
    """max_j <y, x_j> - f_j over the nodes x_j of dom f and its smallest flat
    index j, for each row y of ys (K, dim), over blocks of about _TILE_ELEMS
    pairs.  A term is y x - f in 1-D and x1 y1 + (x2 y2 - f) in 2-D, the
    iterated transform's expression tree, and -inf where f = +inf; overflow
    is silent, and a 2-D inf - inf in dom f is nan, which wins as in np.argmax."""
    dim, n, k = f.grid.dim, f.values.size, ys.shape[0]
    # axis ax's primal coordinates, broadcast along the other axes
    xs = [f.grid.coords(ax).reshape([-1 if a == ax else 1 for a in range(dim)]) for ax in range(dim)]
    step = max(1, _TILE_ELEMS // n)
    buf, out = np.empty((min(step, k),) + f.values.shape), []
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, k, step):
            y = ys[a : a + step].T[(...,) + (None,) * dim]  # y[ax]: (block, 1, ...)
            v = np.subtract(y[-1] * xs[-1], f.values, out=buf[: y.shape[1]])
            for ax in range(dim - 2, -1, -1):
                np.add(y[ax] * xs[ax], v, out=v)
            v = v.reshape(-1, n)
            j = np.argmax(v, axis=1)
            b = v[np.arange(j.size), j]
            if math.isnan(b.min()):  # inf - inf where f = +inf
                v[:, np.isinf(f.values.ravel())] = -np.inf
                j = np.argmax(v, axis=1)
                b = v[np.arange(j.size), j]
            out.append((b, j))
    return out[0] if len(out) == 1 else tuple(np.concatenate(z) for z in zip(*out))


def default_dual_grid(f: GridFn, n: Optional[int] = None, pad: float = 0.0) -> Grid:
    """Dual grid spanning the discrete difference quotients of f."""
    axes = []
    for ax in range(f.grid.dim):
        h, m = f.grid.spacing[ax], n or f.grid.axes[ax][2]
        with np.errstate(invalid="ignore"):
            d = np.diff(f.values, axis=ax) / h
        fin = np.isfinite(d)
        if not fin.any():
            lo, hi = -1.0, 1.0
        else:
            lo, hi = float(d[fin].min()), float(d[fin].max())
            c = np.linspace(lo, hi, m)
            if not (c[1:] > c[:-1]).all():  # an affine f: its slopes agree, or spread over a few ulps
                w = max(1.0, m * float(np.spacing(max(abs(lo), abs(hi)))))
                lo, hi = lo - w, hi + w
        axes.append((lo - pad, hi + pad, m))
    return Grid(tuple(axes))


def biconjugate(f: GridFn, dual_grid: Grid) -> GridFn:
    """Conjugate applied twice, back onto f's own grid; the first argmax is
    freed before the second transform."""
    return conjugate(conjugate(f, dual_grid).dual, f.grid).dual


@dataclass(frozen=True)
class InfConvResult(_Frozen):
    """(f box g)(x) = min_y f(y) + g(x - y) on the grid, and per x the flat
    index of the attaining y node (-1 where +inf), _frozen."""

    out: GridFn
    argmin: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "argmin", _frozen(self.argmin, np.int64))


# The work budget of every exhaustive pass.  A pass counts its work from
# its input sizes (each entry point's docstring gives its count) and calls
# _budget before the work it counts, so a pass past the cap is refused
# with ParameterError before it starts.  On a shared 2-vCPU Xeon host, at
# the cap: the direct inf-convolution about 2 to 2.5 s at 241² and 2 to
# 2.4 s at 51,639 nodes (centred on 0); conjugate_oracle 4 to 5 s (about
# 2 ns a pair in 1-D, 2.5 ns in 2-D); a conjugate pass's rounding windows
# about 50 s (21 to 24 ns a window node); the Minkowski merge about 20 s
# (10 to 11 ns an increment); the exhaustive envelope about 7.5 s (3.7 ns
# a node pair).  is_monotone, surjectivity_probe and coupon_convexity_probe
# state theirs.
MAX_DIRECT_PAIRS = 2_000_000_000


def _budget(work: int, needs: str) -> int:
    """`work`, the count of an exhaustive pass, or ParameterError past
    MAX_DIRECT_PAIRS, read at each call so that a patched cap holds
    everywhere; `needs` is the pass's "... needs {} ..." text."""
    if work > MAX_DIRECT_PAIRS:
        raise ParameterError(f"{needs.format(work)}, cap is {MAX_DIRECT_PAIRS}")
    return work


# (x, y) sums per tile of the direct inf-convolution, 1 MB of float64
_TILE_ELEMS = 1 << 17
# A tile's fixed cost in (x, y) pairs: its dozen numpy calls took 4.8 to
# 7.9 us, and a pair 1.0 to 1.7 ns, on a shared 2-vCPU Xeon host
_TILE_WORK = 4500


def _axis_pairs(n: int, i0: int) -> int:
    """Node pairs (x, y) on an axis of n nodes, 0 at node i0, with x - y a node."""
    a, b = n - 1 - i0, i0
    return n * n - (a * (a + 1) + b * (b + 1)) // 2


def _bound_blocks(a: np.ndarray, b: np.ndarray, z: int):
    """Row blocks (k, T) of the bound table T[x, y] = a[y] + b[x - y + z]
    on one axis, +inf where x - y + z is off it: rows x from k, about
    _TILE_ELEMS floats a block."""
    n = a.size
    win = sliding_window_view(np.pad(b[::-1], n - 1, constant_values=np.inf), n)
    step = max(1, _TILE_ELEMS // n)
    for k in range(0, n, step):  # win[2 n - 2 - z - x] lists b[x - y + z] over y
        kb = min(k + step, n)
        yield k, a + win[2 * n - 1 - z - kb : 2 * n - 1 - z - k][::-1]


def _rectangles(fv: np.ndarray, gv: np.ndarray, zero: tuple[int, int]) -> np.ndarray:
    """[lo0, hi0, lo1, hi1], each (n0, n1): per x, the rectangle of y nodes
    [lo0, hi0) x [lo1, hi1) that holds every (x, y) pair whose sum is at
    most U(x), the sum at (y0*, y1*), the argmins of the two bound tables.
    A row bound adds the row minima of f and g (a column bound the column
    minima), and float addition is monotone, so no pair's sum lies below
    its row's bound or its column's."""
    tables = [(fv.min(axis=1 - ax), gv.min(axis=1 - ax), z) for ax, z in enumerate(zero)]
    ys = [np.concatenate([T.argmin(axis=1) for _, T in _bound_blocks(*t)]) for t in tables]
    us = [np.arange(n) - y + z for n, y, z in zip(fv.shape, ys, zero)]
    U = fv[np.ix_(*ys)] + gv[np.ix_(*(u.clip(0, n - 1) for u, n in zip(us, fv.shape)))]
    U[(us[0] < 0) | (us[0] >= fv.shape[0])] = np.inf  # a bound row of +inf only
    U[:, (us[1] < 0) | (us[1] >= fv.shape[1])] = np.inf
    ends = np.empty((2, 2) + fv.shape, dtype=np.int64)  # per axis, lo and hi
    for t, Ux, e in zip(tables, (U, U.T), (ends[0], ends[1].transpose(0, 2, 1))):
        for k, T in _bound_blocks(*t):
            # the first y whose bound is <= U is the first whose prefix
            # minimum is, the last the last whose suffix minimum is
            pre = -np.minimum.accumulate(T, axis=1)
            suf = -np.minimum.accumulate(T[:, ::-1], axis=1)
            for i, x in enumerate(range(k, k + T.shape[0])):
                e[0, x] = pre[i].searchsorted(-Ux[x])
                e[1, x] = T.shape[1] - suf[i].searchsorted(-Ux[x])
    return ends.reshape((4,) + fv.shape)


def _tiles(fv: np.ndarray, gv: np.ndarray, zero: tuple[int, int]) -> np.ndarray:
    """The tiles of the direct inf-convolution, (7, tiles): x column c, x0
    rows [k, kb) and their y box [y0a, y0b) x [ya, yb), by c, then k.
    Level l of the tables is rows [a_l, a_l + s_l): the s_l = N / t_l
    tiles of t_l = 2^l t0 rows from x0 = 0 (N = t_L >= n0; those past n0
    empty), a box B as lo0, -hi0, lo1, -hi1: the union of their reaches,
    cut in 2-D to that of their rectangles, a level's from the one below."""
    (n0, n1), (z0, z1) = fv.shape, zero
    # tiles of _TILE_ELEMS // (n0 n1) rows fit whatever the rectangles; t0
    # is a quarter of that, so that small rectangles may take smaller tiles
    t0 = min(n0, max(1, _TILE_ELEMS // (4 * n0 * n1)))
    t = t0 << np.arange((-(-n0 // t0) - 1).bit_length() + 1)
    N, x1 = int(t[-1]), np.arange(n1)
    s = N // t
    a, tt = np.cumsum(s) - s, np.repeat(t, s)
    k = (np.arange(tt.size) - np.repeat(a, s)) * tt
    kb = np.minimum(k + tt, n0)
    B = np.full((4, tt.size, n1), -n0 - n1, dtype=np.int32)
    reach = [np.maximum(0, k + z0 - n0 + 1)[:, None], -np.minimum(n0, kb + z0)[:, None],
             np.maximum(0, x1 + z1 - n1 + 1), -np.minimum(n1, x1 + z1 + 1)]
    if n1 > 1:
        R = np.full((4, N, n1), n0 + n1, dtype=np.int32)
        R[:, :n0] = _rectangles(fv, gv, zero) * np.array([1, -1, 1, -1])[:, None, None]
        B[:, : s[0]] = R.reshape(4, s[0], t0, n1).min(axis=2)
        for u, size in zip(a[:-1].tolist(), s[:-1].tolist()):
            np.minimum(B[:, u : u + size : 2], B[:, u + 1 : u + size : 2], out=B[:, u + size : u + size + size // 2])
    for b, v in zip(B, reach):
        np.maximum(b, v, out=b)
    pairs = np.maximum(kb - k, 0)[:, None] * ((B[0] + B[1]) * (B[2] + B[3]))
    cost = np.add.reduceat(pairs, a) + _TILE_WORK * -(-n0 // t)[:, None]
    cost[1:][np.maximum.reduceat(pairs, a)[1:] > _TILE_ELEMS] = np.iinfo(np.int64).max
    lv = cost.argmin(axis=0)  # per column, its level's n tiles that start before n0
    n = -(-n0 // t[lv])
    c, i = np.repeat(x1, n), np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - a[lv], n)
    return np.vstack([c, k[i], kb[i], B[:, i, c] * np.array([[1], [-1], [1], [-1]])])


@np.errstate(over="ignore")
def inf_convolution(f: GridFn, g: GridFn) -> InfConvResult:
    """(f box g)(x) = min over grid nodes y of f(y) + g(x - y).

    Direct computation over grid displacements; out-of-grid arguments are
    +inf.  Requires 0 to be a node so displacements land on nodes.  Each
    value is the rounded sum f(y) + g(x - y) at its argmin, the smallest
    flat y index among ties (+inf, silently, past the float limit); the
    argmin is -1 where the value is +inf.  A line is the (n, 1) grid.

    In 2-D only the y in a rectangle are summed.  A row bound adds the
    minima of f's row y0 and g's row x0 - y0, a column bound the column
    minima; float addition is monotone, so no pair's sum lies below its
    row's or its column's bound.  U(x) is the sum at one pair, the argmins
    of the two bound tables, so the minimum is at most U(x), and the rows
    and columns whose bound exceeds U(x) hold no minimizer and no tie.
    The rectangle spans the others, and summing it in flat y order gives
    the same first minimum, bits and sign of zero included.  A prefix and
    a suffix minimum of each bound row place its ends by binary search.
    On a line the bound would be the value itself, so a line sums all of
    its reach.

    The x nodes go in tiles of consecutive x0 rows of one x column, each
    summing a box of y: the union of its x nodes' reaches, cut in 2-D to
    the union of their rectangles.  A column's tiles have t rows, the t in
    t0, 2 t0, 4 t0, ... (t0 = _TILE_ELEMS // (4 n0 n1), at least 1) that
    minimizes its work, the pairs its tiles sum plus _TILE_WORK a tile,
    among the t whose tiles each sum at most _TILE_ELEMS pairs, and t0.  A
    tile copies the box's columns of the rows of f and of g (reversed,
    with n0 - 1 rows of +inf above and below) that it reads, all rows if
    the next tile reads the same columns, so that each x reads its y block
    as one contiguous run in flat y order.  The budget counts the (x, y)
    pairs with x - y a node, which MAX_DIRECT_PAIRS caps at about 51,600
    nodes in 1-D and 241² in 2-D, centred on 0.  Memory, in floats: the
    tile's sums (at most _TILE_ELEMS, or one x's box), (8 n0 - 4) n1 for
    g, f and their copies, about _TILE_ELEMS for the bound tables, and
    tables of under 24 n0 n1 integers.
    """
    if f.grid != g.grid:
        raise GridMismatchError("inf-convolution requires the same grid geometry")
    require_proper(f, "inf-convolution input f")
    require_proper(g, "inf-convolution input g")
    grid = f.grid
    shape = grid.shape
    zero = [grid.zero_index(ax) for ax in range(grid.dim)]
    _budget(math.prod(_axis_pairs(n, i0) for n, i0 in zip(shape, zero)),
            "direct inf-convolution needs {} (x, y) pairs")
    # a line is the (n, 1) grid: shape (n0, n1), zero node (z0, z1)
    (n0, n1), (z0, z1) = (shape + (1,))[:2], (zero + [0])[:2]
    fv, gv = f.values.reshape(n0, n1), g.values.reshape(n0, n1)
    tiles = _tiles(fv, gv, (z0, z1))
    # g reversed on both axes, with n0 - 1 rows of +inf above and below:
    # r[2 n0 - 2 - x0 + y0 - z0, n1 - 1 - x1 + y1 - z1] = g[x - y + z]
    r, j = np.full((3 * n0 - 2, n1), np.inf), np.empty((n1, n0), dtype=np.int64)  # j: x column-major
    r[n0 - 1 : 2 * n0 - 1] = gv[::-1, ::-1]
    m, ws = tiles[2] - tiles[1], tiles[6] - tiles[5]
    buf = np.empty(int((m * (tiles[4] - tiles[3]) * ws).max()))
    rc, fc = np.empty(r.size + fv.size), np.empty(fv.size)  # a tile's copies
    runs = sliding_window_view(rc, fv.size)  # a start s <= r.size leaves n0 n1 after it
    same = np.zeros(m.size + 1, dtype=bool)  # same[i]: tiles i - 1 and i read the same columns
    same[1:-1] = (tiles[[0, 5, 6], 1:] == tiles[[0, 5, 6], :-1]).all(axis=0)
    for c, k, kb, y0a, y0b, ya, yb, prev, nxt in zip(*tiles.tolist(), same[:-1].tolist(), same[1:].tolist()):
        # as rows of w floats, x0's y block [y0a, y0b) x [ya, yb) is one
        # flat run from row 2 n0 - 2 - x0 - z0 + y0a of r's columns
        # [q, q + w), in flat y order; x0 + 1 starts w floats earlier
        w, h, q = yb - ya, y0b - y0a, n1 - 1 - c - z1 + ya
        a = 2 * n0 - 1 - kb - z0 + y0a  # the row of x0 = kb - 1
        if not prev:  # copy rows [ra, rb) of r and [fa, fb) of f
            ra, rb, fa, fb = (0, r.shape[0], 0, n0) if nxt else (a, a + kb - k + h - 1, y0a, y0b)
            rc[: (rb - ra) * w].reshape(-1, w)[...] = r[ra:rb, q : q + w]
            fc[: (fb - fa) * w].reshape(-1, w)[...] = fv[fa:fb, ya:yb]
        win = runs[(a - ra) * w : (a - ra + kb - 1 - k) * w + 1 : w][::-1, : h * w]
        vals = np.add(fc[(y0a - fa) * w : (y0b - fa) * w], win, out=buf[: win.size].reshape(win.shape))
        vals.argmin(axis=1, out=j[c, k:kb])
    # per x, its argmin's flat y and the value there, the sum again
    y0a, ya, w = (np.repeat(v, m).reshape(n1, n0).T for v in (tiles[3], tiles[5], ws))
    y = (y0a + j.T // w) * n1 + ya + j.T % w
    out = fv.ravel()[y] + r.ravel()[y - np.arange(n0 * n1).reshape(n0, n1) + (2 * n0 - 1 - z0) * n1 - 1 - z1]
    return InfConvResult(GridFn(grid, out.reshape(shape)), np.where(np.isfinite(out), y, -1).reshape(shape))


def _row_minkowski(F: np.ndarray, G: np.ndarray, rows):
    a0, a1 = F.shape
    b0, b1 = G.shape
    # + 0.0 turns -0.0 increments into +0.0: the loop's running sum starts
    # at +0.0 and cannot tell them apart, but np.cumsum starts at d[0]
    dF = np.diff(F, axis=1) + 0.0
    dG = np.diff(G, axis=1) + 0.0
    H = np.full((a0 + b0 - 1, a1 + b1 - 1), np.inf)
    # an output row K1 has the row pairs (j1, K1 - j1), j1 in [j1a, j1b]:
    # at most min(a0, b0) of them, one contiguous row of buf each
    buf = np.empty((min(a0, b0), a1 + b1 - 2))
    for K1 in rows:
        j1a = max(0, K1 - b0 + 1)
        j1b = min(a0 - 1, K1)
        ia, ib = K1 - j1b, K1 - j1a
        vals = buf[: j1b - j1a + 1]
        base = F[j1a : j1b + 1, 0] + G[ia : ib + 1, 0][::-1]
        vals[:, : a1 - 1] = dF[j1a : j1b + 1]
        vals[:, a1 - 1 :] = dG[ia : ib + 1][::-1]
        vals.sort(axis=1)
        np.cumsum(vals, axis=1, out=vals)
        vals += base[:, None]
        vals.min(axis=0, out=H[K1, 1:])
        r = base[::-1]  # of equal values np.minimum keeps the later one
        H[K1, 0] = r[np.argmin(r)]
    return H


def minkowski_infconv_convex(fvals: np.ndarray, gvals: np.ndarray, rows=None) -> np.ndarray:
    """Min-plus (Minkowski) convolution of finite convex arrays on the
    index-sum lattice: H[K] = min_{j+i=K} f[j] + g[i].

    Per output row, slope-merge the row pairs (the sorted-increments
    merge, exact for convex sequences by the classic exchange argument) and
    take the min over row splits.  A 1-D input is a stack of one row, so
    the merge is exact; in 2-D, when rows of the inputs are convex
    sequences this equals the direct lattice minimum up to the rows' hull
    gap.  `rows` restricts which output rows are computed (others +inf).

    The result is bit-identical to the plain loop that starts each running
    sum at +0.0 and folds the pairs in with np.minimum in j1 order
    (`tests/conftest.py::brute_row_minkowski`).  An output row's pairs sit
    in one contiguous buffer of min(a0, b0) x (a1 + b1 - 2) floats: their
    increments, with -0.0 taken as +0.0 as the loop's sum takes it, are
    sorted, summed and shifted by the bases in place, and column 0 takes
    the last base equal to the bases' minimum, the loop's tie rule.  For F
    of shape (a0, a1) and G of shape (b0, b1), the work is W = sum over the
    rows of (row pairs) x (a1 + b1 - 2) increments, in time
    O(sum pairs (a1 + b1) log(a1 + b1)); memory is 8 bytes times
    min(a0, b0)(a1 + b1 - 2) + a0(a1 - 1) + b0(b1 - 1) + (a0 + b0 - 1)(a1 + b1 - 1)
    floats (the buffer, the two increment tables and H), plus numpy's
    ufunc buffer for the bases' broadcast (np.getbufsize() floats).  W is
    its work: MAX_DIRECT_PAIRS caps it at two n x n arrays at n = 1000 with
    every row, or at n = 1260 with every other row, as an Asplund step
    asks, in 64 MB or 100 MB.
    """
    F = np.asarray(fvals, dtype=float)
    G = np.asarray(gvals, dtype=float)
    if not (np.isfinite(F).all() and np.isfinite(G).all()):
        raise ImproperFunctionError("minkowski fast path requires finite arrays")
    shape = tuple(a + b - 1 for a, b in zip(F.shape, G.shape))
    F, G = F.reshape(-1, F.shape[-1]), G.reshape(-1, G.shape[-1])
    a0, b0 = F.shape[0], G.shape[0]
    K = np.arange(a0 + b0 - 1) if rows is None else np.asarray(rows, dtype=np.int64)
    pairs = np.minimum(K, a0 - 1) - np.maximum(0, K - b0 + 1) + 1
    _budget(int(pairs.sum()) * (shape[-1] - 1), "Minkowski merge needs {} sorted increments")
    return _row_minkowski(F, G, K.tolist()).reshape(shape)


def infconv_dual_check(f: GridFn, g: GridFn, dual_grid: Grid) -> float:
    """Max |(f box g)* - (f* + g*)| over dual nodes where all three conjugates
    are finite; the identity (f box g)* = f* + g* holds wherever the sup is
    attained inside the grid box."""
    conv = inf_convolution(f, g).out
    lhs = conjugate(conv, dual_grid).dual.values
    rhs = conjugate(f, dual_grid).dual.values + conjugate(g, dual_grid).dual.values
    ok = np.isfinite(lhs) & np.isfinite(rhs)
    if not ok.any():
        return np.inf
    return float(np.max(np.abs(lhs[ok] - rhs[ok])))


@dataclass(frozen=True)
class SubdifferentialSet(_Frozen):
    """Dual-grid slopes passing the Fenchel-Young equality test at x."""

    x: tuple[float, ...]
    slopes: np.ndarray  # (k, dim)
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "slopes", _frozen(np.atleast_2d(self.slopes)))
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))


def _node_coords(grid: Grid, index: tuple[int, ...]) -> tuple[float, ...]:
    return tuple(grid.coords(ax)[i] for ax, i in enumerate(index))


def _local_slope_scale(f: GridFn, index: tuple[int, ...]) -> float:
    """Largest finite |difference quotient| adjacent to a node of finite value."""
    scale = 0.0
    for ax, (h, i) in enumerate(zip(f.grid.spacing, index)):
        q = np.abs(np.diff(f.values[index[:ax] + (slice(max(i - 1, 0), i + 2),) + index[ax + 1 :]]) / h)
        scale = max(scale, float(np.max(q, where=np.isfinite(q), initial=0.0)))
    return scale


def subdifferential(
    f: GridFn,
    index: tuple[int, ...] | int,
    epsilon: Optional[float] = None,
    dual_grid: Optional[Grid] = None,
) -> SubdifferentialSet:
    """Approximate subdifferential at a grid node: all dual nodes y with
    f(x) + f*(y) - <y, x> <= epsilon.

    Default epsilon is 4 h (local slope scale), the Fenchel-Young
    discretization error scale.
    """
    require_proper(f, "subdifferential input")
    if isinstance(index, int):
        index = (index,)
    fx = float(f.values[tuple(index)])
    if not np.isfinite(fx):
        raise ImproperFunctionError("f(x) must be finite")
    if dual_grid is None:
        dual_grid = default_dual_grid(f)
    if epsilon is None:
        epsilon = 4.0 * max(f.grid.spacing) * max(1.0, _local_slope_scale(f, tuple(index)))
    x = np.asarray(_node_coords(f.grid, tuple(index)))
    fstar = conjugate(f, dual_grid).dual
    ys = dual_grid.nodes()
    resid = fx + fstar.values.ravel() - _dots(ys, x)
    keep = np.isfinite(resid) & (resid <= epsilon)
    return SubdifferentialSet(tuple(x), ys[keep], float(epsilon))


def max_formula_check(
    f: GridFn,
    index: tuple[int, ...] | int,
    direction,
    epsilon: Optional[float] = None,
    dual_grid: Optional[Grid] = None,
) -> tuple[float, float]:
    """Directional difference quotient vs. max over the subdifferential.

    Returns (forward quotient at one grid step, max_y <y, d>); the two
    agree within O(h) plus the epsilon slack sqrt(2 eps) for smooth f.
    ParameterError, before any work, for a direction of the wrong dimension,
    zero or not finite.
    """
    if isinstance(index, int):
        index = (index,)
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    if d.shape != (f.grid.dim,) or not np.isfinite(d).all() or not d.any():
        raise ParameterError(f"direction {d.tolist()} needs {f.grid.dim} finite components, not all zero")
    u = d / np.max(np.abs(d))  # |u|^2 lies in [1, dim]: it cannot underflow or overflow
    step = np.rint(u).astype(int)  # each component -1, 0 or 1
    if not all(0 < i < n - 1 for i, n in zip(index, f.grid.shape)):
        raise GridMismatchError("x must be an interior node")
    nxt = tuple(i + s for i, s in zip(index, step))  # so a node of the grid
    fx = float(f.values[tuple(index)])
    fn = float(f.values[nxt])
    if not (np.isfinite(fx) and np.isfinite(fn)):
        raise ImproperFunctionError("requires finite values at x and x + h d")
    hstep = step * np.asarray(f.grid.spacing)
    unit = u / math.sqrt(_dots(u, u))
    with np.errstate(over="ignore"):
        quotient = (fn - fx) / _norm(hstep)
    sub = subdifferential(f, index, epsilon=epsilon, dual_grid=dual_grid)
    if sub.slopes.size == 0:
        return float(quotient), -np.inf
    return float(quotient), float(np.max(_dots(sub.slopes, unit)))


@dataclass(frozen=True)
class CoercivityReport:
    growth_slope: float  # min boundary difference quotient from the argmin
    level_sets_bounded: tuple[tuple[float, bool], ...]  # (level c, avoids boundary)
    coercive: bool


def coercivity_check(f: GridFn) -> CoercivityReport:
    """Boundary growth slope and a scan of 9 levels from min f to max f.

    A level set {f <= c} is 'bounded up to the grid' iff it contains no
    boundary node, i.e. iff c is below the smallest boundary value.
    """
    require_proper(f, "coercivity input")
    v = f.values
    fin = np.isfinite(v)
    fmin = float(v[fin].min())
    argmin_flat = int(np.flatnonzero((v == fmin).ravel())[0])
    argmin_idx = np.unravel_index(argmin_flat, v.shape)
    xmin = np.asarray(_node_coords(f.grid, argmin_idx))

    mask = np.zeros(v.shape, dtype=bool)
    for ax in range(v.ndim):  # the first and last node of every axis
        mask[(slice(None),) * ax + ([0, -1],)] = True
    bvals = v[mask]
    diff = f.grid.nodes().reshape(v.shape + (f.grid.dim,))[mask] - xmin
    dist = _norm(diff)
    quot = np.where(dist > 0, (bvals - fmin) / np.maximum(dist, 1e-300), 0.0)
    quot = np.where(np.isfinite(bvals), quot, np.inf)
    slope = float(np.min(quot))

    bmin = float(bvals.min()) if np.isfinite(bvals).any() else np.inf
    fmax = float(v[fin].max())
    cs = np.linspace(fmin + 1e-12 * max(1.0, abs(fmin)), fmax, 9)
    scan = tuple((float(c), bool(c < bmin)) for c in cs)
    coercive = slope > 0 and bmin > fmin
    return CoercivityReport(slope, scan, coercive)


@dataclass(frozen=True)
class DualityGapResult:
    primal: float
    dual: float
    gap: float


def fenchel_duality_gap(
    f: GridFn,
    g: GridFn,
    T,
    f_dual_grid: Grid,
    g_dual_grid: Grid,
) -> DualityGapResult:
    """Weak Fenchel duality: primal = min f(x) + g(Tx) over primal nodes,
    dual = max -f*(T^t y) - g*(-y) over g's dual nodes; always primal >=
    dual up to rounding.

    g and the conjugates are evaluated by multilinear interpolation, +inf
    outside their boxes; interpolation over-estimates convex data, which
    keeps the weak-duality direction safe.  Sums overflow to ±inf
    silently, and the gap is +inf where primal = +inf or dual = -inf (so
    where both are +inf), else primal - dual.  A T with a non-finite
    entry raises ParameterError.
    """
    require_proper(f, "duality input f")
    require_proper(g, "duality input g")
    Tm = np.atleast_2d(np.asarray(T, dtype=float))
    if Tm.shape != (g.grid.dim, f.grid.dim):
        raise GridMismatchError(
            f"T must map dim {f.grid.dim} to dim {g.grid.dim}, got shape {Tm.shape}"
        )
    if not np.isfinite(Tm).all():
        raise ParameterError(f"T must have finite entries, got {Tm.tolist()}")
    ys = g_dual_grid.nodes()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed image is ±inf or nan: +inf
        tx, tys = _dots(f.grid.nodes()[:, None], Tm), _dots(ys[:, None], Tm.T)
    inside = np.ones(len(tx), dtype=bool)
    for ax, (lo, hi, _) in enumerate(g.grid.axes):
        inside &= (tx[:, ax] >= lo) & (tx[:, ax] <= hi)
    feas = np.isfinite(f.values.ravel())
    if np.any(feas & ~inside):
        warnings.warn(
            "g's grid does not cover T(dom f); values outside were truncated to +inf",
            TruncationWarning,
            stacklevel=2,
        )
    gvals = interp_gridfn(g, tx)
    fstar = conjugate(f, f_dual_grid).dual
    gstar = conjugate(g, g_dual_grid).dual
    fterm = interp_gridfn(fstar, tys)
    gterm = interp_gridfn(gstar, -ys)
    with np.errstate(over="ignore"):
        primal_vals = np.where(feas & np.isfinite(gvals), f.values.ravel() + gvals, np.inf)
        dual_vals = np.where(np.isfinite(fterm) & np.isfinite(gterm), -fterm - gterm, -np.inf)
    primal = float(primal_vals.min())
    dual = float(dual_vals.max())
    gap = math.inf if primal == math.inf or dual == -math.inf else primal - dual
    return DualityGapResult(primal, dual, gap)
