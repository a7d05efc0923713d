"""Discrete Legendre-Fenchel transforms, infimal convolution,
subdifferentials, coercivity, and duality gaps.

The fast conjugate transforms stacks of lines at once.  The lower convex
hull of every line comes from the monotone chain's pop test, batched:
each round drops the middle of every consecutive kept triple that pops,
until no triple pops; lines that still pop after a work budget of a
constant times the block's points finish in the per-point chain, so the
hull costs O(n) per line.  Counting hull slopes below each sorted dual
node places it on the hull, O(n + m) per line.  Where a hull slope lies
within rounding of a dual node, the exhaustive max is taken over the
nodes rounding could make the argmax, so 1-D values and argmax agree
bit-for-bit with the oracle, ties to the smallest primal index.  A 2-D
transform is two batched passes, rows then columns: its values agree
bit-for-bit, its argmax breaks ties row first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatchError, ImproperFunctionError, ParameterError, TruncationWarning
from .grids import Grid, GridFn, interp_gridfn, require_proper

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
class ConjugateResult:
    """Values of f* on a dual grid plus the attaining primal node per dual node."""

    dual: GridFn
    argmax: np.ndarray  # flat primal index (row-major), -1 where no finite value

    def __post_init__(self) -> None:
        a = np.asarray(self.argmax, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "argmax", a)


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


def _pops(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """_lower_hull's pop test, batched over consecutive triples of (x, f)."""
    return (f[1:-1] - f[:-2]) * (x[2:] - x[:-2]) > (f[2:] - f[:-2]) * (x[1:-1] - x[:-2])


# Hull elimination budget of a block, in points tested: a round costs its
# points plus _ROUND_WORK, the points its fixed cost (about 20 us, at some
# 8 ns a point) would test; past _HULL_WORK times the block's finite
# points, the lines still popping finish in _lower_hull.
_HULL_WORK = 16
_ROUND_WORK = 2048


def _hull_mask(rows: np.ndarray, x: np.ndarray, f: np.ndarray, pops: np.ndarray, L: int) -> np.ndarray:
    """Which of a block's finite points (rows, x, f), sorted by line then
    x, lie on their line's lower hull; pops is _pops on their consecutive
    triples, false where a triple spans two lines.

    Each round drops the middle of every kept triple that pops and tests
    again the kept points of the lines that popped.  A point that pops
    lies above a chord, so it is off the hull, and a line where no triple
    pops is its own hull.  A zipper line (one low end point) loses one
    point a round, so past the work budget the lines still popping finish
    in _lower_hull on their kept points: O(n) per line either way.
    """
    keep = np.ones(rows.size, dtype=bool)
    idx = np.arange(rows.size)
    work, budget = rows.size, _HULL_WORK * rows.size
    while pops.any():
        mid = idx[1:-1][pops]
        keep[mid] = False
        live = np.zeros(L, dtype=bool)
        live[rows[mid]] = True
        idx = idx[keep[idx] & live[rows[idx]]]
        r = rows[idx]
        work += idx.size + _ROUND_WORK
        if work > budget:
            for p in np.split(idx, np.flatnonzero(r[1:] != r[:-1]) + 1):
                keep[p] = False
                keep[p[_lower_hull(x[p], f[p])]] = True
            break
        pops = (r[2:] == r[:-2]) & _pops(x[idx], f[idx])
    return keep


# elements per block of lines, which bounds the kernel's temporaries
_BLOCK_ELEMS = 1 << 13


def _line_blocks(nlines: int, width: int):
    """Slices over a stack of lines, `width` temporaries per line each."""
    step = max(1, _BLOCK_ELEMS // width)
    return (slice(a, a + step) for a in range(0, nlines, step))


def _conjugate_block(xs: np.ndarray, F: np.ndarray, ys: np.ndarray, lam: Optional[float], windows: int):
    if lam is not None:  # the envelope's transform, see _conjugate_lines
        f, xq, F, ys = F, ys, F + xs ** 2 / (2.0 * lam), ys / lam
    L, n = F.shape
    m = ys.size
    fin = np.isfinite(F)
    fmax = np.max(np.abs(np.where(fin, F, 0.0)), axis=1)
    hr, hc = np.nonzero(fin)
    if not hr.size:
        return np.full((L, m), -np.inf), np.full((L, m), -1, dtype=np.int64), windows
    hf, hx = F[hr, hc], xs[hc]
    # a line where the pop test never fires is its own hull
    pops = (hr[2:] == hr[:-2]) & _pops(hx, hf)
    if pops.any():
        keep = _hull_mask(hr, hx, hf, pops, L)
        hr, hc, hf, hx = hr[keep], hc[keep], hf[keep], hx[keep]
    seg = np.flatnonzero(hr[1:] == hr[:-1])
    slopes = (hf[seg + 1] - hf[seg]) / (hx[seg + 1] - hx[seg])
    srow = hr[seg]

    # A hull segment whose slope is within tol of y drops by at most `bound`
    # per index step, so rounding can make any node on or above it the
    # oracle's argmax.  The window spans the run of such segments around y;
    # every node outside it is below the window's best by more than `bound`.
    yx = max(abs(ys[0]), abs(ys[-1])) * max(abs(xs[0]), abs(xs[-1]))
    bound = 64.0 * np.finfo(float).eps * (yx + fmax + 1.0)
    tol = (bound * (n - 1) / (xs[-1] - xs[0]))[srow]
    # per line and dual node y: hull segments with slope + tol < y (lo) and
    # with slope - tol < y (hi), counted in one bincount over 2 L groups
    k0 = np.searchsorted(ys, np.concatenate([slopes + tol, slopes - tol]), side="right")
    group = np.concatenate([srow, srow + L]) * (m + 1) + k0
    counts = np.bincount(group, minlength=2 * L * (m + 1)).reshape(2 * L, m + 1)
    lo, hi = np.cumsum(counts, axis=1)[:, :m].reshape(2, L, m)

    # a line without finite values lands on another line's vertex: -inf
    nh = np.bincount(hr, minlength=L)
    start = (np.cumsum(nh) - nh)[:, None]
    jlo = hc[np.minimum(start + lo, hc.size - 1)]
    jhi = hc[np.minimum(start + hi, hc.size - 1)]
    vals = ys * xs[jlo] - F[np.arange(L)[:, None], jlo]
    if lam is not None:  # the envelope's own expression, negated
        vals = -(f[np.arange(L)[:, None], jlo] + (xq - xs[jlo]) ** 2 / (2.0 * lam))
    arg = jlo

    wl, wk = np.nonzero(jhi > jlo)
    a = jlo[wl, wk]
    size = jhi[wl, wk] - a + 1
    windows += int(size.sum())
    if windows > MAX_DIRECT_PAIRS:
        raise ParameterError(
            f"conjugate's rounding windows need {windows} nodes, cap is {MAX_DIRECT_PAIRS}"
        )
    ends = np.cumsum(size)
    c0 = 0
    while c0 < wl.size:
        # exhaustive smallest-index max of the oracle's expression per
        # window, about _BLOCK_ELEMS window nodes at a time
        c = slice(c0, max(c0 + 1, int(np.searchsorted(ends, ends[c0] - size[c0] + _BLOCK_ELEMS))))
        first = np.cumsum(size[c]) - size[c]
        w = np.repeat(np.arange(first.size), size[c])
        j = a[c][w] + np.arange(w.size) - first[w]
        v = ys[wk[c][w]] * xs[j] - F[wl[c][w], j]
        if lam is not None:
            v = -(f[wl[c][w], j] + (xq[wk[c][w]] - xs[j]) ** 2 / (2.0 * lam))
        hit = np.flatnonzero(v == np.maximum.reduceat(v, first)[w])
        # the first maximum, with its own sign of zero as in the oracle
        k = hit[np.searchsorted(w[hit], np.arange(first.size))]
        vals[wl[c], wk[c]] = v[k]
        arg[wl[c], wk[c]] = j[k]
        c0 = c.stop
    arg[nh == 0] = -1
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
    conjugate_oracle's, which refuses more than MAX_DIRECT_PAIRS node
    pairs with ParameterError before any work.

    The rounding windows take an exhaustive max over each window's nodes.
    Past MAX_DIRECT_PAIRS window nodes in one pass over lines it raises
    ParameterError before the block that crosses the cap.  A pass has at
    most one window of one line's nodes per line and dual node, so only
    inputs over the oracle's pair cap reach it; f = 0 on [-1, 1] with the
    dual grid in [-1e-13, 1e-13] has n*m window nodes.

    Memory: a 1-D line is one kernel block, not split, so its temporaries
    grow linearly, about 100 bytes per primal and dual node (at n = m a
    peak of 194 bytes per node for |x| by tracemalloc, held under 256).
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

    Above MAX_DIRECT_PAIRS primal-dual node pairs (n*m) it raises
    ParameterError before any work.  One scan for 1-D and 2-D over blocks
    of dual nodes, about _TILE_ELEMS pairs each, so its memory is bounded.
    A block forms y x - f in 1-D and x1 y1 + (x2 y2 - f) in 2-D, the
    expression tree of the iterated transform, so 'bit-identical' is well
    defined; ties go to the smallest flat primal index.
    """
    require_proper(f, "conjugate input")
    if dual_grid.dim != f.grid.dim:
        raise GridMismatchError("dual grid dimension must match the function's")
    pairs = f.grid.node_count * dual_grid.node_count
    if pairs > MAX_DIRECT_PAIRS:
        raise ParameterError(
            f"conjugate_oracle needs {pairs} node pairs, cap is {MAX_DIRECT_PAIRS}"
        )
    dim, n = f.grid.dim, f.grid.node_count
    # axis ax's primal coordinates, broadcast along the other axes
    xs = [f.grid.coords(ax).reshape([-1 if k == ax else 1 for k in range(dim)]) for ax in range(dim)]
    ys = dual_grid.nodes()
    best = np.empty(ys.shape[0])
    arg = np.empty(ys.shape[0], dtype=np.int64)
    step = max(1, _TILE_ELEMS // n)
    buf = np.empty(min(step, ys.shape[0]) * n)
    for a in range(0, ys.shape[0], step):
        y = ys[a : a + step].T[(...,) + (None,) * dim]  # y[ax]: (block, 1, ...)
        v = buf[: y.shape[1] * n].reshape((-1,) + f.grid.shape)
        np.subtract(y[-1] * xs[-1], f.values, out=v)
        for ax in range(dim - 2, -1, -1):
            np.add(y[ax] * xs[ax], v, out=v)
        v = v.reshape(-1, n)
        j = arg[a : a + step] = np.argmax(v, axis=1)
        best[a : a + step] = v[np.arange(j.size), j]
    shape = dual_grid.shape
    return ConjugateResult(GridFn(dual_grid, best.reshape(shape)), arg.reshape(shape))


def conjugate_value_at(f: GridFn, y) -> tuple[float, int]:
    """Exact discrete conjugate value max_j <y, x_j> - f_j at one dual
    point (not necessarily a dual-grid node); returns (value, argmax), the
    smallest flat index.  Each term is ((0.0 + x_j0 y_0) + x_j1 y_1) - f_j,
    formed from the per-axis coordinates; overflow gives inf or nan silently."""
    require_proper(f, "conjugate input")
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    dim = f.grid.dim
    if yv.size != dim:
        raise GridMismatchError(f"dual point has dim {yv.size}, grid has dim {dim}")
    vals = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for ax in range(dim):
            vals = vals + f.grid.coords(ax).reshape((-1,) + (1,) * (dim - 1 - ax)) * yv[ax]
        vals = (vals - f.values).ravel()
    j = int(np.argmax(vals))
    return float(vals[j]), j


def default_dual_grid(f: GridFn, n: Optional[int] = None, pad: float = 0.0) -> Grid:
    """Dual grid spanning the discrete difference quotients of f."""
    axes = []
    for ax in range(f.grid.dim):
        h = f.grid.spacing[ax]
        with np.errstate(invalid="ignore"):
            d = np.diff(f.values, axis=ax) / h
        fin = np.isfinite(d)
        if not fin.any():
            lo, hi = -1.0, 1.0
        else:
            lo, hi = float(d[fin].min()), float(d[fin].max())
            if lo == hi:
                lo, hi = lo - 1.0, hi + 1.0
        lo -= pad
        hi += pad
        axes.append((lo, hi, n or f.grid.axes[ax][2]))
    return Grid(tuple(axes))


def biconjugate(f: GridFn, dual_grid: Grid) -> GridFn:
    """Conjugate applied twice, back onto f's own grid."""
    c1 = conjugate(f, dual_grid)
    c2 = conjugate(c1.dual, f.grid)
    return c2.dual


@dataclass(frozen=True)
class InfConvResult:
    out: GridFn
    argmin: np.ndarray  # flat index of the attaining y node, -1 where +inf


# cap on the node pairs of the direct paths, the (x, y) pairs of
# inf_convolution and the primal-dual pairs of conjugate_oracle.  On a
# shared 2-vCPU Xeon host, at the cap, the inf-convolution takes about 2
# to 2.5 s at 241² and 2 to 2.4 s at 51,639 nodes (centred on 0), and the
# oracle (about 2 ns a pair in 1-D, 2.5 ns in 2-D) some 4 to 5 s.
MAX_DIRECT_PAIRS = 2_000_000_000

# (x, y) sums per tile of the direct inf-convolution, 1 MB of float64
_TILE_ELEMS = 1 << 17


def _axis_pairs(n: int, i0: int) -> int:
    """Node pairs (x, y) on an axis of n nodes, 0 at node i0, with x - y a node."""
    a, b = n - 1 - i0, i0
    return n * n - (a * (a + 1) + b * (b + 1)) // 2


def inf_convolution(f: GridFn, g: GridFn) -> InfConvResult:
    """(f box g)(x) = min over grid nodes y of f(y) + g(x - y).

    Direct computation over grid displacements; out-of-grid arguments are
    +inf.  Requires 0 to be a node so displacements land on nodes.  Each
    value is the rounded sum f(y) + g(x - y) at its argmin, the smallest
    flat y index among ties; the argmin is -1 where the value is +inf.
    A line is the (n, 1) grid.  One x column at a time, the loop copies
    the columns of g (reversed, with n0 - 1 rows of +inf above and below)
    and of f that the column reaches, so that each x reads its y block as
    one contiguous run of floats in flat y order.  The column's x nodes go
    in tiles of _TILE_ELEMS // node_count (at least one), and a tile sums
    only the y rows it can reach.  Memory is O(tile + nodes): the tile's
    sums, the padded g ((3 n0 - 2) n1 floats) and the column's copies (at
    most (4 n0 - 2) n1 floats).  Above MAX_DIRECT_PAIRS (x, y) pairs (2e9:
    about 51,600 nodes in 1-D, 241² in 2-D, centred on 0) it raises
    ParameterError before any work.
    """
    if f.grid != g.grid:
        raise GridMismatchError("inf-convolution requires the same grid geometry")
    require_proper(f, "inf-convolution input f")
    require_proper(g, "inf-convolution input g")
    grid = f.grid
    shape = grid.shape
    zero = [grid.zero_index(ax) for ax in range(grid.dim)]
    pairs = math.prod(_axis_pairs(n, i0) for n, i0 in zip(shape, zero))
    if pairs > MAX_DIRECT_PAIRS:
        raise ParameterError(
            f"direct inf-convolution needs {pairs} (x, y) pairs, cap is {MAX_DIRECT_PAIRS}"
        )
    # a line is the (n, 1) grid: shape (n0, n1), zero node (z0, z1)
    (n0, n1), (z0, z1) = (shape + (1,))[:2], (zero + [0])[:2]
    fv, gv = f.values.reshape(n0, n1), g.values.reshape(n0, n1)
    # g reversed on both axes, with n0 - 1 rows of +inf above and below:
    # r[2 n0 - 2 - x0 + y0 - z0, n1 - 1 - x1 + y1 - z1] = g[x - y + z]
    r = np.pad(gv[::-1, ::-1], [(n0 - 1, n0 - 1), (0, 0)], constant_values=np.inf)
    t = max(1, _TILE_ELEMS // grid.node_count)
    out = np.empty((n0, n1))
    arg = np.empty((n0, n1), dtype=np.int64)
    buf = np.empty(t * grid.node_count)
    rc, fc = np.empty(r.size), np.empty(fv.size)  # a column's copies
    runs = sliding_window_view(rc, fv.size)  # a start s <= (2 n0 - 2) w leaves n0 n1 after it
    for c in range(n1):
        # the y1 in [ya, yb) that x column c reaches, as rc's rows of w
        # floats: the y block of x0 over rows [y0a, y0b) is one flat run
        # of rc from (2 n0 - 2 - x0 - z0 + y0a) w, in flat y order
        ya, yb = max(0, c + z1 - n1 + 1), min(n1, c + z1 + 1)
        w, q = yb - ya, n1 - 1 - c - z1 + ya
        rc[: r.shape[0] * w].reshape(-1, w)[...] = r[:, q : q + w]
        fc[: n0 * w].reshape(-1, w)[...] = fv[:, ya:yb]
        for k in range(0, n0, t):
            kb = min(k + t, n0)
            y0a, y0b = max(0, k + z0 - n0 + 1), min(n0, kb + z0)
            s = (2 * n0 - 2 - k - z0 + y0a) * w  # x0 = k; x0 + 1 starts w earlier
            win = runs[s - (kb - 1 - k) * w : s + 1 : w, : (y0b - y0a) * w][::-1]
            vals = np.add(fc[y0a * w : y0b * w], win, out=buf[: win.size].reshape(win.shape))
            j = vals.argmin(axis=1)
            best = vals[np.arange(j.size), j]
            out[k:kb, c] = best
            arg[k:kb, c] = np.where(np.isfinite(best), (y0a + j // w) * n1 + ya + j % w, -1)
    return InfConvResult(GridFn(grid, out.reshape(shape)), arg.reshape(shape))


def _row_minkowski(F: np.ndarray, G: np.ndarray, rows):
    a0, a1 = F.shape
    b0, b1 = G.shape
    H1 = a1 + b1 - 1
    dF = np.diff(F, axis=1)
    dG = np.diff(G, axis=1)
    H = np.full((a0 + b0 - 1, H1), np.inf)
    # an output row K1 has the row pairs (j1, K1 - j1), j1 in [j1a, j1b]:
    # at most min(a0, b0) of them
    merged_buf = np.empty((min(a0, b0), H1 - 1))
    vals_buf = np.empty((min(a0, b0), H1))
    for K1 in rows:
        j1a = max(0, K1 - b0 + 1)
        j1b = min(a0 - 1, K1)
        ia, ib = K1 - j1b, K1 - j1a
        merged, vals = merged_buf[: j1b - j1a + 1], vals_buf[: j1b - j1a + 1]
        base = F[j1a : j1b + 1, 0] + G[ia : ib + 1, 0][::-1]
        merged[:, : a1 - 1] = dF[j1a : j1b + 1]
        merged[:, a1 - 1 :] = dG[ia : ib + 1][::-1]
        merged.sort(axis=1)
        vals[:, 0] = base
        np.cumsum(merged, axis=1, out=vals[:, 1:])
        vals[:, 1:] += base[:, None]
        vals.min(axis=0, out=H[K1])
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
    """
    F = np.asarray(fvals, dtype=float)
    G = np.asarray(gvals, dtype=float)
    if not (np.isfinite(F).all() and np.isfinite(G).all()):
        raise ImproperFunctionError("minkowski fast path requires finite arrays")
    shape = tuple(a + b - 1 for a, b in zip(F.shape, G.shape))
    F, G = F.reshape(-1, F.shape[-1]), G.reshape(-1, G.shape[-1])
    rows = range(F.shape[0] + G.shape[0] - 1) if rows is None else rows
    return _row_minkowski(F, G, rows).reshape(shape)


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
class SubdifferentialSet:
    """Dual-grid slopes passing the Fenchel-Young equality test at x."""

    x: tuple[float, ...]
    slopes: np.ndarray  # (k, dim)
    epsilon: float

    def __post_init__(self) -> None:
        s = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        s.setflags(write=False)
        object.__setattr__(self, "slopes", s)
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))


def _node_coords(grid: Grid, index: tuple[int, ...]) -> tuple[float, ...]:
    return tuple(grid.coords(ax)[i] for ax, i in enumerate(index))


def _local_slope_scale(f: GridFn, index: tuple[int, ...]) -> float:
    """Largest |difference quotient| adjacent to a node (per axis)."""
    scale = 0.0
    v = f.values
    for ax in range(f.grid.dim):
        h = f.grid.spacing[ax]
        n = f.grid.shape[ax]
        i = index[ax]
        for d in (-1, 1):
            j = i + d
            if 0 <= j < n:
                sel = list(index)
                sel[ax] = j
                q = (v[tuple(sel)] - v[index]) / h
                if np.isfinite(q):
                    scale = max(scale, abs(q))
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
    resid = fx + fstar.values.ravel() - ys @ x
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
    """
    if isinstance(index, int):
        index = (index,)
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    step = np.rint(d / np.max(np.abs(d))).astype(int)
    nxt = tuple(i + s for i, s in zip(index, step))
    for ax, i in enumerate(nxt):
        if not 0 < index[ax] < f.grid.shape[ax] - 1:
            raise GridMismatchError("x must be an interior node")
        if not 0 <= i < f.grid.shape[ax]:
            raise GridMismatchError("x + h d leaves the grid")
    fx = float(f.values[tuple(index)])
    fn = float(f.values[nxt])
    if not (np.isfinite(fx) and np.isfinite(fn)):
        raise ImproperFunctionError("requires finite values at x and x + h d")
    hstep = np.asarray(
        [s * f.grid.spacing[ax] for ax, s in enumerate(step)], dtype=float
    )
    unit = d / np.linalg.norm(d)
    quotient = (fn - fx) / np.linalg.norm(hstep)
    sub = subdifferential(f, index, epsilon=epsilon, dual_grid=dual_grid)
    if sub.slopes.size == 0:
        return float(quotient), -np.inf
    return float(quotient), float(np.max(sub.slopes @ unit))


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
    nodes = f.grid.nodes()
    bvals = v[mask]
    bpts = nodes.reshape(v.shape + (f.grid.dim,))[mask]
    dist = np.linalg.norm(bpts - xmin[None, :], axis=1)
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
    xs = f.grid.nodes()
    tx = xs @ Tm.T
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
    ys = g_dual_grid.nodes()
    fterm = interp_gridfn(fstar, ys @ Tm)
    gterm = interp_gridfn(gstar, -ys)
    with np.errstate(over="ignore"):
        primal_vals = np.where(
            np.isfinite(f.values.ravel()) & np.isfinite(gvals),
            f.values.ravel() + gvals,
            np.inf,
        )
        dual_vals = np.where(
            np.isfinite(fterm) & np.isfinite(gterm), -fterm - gterm, -np.inf
        )
    primal = float(primal_vals.min())
    dual = float(dual_vals.max())
    gap = math.inf if primal == math.inf or dual == -math.inf else primal - dual
    return DualityGapResult(primal, dual, gap)
