"""Shared brute-force oracles and generators.

The oracles here are deliberately plain loops, independent of the library
code paths they check.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from convexdesk import grids
from convexdesk.grids import ConvexityReport, Grid, GridFn


def brute_conjugate_1d(f: GridFn, ys: np.ndarray) -> np.ndarray:
    """sup_x <y,x> - f(x) by an explicit python loop."""
    xs = f.grid.coords(0)
    out = np.empty(ys.size)
    for k, y in enumerate(ys):
        best = -np.inf
        for j in range(xs.size):
            v = y * xs[j] - f.values[j]
            if v > best:
                best = v
        out[k] = best
    return out


def brute_conjugate_2d(f: GridFn, dual_grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """sup_x <y,x> - f(x) in 2-D, one dual node at a time, with the
    expression tree x1 y1 + (x2 y2 - f); also the smallest flat primal
    index attaining it."""
    x1s, x2s = f.grid.coords(0), f.grid.coords(1)
    out = np.empty(dual_grid.shape)
    arg = np.empty(dual_grid.shape, dtype=np.int64)
    for k1, y1 in enumerate(dual_grid.coords(0)):
        a1 = y1 * x1s
        for k2, y2 in enumerate(dual_grid.coords(1)):
            vals = a1[:, None] + (y2 * x2s[None, :] - f.values)
            j = int(np.argmax(vals))
            out[k1, k2] = vals.flat[j]
            arg[k1, k2] = j
    return out, arg


def brute_conjugate_value_at(f: GridFn, y) -> tuple[float, int]:
    """max_j <y, x_j> - f_j at one dual point by a python loop over the
    nodes in row-major order, each term y x - f in 1-D and x1 y1 + (x2 y2
    - f) in 2-D in plain floats, -inf where f = +inf; the smallest index of
    the maximum, or of the first nan, as np.argmax gives it."""
    coords = [f.grid.coords(ax).tolist() for ax in range(f.grid.dim)]
    best, arg = None, 0
    for j, node in enumerate(itertools.product(*coords)):
        fj = float(f.values.flat[j])
        v = -math.inf
        if fj != math.inf:
            v = y[-1] * node[-1] - fj
            for xa, ya in zip(node[-2::-1], y[-2::-1]):
                v = xa * ya + v
        if math.isnan(v):
            return v, j
        if best is None or v > best:
            best, arg = v, j
    return best, arg


def brute_violating_pair(xs: np.ndarray, xstars: np.ndarray, tol: float):
    """The smallest pair (i, j), i != j, with <x_i - x_j, x*_i - x*_j> < -tol,
    by a python loop in row-major order; None if there is none."""
    k = len(xs)
    for i, j in itertools.product(range(k), repeat=2):
        prod = sum((a - b) * (c - d) for a, b, c, d in zip(xs[i], xs[j], xstars[i], xstars[j]))
        if i != j and prod < -tol:
            return i, j
    return None


def brute_infconv_1d(f: GridFn, g: GridFn) -> np.ndarray:
    """min_y f(y) + g(x - y) over displacement nodes, python loop."""
    n = f.grid.shape[0]
    i0 = f.grid.zero_index(0)
    out = np.empty(n)
    for k in range(n):
        best = np.inf
        for j in range(n):
            i = k - j + i0
            if 0 <= i < n:
                v = f.values[j] + g.values[i]
                if v < best:
                    best = v
        out[k] = best
    return out


def brute_infconv(f: GridFn, g: GridFn) -> tuple[np.ndarray, np.ndarray]:
    """min_y f(y) + g(x - y) over displacement nodes in 1-D or 2-D, python
    loop; also the smallest flat index y attaining it, -1 where +inf."""
    shape = f.grid.shape
    zero = [f.grid.zero_index(ax) for ax in range(f.grid.dim)]
    fv = f.values.ravel().tolist()
    nodes = list(np.ndindex(*shape))
    out = np.empty(len(nodes))
    arg = np.empty(len(nodes), dtype=np.int64)
    for kx, k in enumerate(nodes):
        best, where = math.inf, -1
        for jy, j in enumerate(nodes):
            i = [kk - jj + i0 for kk, jj, i0 in zip(k, j, zero)]
            if all(0 <= ii < n for ii, n in zip(i, shape)):
                v = fv[jy] + float(g.values[tuple(i)])
                if v < best:
                    best, where = v, jy
        out[kx] = best
        arg[kx] = where if math.isfinite(best) else -1
    return out.reshape(shape), arg.reshape(shape)


def brute_row_minkowski(F: np.ndarray, G: np.ndarray, rows) -> np.ndarray:
    """The row slope merge of minkowski_infconv_convex, python loop: for
    output row K1, each row pair (j1, K1 - j1) gives the base
    F[j1, 0] + G[K1 - j1, 0] plus the running sums of its row increments,
    merged in sorted order; H[K1] is the min over the pairs, +inf in the
    rows not asked for."""
    H = np.full((F.shape[0] + G.shape[0] - 1, F.shape[1] + G.shape[1] - 1), np.inf)
    for K1 in rows:
        for j1 in range(F.shape[0]):
            i1 = K1 - j1
            if not 0 <= i1 < G.shape[0]:
                continue
            base = F[j1, 0] + G[i1, 0]
            merged = sorted(np.diff(F[j1]).tolist() + np.diff(G[i1]).tolist())
            run, vals = 0.0, [base]
            for d in merged:
                run += d
                vals.append(run + base)
            H[K1] = np.minimum(H[K1], vals)
    return H


def brute_interp(f: GridFn, points) -> np.ndarray:
    """Multilinear interpolation point by point, python loop: +inf outside
    the box (1e-12 relative slack at each end), the node value on an exact
    node hit, +inf off-node next to an infinite corner (or where the sum
    is NaN), else the 2^dim corner terms summed in row-major corner order,
    each weight a product of per-axis factors taken in axis order."""
    out = []
    for p in np.atleast_2d(np.asarray(points, dtype=float)).tolist():
        cell, inside = [], True
        for x, (lo, hi, n) in zip(p, f.grid.axes):
            inside = inside and lo - 1e-12 * max(1.0, abs(lo)) <= x <= hi + 1e-12 * max(1.0, abs(hi))
            t = min(max((x - lo) / ((hi - lo) / (n - 1)), 0.0), n - 1)
            i = min(int(t), n - 2)
            cell.append((i, t - i))
        if not inside:
            out.append(math.inf)
            continue
        total, corner_inf = None, False
        for bits in itertools.product((0, 1), repeat=len(cell)):
            c = float(f.values[tuple(i + b for (i, _), b in zip(cell, bits))])
            corner_inf = corner_inf or math.isinf(c)
            weight = 1.0
            for (_, w), b in zip(cell, bits):
                weight *= w if b else 1 - w
            total = weight * c if total is None else total + weight * c
        if corner_inf:
            on_node = all(w == 0.0 for _, w in cell)
            total = float(f.values[tuple(i for i, _ in cell)]) if on_node else math.inf
        out.append(math.inf if math.isnan(total) else total)
    return np.asarray(out, dtype=float)


def brute_coercivity(f: GridFn, levels: int = 9):
    """coercivity_check by a scan over every node, python loop: a node is on
    the boundary when some index is first or last on its axis.  Returns
    (growth slope, level scan, coercive)."""
    v = f.values
    shape = v.shape
    nodes = list(np.ndindex(*shape))
    finite = [float(v[k]) for k in nodes if math.isfinite(v[k])]
    fmin, fmax = min(finite), max(finite)
    kmin = next(k for k in nodes if v[k] == fmin)
    coords = [f.grid.coords(ax) for ax in range(len(shape))]
    xmin = [float(c[i]) for c, i in zip(coords, kmin)]
    slope, bmin = math.inf, math.inf
    for k in nodes:
        if not any(i in (0, n - 1) for i, n in zip(k, shape)):
            continue
        b = float(v[k])
        bmin = min(bmin, b)
        if not math.isfinite(b):
            continue
        d = [float(c[i]) - x for c, i, x in zip(coords, k, xmin)]
        dist = math.sqrt(sum(e * e for e in d))
        slope = min(slope, (b - fmin) / max(dist, 1e-300) if dist > 0 else 0.0)
    cs = np.linspace(fmin + 1e-12 * max(1.0, abs(fmin)), fmax, levels)
    scan = tuple((float(c), bool(c < bmin)) for c in cs)
    return slope, scan, slope > 0 and bmin > fmin


def brute_envelope_1d(f: GridFn, lam: float) -> np.ndarray:
    """Per-node brute-force inf of f(y) + (x-y)^2/(2 lam) over nodes, by
    brute_node_minimum at each node."""
    return np.array([brute_node_minimum(f, lam, [x])[1] for x in f.grid.coords(0).tolist()])


def brute_node_minimum(f: GridFn, lam: float, x) -> tuple[int, float]:
    """The node minimum of prox and the exhaustive envelope, python loop over
    the nodes in row-major order in plain floats: the objective is
    f_j + (sum over the axes, in order, of (x_j - x)^2) / (2 lam).  Where
    that quotient overflows (or is inf / inf) at some node, each node of
    dom f where it does, and where the objective overflows at every node,
    each node of dom f, takes the exact rational value (Fraction) instead.  Returns the smallest index of the least value
    and that value as a float, +inf past the float range."""
    coords = [f.grid.coords(ax).tolist() for ax in range(f.grid.dim)]
    xs = [float(v) for v in np.atleast_1d(x)]
    vals, quots = [], []
    for j, node in enumerate(itertools.product(*coords)):
        sq = None
        for c, xa in zip(node, xs):
            d = (c - xa) * (c - xa)
            sq = d if sq is None else sq + d
        quots.append(sq / (2.0 * lam))  # nan where sq and 2 lam are inf
        vals.append(float(f.values.flat[j]) + quots[-1] if quots[-1] < math.inf else math.inf)
    every = min(vals) == math.inf
    over = [not q < math.inf for q in quots]
    best = None
    for j, node in enumerate(itertools.product(*coords)):
        fj, v = float(f.values.flat[j]), vals[j]
        if (every or any(over)) and fj != math.inf and (every or over[j]):
            v = Fraction(fj) + sum((Fraction(c) - Fraction(xa)) ** 2
                                   for c, xa in zip(node, xs)) / (2 * Fraction(lam))
        if best is None or v < best[0]:
            best = (v, j)
    try:
        return best[1], float(best[0])
    except OverflowError:
        return best[1], math.inf


def brute_prox(f: GridFn, lam: float, x) -> tuple[tuple[float, ...], float]:
    """prox by brute_node_minimum; then, per axis from that node, the
    parabola through the float objective f_j + ||x - x_j||^2 / (2 lam) at
    the node and its two neighbours on the axis, python loop: where the
    node is interior, the three values finite and the curvature finite and
    positive, the vertex (its step clipped to one spacing, bound first) is
    valued through brute_interp, and the first strictly better value wins.
    Returns (point, envelope)."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):
        sq = ((f.grid.nodes() - xv) ** 2).sum(axis=1).reshape(f.grid.shape)
        obj = f.values + sq / (2.0 * lam)
    j, best_val = brute_node_minimum(f, lam, xv)
    idx = np.unravel_index(j, obj.shape)
    node = [float(f.grid.coords(ax)[i]) for ax, i in enumerate(idx)]
    best_pt = node
    for ax, i in enumerate(idx):
        coords = f.grid.coords(ax)
        if not 0 < i < coords.size - 1:
            continue
        h = float(coords[1] - coords[0])
        pm, p0, pp = (float(obj[idx[:ax] + (k,) + idx[ax + 1 :]]) for k in (i - 1, i, i + 1))
        if not all(math.isfinite(p) for p in (pm, p0, pp)):
            continue
        denom = pm - 2.0 * p0 + pp
        if not (math.isfinite(denom) and denom > 0):
            continue
        cand = list(node)
        cand[ax] = node[ax] + min(h, max(-h, 0.5 * (pm - pp) / denom * h))
        fc = float(brute_interp(f, [cand])[0])
        if not math.isfinite(fc):
            continue
        q = None
        for xa, ca in zip(xv.tolist(), cand):
            d = (xa - ca) * (xa - ca)
            q = d if q is None else q + d
        val = fc + q / (2.0 * lam)
        if val < best_val:
            best_pt, best_val = cand, val
    return tuple(best_pt), best_val


def brute_dot(u, v) -> float:
    """<u, v> of two float lists, the products added in axis order from the
    first (so one product keeps its sign of zero), in plain floats."""
    total = u[0] * v[0]
    for ua, va in zip(u[1:], v[1:]):
        total = total + ua * va
    return total


def brute_certificate(f: GridFn, lam: float, z, x) -> tuple[tuple[float, ...], float]:
    """The resolvent's y = (z - x) / lam per axis in plain floats, and the
    Fenchel-Young residual f(x) + f*(y) - <x, y>: f(x) by brute_interp,
    f*(y) by brute_conjugate_value_at, <x, y> by brute_dot; +inf where the
    residual is nan."""
    xs = [float(v) for v in np.atleast_1d(x)]
    y = [(float(za) - xa) / lam for za, xa in zip(np.atleast_1d(z), xs)]
    eps = float(brute_interp(f, [xs])[0]) + brute_conjugate_value_at(f, y)[0] - brute_dot(xs, y)
    return tuple(y), math.inf if math.isnan(eps) else eps


def brute_fitzpatrick(G, query) -> tuple[float, int]:
    """max_i <x, a*_i> + <a_i, x*> - <a_i, a*_i> over the stored pairs by a
    python loop, each <., .> by brute_dot; the first index of the maximum."""
    qx, qs = ([float(v) for v in np.atleast_1d(q)] for q in query)
    best, arg = None, 0
    for i, (a, s) in enumerate(zip(G.xs.tolist(), G.xstars.tolist())):
        v = brute_dot(qx, s) + brute_dot(a, qs) - brute_dot(a, s)
        if best is None or v > best:
            best, arg = v, i
    return best, arg


def brute_coupon_perm(xs) -> float:
    """Permutation form of p_N over floats, python loop: for each ordering,
    the tails summed from the back, the product of the tail ratios in
    order, and the sum of the tail reciprocals in order, added up over the
    orderings in itertools.permutations order."""
    total = 0.0
    for sigma in itertools.permutations([float(v) for v in xs]):
        tails = []
        acc = 0.0
        for v in reversed(sigma):
            acc = acc + v
            tails.append(acc)
        tails.reverse()
        prod = None
        recip = 0.0
        for v, t in zip(sigma, tails):
            term = v / t
            prod = term if prod is None else prod * term
            recip = recip + 1.0 / t
        total = total + prod * recip
    return total


def _below(trip, second, a, b, c, t) -> np.ndarray:
    """Where all of a, b, c are finite, second < -t; where the float second
    difference left the float range, the exact a - 2b + c < -t instead."""
    bad = trip & (second < -t)
    for k in np.flatnonzero(trip & ~np.isfinite(second)):
        exact = Fraction(a[k]) - 2 * Fraction(b[k]) + Fraction(c[k])
        bad[k] = exact < -Fraction(t) if math.isfinite(t) else t < 0
    return bad


def _brute_line_violation(vals: np.ndarray, tol: float):
    """First convexity violation on one grid line, or None: a non-finite
    entry between finite ones, else the first second difference below -tol."""
    finite = np.isfinite(vals)
    if finite.any():
        idx = np.flatnonzero(finite)
        lo, hi = idx[0], idx[-1]
        if hi - lo + 1 != idx.size:
            gap = lo + int(np.flatnonzero(~finite[lo : hi + 1])[0])
            return gap, "domain-gap"
    n = vals.size
    if n < 3:
        return None
    a, b, c = vals[: n - 2], vals[1 : n - 1], vals[2:]
    trip = np.isfinite(a) & np.isfinite(b) & np.isfinite(c)
    with np.errstate(invalid="ignore", over="ignore"):
        second = np.where(trip, a - 2.0 * b + c, 0.0)
    bad = np.flatnonzero(_below(trip, second, a, b, c, tol))
    if bad.size:
        return int(bad[0]) + 1, "second-difference"
    return None


def brute_convexity_check_2d(f: GridFn, tol: float = 1e-9) -> ConvexityReport:
    """The 2-D convexity check line by line: rows, columns, each diagonal
    offset (diagonal, then anti-diagonal), then knight-move midpoints."""
    v = f.values
    finite = np.isfinite(v)
    t = tol * max(1.0, float(np.max(np.abs(v[finite]))))
    n0, n1 = v.shape
    for i in range(n0):
        hit = _brute_line_violation(v[i], t)
        if hit is not None:
            return ConvexityReport(False, (i, hit[0]), hit[1], (0, 1))
    for j in range(n1):
        hit = _brute_line_violation(v[:, j], t)
        if hit is not None:
            return ConvexityReport(False, (hit[0], j), hit[1], (1, 0))
    for off in range(-(n0 - 1), n1):
        d = np.diagonal(v, offset=off)
        hit = _brute_line_violation(np.ascontiguousarray(d), t)
        if hit is not None:
            k = hit[0]
            return ConvexityReport(False, (k - min(off, 0), k + max(off, 0)), hit[1], (1, 1))
        a = np.ascontiguousarray(np.fliplr(v).diagonal(offset=off))
        hit = _brute_line_violation(a, t)
        if hit is not None:
            k = hit[0]
            ij = (k - min(off, 0), n1 - 1 - (k + max(off, 0)))
            return ConvexityReport(False, ij, hit[1], (1, -1))
    for d0, d1 in ((1, 2), (2, 1), (1, -2), (2, -1)):
        for i in range(n0 - 2 * d0):
            j_lo = max(0, -2 * d1)
            j_hi = n1 - max(0, 2 * d1)
            if j_hi <= j_lo:
                continue
            js = np.arange(j_lo, j_hi)
            va = v[i, js]
            vb = v[i + 2 * d0, js + 2 * d1]
            vm = v[i + d0, js + d1]
            trip = np.isfinite(va) & np.isfinite(vb) & np.isfinite(vm)
            with np.errstate(invalid="ignore", over="ignore"):
                gap = np.where(trip, va + vb - 2.0 * vm, 0.0)
            bad = np.flatnonzero(_below(trip, gap, va, vm, vb, t))
            if bad.size:
                j = int(js[bad[0]])
                return ConvexityReport(False, (i + d0, j + d1), "second-difference", (d0, d1))
    return ConvexityReport(True)


def fd_hessian(fn, x: np.ndarray) -> np.ndarray:
    """Central-difference Hessian with per-coordinate step 1e-4 (1 + |x_i|)."""
    n = x.size
    h = 1e-4 * (1.0 + np.abs(x))
    H = np.empty((n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        H[i, i] = (fn(x + ei) - 2.0 * f0 + fn(x - ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return H


# ---- per-element file encoders: the byte oracle for convexdesk.fileio ----


def encode_value(v: float):
    if v == math.inf:
        return "+inf"
    if v == -math.inf:
        return "-inf"
    return float(v)


def decode_value(v) -> float:
    if v == "+inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


def fmt9(v: float) -> str:
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return format(v, ".9g")


def jsonable(obj):
    """A report document as JSON-ready Python objects, element by element."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return encode_value(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    return obj


def report_text(doc: dict) -> str:
    out = {"schema": 1}
    out.update(jsonable(doc))
    return json.dumps(out, sort_keys=True)


def gridfn_json_text(f: GridFn) -> str:
    doc = {
        "schema": 1,
        "dim": f.grid.dim,
        "axes": [{"lo": lo, "hi": hi, "n": n} for lo, hi, n in f.grid.axes],
        "values": [encode_value(v) for v in f.values.ravel()],
    }
    return json.dumps(doc, sort_keys=True)


def gridfn_json_values(doc: dict) -> np.ndarray:
    return np.asarray([decode_value(v) for v in doc["values"]])


def gridfn_csv_text(f: GridFn) -> str:
    lines = []
    if f.grid.dim == 1:
        lines.append("x,value")
        for x, v in zip(f.grid.coords(0), f.values):
            lines.append(f"{fmt9(x)},{fmt9(v)}")
    else:
        lines.append("x,y,value")
        xs, ys = f.grid.coords(0), f.grid.coords(1)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                lines.append(f"{fmt9(x)},{fmt9(y)},{fmt9(f.values[i, j])}")
    return "\n".join(lines) + "\n"


def graph_json_text(G) -> str:
    doc = {
        "schema": 1,
        "dim": G.dim,
        "pairs": [[list(map(encode_value, x)), list(map(encode_value, s))] for x, s in zip(G.xs, G.xstars)],
    }
    return json.dumps(doc, sort_keys=True)


def random_convex_values(rng: np.random.Generator, n: int, slope_scale: float = 1.0) -> np.ndarray:
    """A random convex sequence: cumulative sums of sorted increments."""
    slopes = np.sort(rng.normal(scale=slope_scale, size=n - 1))
    return rng.normal() + np.concatenate([[0.0], np.cumsum(slopes)])


def random_convex_gridfn(
    rng: np.random.Generator, grid: Grid, slope_scale: float = 1.0
) -> GridFn:
    vals = random_convex_values(rng, grid.shape[0], slope_scale)
    return GridFn(grid, vals)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240809)


@pytest.fixture
def convexity_scans(monkeypatch) -> list:
    """The tol of every convexity scan that runs, in order: the scan behind
    discrete_convexity_check's stored reports, counted."""
    scans = []
    scan = grids._convexity_scan
    monkeypatch.setattr(grids, "_convexity_scan", lambda f, tol: scans.append(tol) or scan(f, tol))
    return scans
