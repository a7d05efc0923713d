"""Uniform grids and extended-real-valued grid functions.

A GridFn holding values of f on a grid box represents the truncated
function f + indicator(box): every transform in the toolkit operates on
that finite object, and +inf marks points outside the effective domain.
Operations are pure and values immutable.  Every array that a Grid,
GridFn, ConjugateResult, InfConvResult, SubdifferentialSet or
OperatorGraph holds is _frozen: setflags(write=True) and item assignment
on it raise ValueError.  copy.copy, copy.deepcopy and pickle rebuild such
a value through its constructor (_Frozen), so a copy's arrays are
read-only too and it keeps no stored result, such as a GridFn's
convexity verdict.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyDomainError, GridMismatchError, ImproperFunctionError, ParameterError

__all__ = [
    "Grid",
    "GridFn",
    "ConvexityReport",
    "discrete_convexity_check",
    "interp_gridfn",
    "require_proper",
    "MAX_NODES",
]

MAX_NODES = 4_000_000  # desk-scale cap on total node count


def _frozen(a, dtype=float) -> np.ndarray:
    """A read-only view of a read-only copy of a, as dtype, which numpy
    refuses to make writable: the one place in src/ that sets the flag."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a.view()


class _Frozen:
    """Base of the frozen dataclasses that hold arrays: a copy or an
    unpickled instance is built again from its init fields."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def _dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis of A and B, broadcast, the axes' products
    added in axis order: elementwise, so its bits do not depend on BLAS.
    Every <., .> over the grid axes is this, and a norm is _norm."""
    if A.shape[-1] != B.shape[-1]:
        raise ValueError(f"inner product of vectors of {A.shape[-1]} and {B.shape[-1]} components")
    return functools.reduce(operator.add, (A[..., a] * B[..., a] for a in range(A.shape[-1])))


@np.errstate(over="ignore")
def _norm(V: np.ndarray) -> np.ndarray:
    """sqrt(_dots(V, V)), or where the squares of a finite V overflow,
    max |V| times the norm of V / max |V|: +inf only past the float limit."""
    out = np.asarray(np.sqrt(_dots(V, V)))
    big = np.isinf(out) & np.isfinite(V).all(axis=-1)
    s = np.abs(V[big]).max(axis=-1, keepdims=True, initial=0.0)
    out[big] = s[..., 0] * np.sqrt(_dots(V[big] / s, V[big] / s))
    return out


def _linspace(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n) for n >= 2, bit for bit: its arithmetic on
    float lo and hi, without its dispatch on array-like arguments."""
    step = (hi - lo) / (n - 1)
    c = np.arange(n, dtype=float)
    if step == 0:  # np.linspace's rule for a subnormal step
        c /= n - 1
        c *= hi - lo
    else:
        c *= step
    c += lo
    c[-1] = hi
    return c


@dataclass(frozen=True)
class Grid(_Frozen):
    """Uniform 1-D or 2-D grid; each axis is (lo, hi, count)."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self) -> None:
        axes = tuple((float(lo), float(hi), int(n)) for lo, hi, n in self.axes)
        object.__setattr__(self, "axes", axes)
        if len(axes) not in (1, 2):
            raise ParameterError(f"grid dimension must be 1 or 2, got {len(axes)}")
        total = 1
        for k, (lo, hi, n) in enumerate(axes):
            if n < 2:
                raise ParameterError(f"axis needs at least 2 points, got {n}")
            for name, bound in (("lo", lo), ("hi", hi)):
                if not math.isfinite(bound):
                    raise ParameterError(f"axis {k} needs finite bounds, got {name} = {bound}")
            if not hi > lo:
                raise ParameterError(f"axis needs hi > lo, got [{lo}, {hi}]")
            if not math.isfinite(hi - lo):
                raise ParameterError(
                    f"axis {k} spacing overflows: hi - lo of [{lo}, {hi}] exceeds the largest float"
                )
            total *= n
        if total > MAX_NODES:
            raise ParameterError(f"grid has {total} nodes, cap is {MAX_NODES}")
        coords = tuple(_frozen(_linspace(lo, hi, n)) for lo, hi, n in axes)  # see coords
        for k, c in enumerate(coords):
            if not (c[1:] > c[:-1]).all():  # a subnormal step rounds; a step may be below an ulp
                raise ParameterError(f"axis {k} nodes np.linspace{axes[k]} are not strictly increasing")
        object.__setattr__(self, "_coords", coords)

    @classmethod
    def line(cls, lo: float, hi: float, n: int) -> "Grid":
        return cls(((lo, hi, n),))

    @classmethod
    def box(cls, ax0: tuple[float, float, int], ax1: tuple[float, float, int]) -> "Grid":
        return cls((tuple(ax0), tuple(ax1)))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n for _, _, n in self.axes)

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (n - 1) for lo, hi, n in self.axes)

    def coords(self, axis: int = 0) -> np.ndarray:
        """np.linspace(lo, hi, n) of the axis, computed once per Grid and
        _frozen, like every array a value holds: numpy refuses to make it
        writable, so copy it before writing."""
        return self._coords[axis]

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (node_count, dim), row-major order."""
        out = np.empty(self.shape + (self.dim,))
        for ax in range(self.dim):  # axis ax's coordinates, broadcast along the later axes
            out[..., ax] = self.coords(ax).reshape((-1,) + (1,) * (self.dim - 1 - ax))
        return out.reshape(-1, self.dim)

    def contains(self, point: Sequence[float]) -> bool:
        p = np.asarray(point, dtype=float).ravel()
        if p.size != len(self.axes):
            raise GridMismatchError(f"point has dim {p.size}, grid has dim {self.dim}")
        return all(lo <= v <= hi for v, (lo, hi, _) in zip(p.tolist(), self.axes))

    def nearest_index(self, point: Sequence[float]) -> tuple[int, ...]:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return tuple(
            int(np.clip(round((v - lo) / h), 0, n - 1))
            for v, (lo, _, n), h in zip(p, self.axes, self.spacing)
        )

    def zero_index(self, axis: int = 0) -> int:
        """Index of the node at 0 on an axis; the grid must contain one."""
        lo, _, n = self.axes[axis]
        h = self.spacing[axis]
        i = int(round(-lo / h))
        if not (0 <= i < n) or abs(lo + i * h) > 1e-9 * max(1.0, abs(lo), h):
            raise GridMismatchError("grid axis does not contain 0 as a node")
        return i


@dataclass(frozen=True)
class GridFn(_Frozen):
    """Extended-real values sampled on a grid, +inf outside its box.

    `values` is _frozen, so it cannot change: results computed from it,
    such as the convexity verdict, are kept on the instance and reused.
    """

    grid: Grid
    values: np.ndarray
    # discrete_convexity_check's reports by tol; not part of equality or repr
    _convexity: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = _frozen(self.values)
        if v.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if math.isnan(np.minimum.reduce(v, axis=None)):  # the min of values holding NaN is NaN
            raise ValueError("GridFn values cannot contain NaN")
        object.__setattr__(self, "values", v)

    def __eq__(self, other: object) -> bool:
        """Same grid and equal values node for node (the memo is not compared)."""
        if not isinstance(other, GridFn):
            return NotImplemented
        return self.grid == other.grid and bool(np.array_equal(self.values, other.values))

    @property
    def is_proper(self) -> bool:
        """Some value finite and none -inf: the least value is finite (no NaN)."""
        return math.isfinite(np.minimum.reduce(self.values, axis=None))


def require_proper(f: GridFn, what: str = "input") -> None:
    if not f.is_proper:
        raise ImproperFunctionError(f"{what} must be proper (some finite value, no -inf)")


@dataclass(frozen=True)
class ConvexityReport:
    is_convex: bool
    violation_index: Optional[tuple[int, ...]] = None
    violation_kind: Optional[str] = None  # "second-difference" | "domain-gap"
    direction: Optional[tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.is_convex


def _concave_midpoints(
    v: np.ndarray, fin: Optional[np.ndarray], d: tuple[int, int], t: float, knight: bool = False
) -> np.ndarray:
    """Flat indices, in increasing order, of the nodes m of v (2-D) whose
    second difference along d is below -t.

    With a, b, c = v[m - d], v[m], v[m + d], all finite, the second
    difference is a - 2 b + c on lines and a + c - 2 b on the knight
    pairs; fin is v's finite mask, or None when all of v is finite.
    Where 2 b or a + c leaves the float range, it is taken as
    (a - b) + (c - b), which is never inf - inf.
    """
    mid = tuple(slice(abs(k), n - abs(k)) for k, n in zip(d, v.shape))
    if any(s.stop <= s.start for s in mid):  # lines along d have fewer than 3 nodes
        return np.zeros(0, dtype=np.intp)
    lo = tuple(slice(s.start - k, s.stop - k) for s, k in zip(mid, d))
    hi = tuple(slice(s.start + k, s.stop + k) for s, k in zip(mid, d))
    a, b, c = v[lo], v[mid], v[hi]
    with np.errstate(invalid="ignore", over="ignore"):
        s = a + c - 2.0 * b if knight else a - 2.0 * b + c
        if not math.isfinite(np.add.reduce(s, axis=None)):  # some s is not finite, or their sum
            over = ~np.isfinite(s)  # also where a node is not finite, masked below
            s[over] = (a[over] - b[over]) + (c[over] - b[over])
        bad = s < -t
    if fin is not None:
        bad &= fin[lo] & fin[mid] & fin[hi]
    m = np.flatnonzero(bad)
    if m.size:  # from the block of midpoints to v's flat indices
        m = (m // bad.shape[1] + mid[0].start) * v.shape[1] + m % bad.shape[1] + mid[1].start
    return m


# rows, columns, diagonal, anti-diagonal, then the knight moves
_DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1))


def _scan_lines(d: tuple[int, int], shape: tuple[int, int]) -> tuple[int, int, int]:
    """(a, b, c) such that the line along d through flat node index k is
    c + a (k // n1) + b k, the lines numbered in scan order: rows,
    columns, then for each offset j - i the diagonal before the
    anti-diagonal, then one line per knight direction."""
    n0, n1 = shape
    w = n0 + n1
    lines = {(0, 1): (1, 0, 0), (1, 0): (0, 1, n0),
             (1, 1): (-2, 2, w + 2 * n0 - 2), (1, -1): (-2, -2, 3 * w - 3)}
    a, b, c = lines.get(d, (0, 0, 3 * w - 6 + _DIRECTIONS.index(d)))  # the line c + a i + b j
    return a - b * n1, b, c  # j = k - n1 i


def _gap_nodes(fin: np.ndarray, d: tuple[int, int]) -> np.ndarray:
    """Flat indices of the domain gaps along d: on a line whose finite
    nodes form two runs or more, the non-finite node that ends each run."""
    n0, n1 = fin.shape
    a, b, c = _scan_lines(d, fin.shape)
    edged = np.zeros((n0 + 2, n1 + 2), dtype=bool)  # fin with a border of False
    edged[1:-1, 1:-1] = fin
    prev = edged[1 - d[0] : n0 + 1 - d[0], 1 - d[1] : n1 + 1 - d[1]]  # fin at m - d
    starts = np.flatnonzero(fin > prev)
    runs = np.bincount(c + a * (starts // n1) + b * starts, minlength=3 * (n0 + n1))
    if runs.max() < 2:
        return starts[:0]
    ends = np.flatnonzero(prev > fin)
    return ends[runs[c + a * (ends // n1) + b * ends] > 1]


def discrete_convexity_check(f: GridFn, tol: float = 1e-9) -> ConvexityReport:
    """Second-difference convexity test on the grid.

    Finite values must fill a contiguous block of every line checked (a
    non-finite node between finite ones is a domain gap), and second
    differences along it must be >= -tol.  In 2-D, lines in the axis and
    diagonal directions are checked, plus midpoint checks along the
    (1,2)-type directions.  The tolerance is relative to
    max(1, |finite values|).  tol = inf accepts every second difference,
    so only domain gaps are reported; a negative tol demands second
    differences of at least |tol| times that scale.  A NaN tol raises
    ParameterError.

    The report is computed once per GridFn and tol and kept on f: a
    GridFn's values are read-only, so the verdict cannot change, and
    repeated checks (every prox, envelope and resolvent call on f) return
    the stored report without scanning again.

    Cost: O(N) time and memory for N nodes, in one scan for 1-D (one
    row) and 2-D: per direction a fixed number of whole-array passes for
    its second differences and, on the four line directions when some
    value is non-finite, for the runs of finite nodes, counted per line
    with one bincount; then the flat indices of the violations found,
    one integer key each.  The scan stops after the first direction with
    a violation; the diagonal waits for the anti-diagonal, whose lines
    interleave with its own.  The violation reported is the first in this scan order: rows, then
    columns, then for each diagonal offset j - i in increasing order the
    diagonal before the anti-diagonal, then the directions (1,2), (2,1),
    (1,-2), (2,-1).  Lines go in index order and nodes along each line;
    on a line a domain gap comes before any second difference.
    """
    tol = float(tol)
    if math.isnan(tol):
        raise ParameterError("convexity tolerance must not be NaN")
    rep = f._convexity.get(tol)
    if rep is None:  # concurrent first checks may both scan; they store equal reports
        rep = f._convexity[tol] = _convexity_scan(f, tol)
    return rep


def _convexity_scan(f: GridFn, tol: float) -> ConvexityReport:
    """discrete_convexity_check's scan, without its memo."""
    v = np.atleast_2d(f.values)  # a 1-D function is one row
    finite = np.isfinite(v)
    nfin = np.count_nonzero(finite)
    if not nfin:
        raise EmptyDomainError("all values are infinite")
    fin, absv = (None if nfin == v.size else finite), np.abs(v)
    t = tol * max(1.0, float(absv.max() if fin is None else np.max(absv, where=fin, initial=0.0)))

    # each violation's key (2 line + second) n + node orders it as the scan
    # meets it: by line, then a domain gap before a second difference, then
    # by place on the line, where the flat node index grows along d
    (n0, n1), n, hits = v.shape, v.size, []  # hits: (least key, direction)
    for q, d in enumerate(_DIRECTIONS):
        if hits and d != (1, -1):  # the diagonal waits for the anti-diagonal
            break
        if n0 <= 2 * d[0] or n1 <= 2 * abs(d[1]):
            continue  # lines along d have fewer than 3 nodes
        found = [(_concave_midpoints(v, fin, d, t, knight=q >= 4), 1)]
        if fin is not None and q < 4:
            found.append((_gap_nodes(fin, d), 0))
        for nodes, second in found:
            if nodes.size:  # the keys less their constant (2 c + second) n
                a, b, c = _scan_lines(d, (n0, n1))
                least = ((2 * a * n) * (nodes // n1) + (2 * b * n + 1) * nodes).min()
                hits.append((int(least) + (2 * c + second) * n, d))
    if not hits:
        return ConvexityReport(True)
    key, d = min(hits)
    rank, node = divmod(key, n)
    kind = "second-difference" if rank % 2 else "domain-gap"
    if f.grid.dim == 1:
        return ConvexityReport(False, (node,), kind, (1,))
    return ConvexityReport(False, divmod(node, n1), kind, d)


def interp_gridfn(f: GridFn, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation; +inf outside the box or next to +inf nodes.

    Chords of convex data lie above the graph, so interpolation never
    underestimates a convex GridFn.  Cost: a fixed number of array calls,
    whatever the number of points: about 10 per axis, the box test's
    included, and 3 per corner (2^dim corners).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != f.grid.dim:
        raise GridMismatchError("points dimension does not match grid")
    # a far point is ±inf, outside the box; an infinite corner makes nan terms
    with np.errstate(invalid="ignore", over="ignore"):
        inside = functools.reduce(operator.and_, (
            (x >= lo - 1e-12 * max(1.0, abs(lo))) & (x <= hi + 1e-12 * max(1.0, abs(hi)))
            for (lo, hi, _), x in zip(f.grid.axes, pts.T)))
        return np.where(inside, _interp(f, pts.T), np.inf)


def _interp(f: GridFn, xs) -> np.ndarray:
    """interp_gridfn's values, without its box test, at the points whose
    axis-a coordinates are xs[a] (arrays of one shape), under the caller's
    errstate.  Each corner's value is one take of the flat values at the
    cell's flat index plus the corner's offset; the terms are summed from
    the first corner in row-major order, since a start of 0.0 would turn a
    -0.0 sum into 0.0."""
    v, base, ws, stride = f.values.ravel(), None, [], f.values.size
    corners = [(None, 0)]  # per corner in row-major order: its weight and flat offset
    for (lo, hi, n), x in zip(f.grid.axes, xs):
        t = np.minimum(n - 1.0, np.maximum(0.0, (x - lo) / ((hi - lo) / (n - 1))))  # np.clip's bits
        i = np.minimum(t.astype(int), n - 2)
        w = t - i
        stride //= n  # of this axis, row-major
        k = i * stride if stride > 1 else i
        base, pair = (k if base is None else base + k), ((1 - w, 0), (w, stride))
        corners = [(u if wt is None else wt * u, off + o) for wt, off in corners for u, o in pair]
        ws.append(w)
    vals, cs = None, []
    for wt, off in corners:
        c = v.take(base + off if off else base)
        vals = wt * c if vals is None else vals + wt * c
        cs.append(c)
    if not math.isfinite(np.add.reduce(vals, axis=None)):  # an infinite corner, or past the float range
        # exact node hits next to an infinite neighbour are still finite; the
        # sum is nan only next to one, since finite terms never add to inf - inf
        corner_inf = functools.reduce(operator.or_, map(np.isinf, cs))
        on_node = functools.reduce(operator.and_, (w == 0.0 for w in ws))
        vals = np.where(corner_inf, np.where(on_node, cs[0], np.inf), vals)
    return vals
