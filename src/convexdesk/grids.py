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
import itertools
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
        coords = tuple(_frozen(np.linspace(lo, hi, n)) for lo, hi, n in axes)  # see coords
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
        p = np.array(point, dtype=float, ndmin=1)
        if p.size != self.dim:
            raise GridMismatchError(f"point has dim {p.size}, grid has dim {self.dim}")
        return all(lo <= v <= hi for v, (lo, hi, _) in zip(p.ravel().tolist(), self.axes))

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
        if math.isnan(v.min()):  # the min of values holding NaN is NaN
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
        return math.isfinite(self.values.min())


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
    """Nodes m of v (2-D) whose second difference along d is below -t.

    With a, b, c = v[m - d], v[m], v[m + d], all finite, the second
    difference is a - 2 b + c on lines and a + c - 2 b on the knight
    pairs; fin is v's finite mask, or None when all of v is finite.
    Where 2 b or a + c leaves the float range, it is taken as
    (a - b) + (c - b), which is never inf - inf.
    """
    out = np.zeros(v.shape, dtype=bool)
    mid = tuple(slice(abs(k), n - abs(k)) for k, n in zip(d, v.shape))
    if any(s.stop <= s.start for s in mid):
        return out
    lo = tuple(slice(s.start - k, s.stop - k) for s, k in zip(mid, d))
    hi = tuple(slice(s.start + k, s.stop + k) for s, k in zip(mid, d))
    a, b, c = v[lo], v[mid], v[hi]
    with np.errstate(invalid="ignore", over="ignore"):
        s = a + c - 2.0 * b if knight else a - 2.0 * b + c
        over = ~np.isfinite(s)  # also where a node is not finite, masked below
        if over.any():
            s[over] = (a[over] - b[over]) + (c[over] - b[over])
        out[mid] = s < -t
    if fin is not None:
        out[mid] &= fin[lo] & fin[mid] & fin[hi]
    return out


def _first_violation(bad: np.ndarray, fin: Optional[np.ndarray]):
    """First violation over a stack of lines (L, n), scanned line by line.

    bad marks second-difference violations at their midpoints; fin marks
    finite nodes, or is None when all are.  Returns (line, index, kind) or
    None.  On a line a domain gap (a non-finite node between finite ones)
    wins over a second difference.
    """
    hit = bad.any(axis=1)
    gappy = None
    if fin is not None:
        # a line has a gap iff its finite nodes form two or more runs
        gappy = np.count_nonzero(fin[:, 1:] > fin[:, :-1], axis=1) + fin[:, 0] > 1
        hit |= gappy
    if not hit.any():
        return None
    line = int(np.argmax(hit))
    if gappy is not None and gappy[line]:
        lo = int(np.argmax(fin[line]))
        return line, lo + int(np.argmin(fin[line, lo:])), "domain-gap"
    return line, int(np.argmax(bad[line])), "second-difference"


def _diagonals(m: np.ndarray, mf: np.ndarray) -> np.ndarray:
    """The diagonals of m and of mf, both (n0, n1), interleaved as a stack
    of 2 (n0 + n1 - 1) lines of n0: for each offset j - i in increasing
    order, m's diagonal then mf's.  Entry i of a line is at row i; rows
    that the diagonal misses are zero.
    """
    n0, n1 = m.shape
    w = n0 + n1 - 1
    buf = np.zeros((n0, w, 2), dtype=m.dtype)
    # rows of buf.reshape(-1, 2) from n0 - 1 on, viewed with row length w - 1:
    # node (i, j) lands at buf[i, j - i + n0 - 1], a shear by one per row
    sheared = buf.reshape(-1, 2)[n0 - 1 : n0 - 1 + n0 * (w - 1)].reshape(n0, w - 1, 2)
    sheared[:, :n1, 0] = m
    sheared[:, :n1, 1] = mf
    return buf.transpose(1, 2, 0).reshape(2 * w, n0)


_KNIGHTS = ((1, 2), (2, 1), (1, -2), (2, -1))


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

    Cost: O(N) time and memory for N nodes, a fixed number of whole-array
    passes (one per direction, plus the domain-gap masks when some value
    is non-finite).  The violation reported is the first in this scan
    order: rows, then columns, then for each diagonal offset j - i in
    increasing order the diagonal before the anti-diagonal, then the
    directions (1,2), (2,1), (1,-2), (2,-1).  Lines go in index order and
    nodes along each line; on a line a domain gap comes before any second
    difference.
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

    hit = _first_violation(_concave_midpoints(v, fin, (0, 1), t), fin)
    if f.grid.dim == 1:
        if hit is not None:
            return ConvexityReport(False, (hit[1],), hit[2], (1,))
        return ConvexityReport(True)
    if hit is not None:
        return ConvexityReport(False, hit[:2], hit[2], (0, 1))

    bad = _concave_midpoints(v, fin, (1, 0), t).T
    hit = _first_violation(bad, None if fin is None else fin.T)
    if hit is not None:
        return ConvexityReport(False, (hit[1], hit[0]), hit[2], (1, 0))

    # the anti-diagonals are the diagonals of v with its columns reversed
    n0, n1 = v.shape
    vf = v[:, ::-1]
    finf = None if fin is None else fin[:, ::-1]
    bad = _diagonals(
        _concave_midpoints(v, fin, (1, 1), t), _concave_midpoints(vf, finf, (1, 1), t)
    )
    hit = _first_violation(bad, None if fin is None else _diagonals(fin, finf))
    if hit is not None:
        (c, anti), i = divmod(hit[0], 2), hit[1]
        j = i + c - (n0 - 1)
        if anti:
            return ConvexityReport(False, (i, n1 - 1 - j), hit[2], (1, -1))
        return ConvexityReport(False, (i, j), hit[2], (1, 1))

    for d in _KNIGHTS:
        bad = _concave_midpoints(v, fin, d, t, knight=True)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), n1)
            return ConvexityReport(False, (i, j), "second-difference", d)
    return ConvexityReport(True)


def interp_gridfn(f: GridFn, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation; +inf outside the box or next to +inf nodes.

    Chords of convex data lie above the graph, so interpolation never
    underestimates a convex GridFn.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != f.grid.dim:
        raise GridMismatchError("points dimension does not match grid")
    v = f.values
    inside, cell = [], []  # per axis: the box test, the two corner indices and their weights
    # a far point is ±inf, outside the box; an infinite corner makes nan terms
    with np.errstate(invalid="ignore", over="ignore"):
        for (lo, hi, n), h, x in zip(f.grid.axes, f.grid.spacing, pts.T):
            inside.append((x >= lo - 1e-12 * max(1.0, abs(lo))) & (x <= hi + 1e-12 * max(1.0, abs(hi))))
            t = np.minimum(n - 1, np.maximum(0.0, (x - lo) / h))  # np.clip's bits
            i = np.minimum(t.astype(int), n - 2)
            w = t - i
            cell.append(((i, i + 1), (1 - w, w)))
        # the 2^dim corners in row-major order; the terms are summed from the
        # first one, since a start of 0.0 would turn a -0.0 sum into 0.0
        corners, vals = [], None
        for bits in itertools.product((0, 1), repeat=len(cell)):
            c = v[tuple(ix[b] for (ix, _), b in zip(cell, bits))]
            term = functools.reduce(operator.mul, (ws[b] for (_, ws), b in zip(cell, bits))) * c
            vals = term if vals is None else vals + term
            corners.append(c)
    corner_inf = functools.reduce(operator.or_, map(np.isinf, corners))
    # exact node hits next to an infinite neighbour are still finite; the sum
    # is nan only next to one, since finite terms never add to inf - inf
    on_node = functools.reduce(operator.and_, (ws[1] == 0.0 for _, ws in cell))
    vals = np.where(corner_inf, np.where(on_node, corners[0], np.inf), vals)
    return np.where(functools.reduce(operator.and_, inside), vals, np.inf)
