"""Sampled monotone operators: Fitzpatrick functions, resolvents, Yosida
approximations, and the Minty surjectivity probe.

Operators enter either as finite sampled graphs (monotonicity and
Fitzpatrick work) or as subdifferentials of convex GridFns realized
through prox (resolvent work).  Maximality is undecidable from finite
samples; the surjectivity probe is the operational surrogate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError
from .fenchel import _TILE_ELEMS, _budget, _conjugate_scan
from .grids import GridFn, _dots, _frozen, _Frozen
from .moreau import ProxResult, _boundary_axis, prox

__all__ = [
    "OperatorGraph",
    "FitzpatrickEval",
    "MonotonicityReport",
    "is_monotone",
    "monotonically_related",
    "fitzpatrick",
    "ResolventResult",
    "resolvent",
    "yosida",
    "surjectivity_probe",
    "SurjectivityReport",
]


@dataclass(frozen=True)
class OperatorGraph(_Frozen):
    """Finite sampled graph {(x, x*)} of an operator on R^d, d in {1, 2}."""

    xs: np.ndarray  # (k, d)
    xstars: np.ndarray  # (k, d)

    def __post_init__(self) -> None:
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        xst = np.atleast_2d(np.asarray(self.xstars, dtype=float))
        if xs.ndim != 2 or xs.shape != xst.shape:
            raise ParameterError("xs and xstars must be (k, d) arrays of equal shape")
        if xs.shape[0] == 0:
            raise ParameterError("operator graph must be nonempty")
        if xs.shape[1] not in (1, 2):
            raise ParameterError("operator graphs live in R^1 or R^2")
        object.__setattr__(self, "xs", _frozen(xs))
        object.__setattr__(self, "xstars", _frozen(xst))

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    @property
    def size(self) -> int:
        return self.xs.shape[0]


def _default_tol(G: OperatorGraph) -> float:
    """1e-8 (1 + max|x| max|x*|), capped at the largest float: an infinite
    tolerance would accept an infinite negative product."""
    with np.errstate(over="ignore"):
        scale = float(np.abs(G.xs).max() * np.abs(G.xstars).max())
    return min(1e-8 * (1.0 + scale), sys.float_info.max)


@dataclass(frozen=True)
class MonotonicityReport:
    monotone: bool
    violating_pair: Optional[tuple[int, int]] = None
    min_product: float = 0.0

    def __bool__(self) -> bool:
        return self.monotone


def is_monotone(G: OperatorGraph) -> MonotonicityReport:
    """Exhaustive check of <x_i - x_j, x*_i - x*_j> >= -tol over the k^2
    stored pairs (i, j), tol = 1e-8 (1 + max|x| max|x*|), at most the
    largest float.  The product is <x_i, x*_i> + <x_j, x*_j> - <x_i, x*_j>
    - <x_j, x*_i>; the violating pair is the smallest (i, j), and a NaN
    product (±inf entries, or overflow) raises ParameterError naming the
    first in row-major order.

    Its work is the k^2 pairs (MAX_DIRECT_PAIRS caps it), in blocks of
    rows of about _TILE_ELEMS pairs: memory O(block k), at most 4 blocks
    (4.3 MB by tracemalloc), plus O(k).  At the cap (k = 44,721) it takes
    about 12 s in 1-D (6 ns a pair) and 45 s in 2-D (22 ns a pair) on a
    shared 2-vCPU Xeon host."""
    _budget(G.size * G.size, "is_monotone needs {} (i, j) pairs")
    step = max(1, _TILE_ELEMS // G.size)
    mn, bad = math.inf, None
    with np.errstate(over="ignore", invalid="ignore"):
        tol, d = _default_tol(G), _dots(G.xs, G.xstars)
        for a in range(0, G.size, step):
            b = slice(a, a + step)
            M = d[b, None] + d - _dots(G.xs[b, None], G.xstars) - _dots(G.xstars[b, None], G.xs)
            m = float(M.min())
            if math.isnan(m):  # the first NaN overall lies in the first block with one
                i, j = divmod(int(np.argmax(np.isnan(M))), G.size)
                raise ParameterError(f"stored pairs ({a + i}, {j}) give a NaN product "
                                     "<x_i - x_j, x*_i - x*_j>")
            if bad is None and m < -tol:  # the first violation in row-major order
                i, j = divmod(int(np.argmax(M < -tol)), G.size)
                bad = (a + i, j)
            mn = min(mn, m)
    return MonotonicityReport(bad is None, bad, mn)


def monotonically_related(G: OperatorGraph, candidate: tuple) -> bool:
    """True iff the candidate pair has nonnegative product against every
    stored pair (within -tol, the tolerance of is_monotone).  A product
    that overflows is ±inf; a NaN product raises ParameterError."""
    tol = _default_tol(G)
    cx = np.atleast_1d(np.asarray(candidate[0], dtype=float))
    cs = np.atleast_1d(np.asarray(candidate[1], dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        prods = _dots(G.xs - cx, G.xstars - cs)
    if np.isnan(prods).any():
        i = int(np.flatnonzero(np.isnan(prods))[0])
        raise ParameterError(f"stored pair {i} gives a NaN product with the candidate")
    return bool(prods.min() >= -tol)


@dataclass(frozen=True)
class FitzpatrickEval:
    query: tuple[tuple[float, ...], tuple[float, ...]]
    value: float
    attaining_index: int


def fitzpatrick(G: OperatorGraph, query: tuple) -> FitzpatrickEval:
    """Exact sup over the stored graph of <x, a*> + <a, x*> - <a, a*>.
    Terms that overflow are ±inf silently; a NaN term (inf - inf) raises
    ParameterError."""
    qx = np.atleast_1d(np.asarray(query[0], dtype=float))
    qs = np.atleast_1d(np.asarray(query[1], dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _dots(G.xstars, qx) + _dots(G.xs, qs) - _dots(G.xs, G.xstars)
    if np.isnan(vals).any():
        i = int(np.flatnonzero(np.isnan(vals))[0])
        raise ParameterError(f"stored pair {i} gives a NaN Fitzpatrick term at "
                             f"x = {qx.tolist()}, x* = {qs.tolist()}")
    idx = int(np.argmax(vals))
    return FitzpatrickEval((tuple(qx), tuple(qs)), float(vals[idx]), idx)


@dataclass(frozen=True)
class ResolventResult:
    x: tuple[float, ...]
    y: tuple[float, ...]
    certificate_eps: float  # Fenchel-Young residual of y in d_eps f(x)


def _certificate(f: GridFn, lam: float, z: np.ndarray, p: ProxResult):
    """x = p.point and y = (z - x) / lam for p = prox(f, lam, z), and the Fenchel-Young
    residual f(x) + f*(y) - <x, y> of y in d_eps f(x): f interpolated (p.f_point), f*
    exact over the nodes of dom f (the conjugate of the piecewise-linear extension),
    <x, y> by _dots.  Near the float limit y, f*(y) and <x, y> overflow silently; where
    the residual is then inf - inf (always where y is not finite) it is +inf.  Cost:
    one O(N) scan plus a fixed number of array calls."""
    x = np.asarray(p.point)
    with np.errstate(over="ignore", invalid="ignore"):
        y = (z - x) / lam
        eps = p.f_point + float(_conjugate_scan(f, y[None, :])[0][0]) - float(_dots(x, y))
    return x, y, math.inf if math.isnan(eps) else eps


def resolvent(f: GridFn, lam: float, z, check_convexity: bool = True,
              convexity_tol: float = 1e-9) -> ResolventResult:
    """J_{lam A} for A = the subdifferential of f, realized via prox.

    Returns x = prox(f, lam, z) and y = (z - x) / lam, so z = x + lam y by
    construction; the certificate is the Fenchel-Young residual of
    y in d_eps f(x).  Cost: prox's (the O(N) node scan plus about 60 array
    calls per axis in 1-D) plus _certificate's one O(N) scan and about 20
    array calls.
    """
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    x, y, eps = _certificate(f, lam, zv, prox(f, lam, zv, check_convexity, convexity_tol))
    return ResolventResult(tuple(x), tuple(y), eps)


def yosida(f: GridFn, lam: float, z, check_convexity: bool = True) -> np.ndarray:
    """(z - prox(f, lam, z)) / lam; the gradient of the Moreau envelope."""
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.asarray(prox(f, lam, zv, check_convexity=check_convexity).point)
    with np.errstate(over="ignore", invalid="ignore"):
        return (zv - x) / lam


@dataclass(frozen=True)
class SurjectivityReport:
    targets: tuple[tuple[float, ...], ...]
    residuals: tuple[float, ...]  # certificate eps per target
    boundary_flags: tuple[bool, ...]  # solution hit the grid boundary: widen
    all_certified: bool


def surjectivity_probe(
    f: GridFn, targets: Sequence, eps_tol: float = 1e-6
) -> SurjectivityReport:
    """Solve z in x + subdiff f(x) through the resolvent for each target z
    and certify via Fenchel-Young; Minty's criterion probed on a target set.
    An empty target set certifies nothing and raises ParameterError.

    Its work is targets x (nodes + 2^14): a target's resolvent scans the
    nodes, and its fixed cost of about 0.2 ms counts as 2^14 nodes
    (MAX_DIRECT_PAIRS caps the work).  At the cap it takes at most about
    50 s on a shared 2-vCPU Xeon host: 7 to 26 ns a unit over 1-D and 2-D
    grids of 2 to 10^6 nodes."""
    tg = [np.atleast_1d(np.asarray(t, dtype=float)) for t in targets]
    if not tg:
        raise ParameterError("surjectivity_probe needs at least one target")
    _budget(len(tg) * (f.grid.node_count + 2 ** 14), "surjectivity_probe needs {} node scans")
    res = [resolvent(f, 1.0, z, check_convexity=False) for z in tg]
    residuals = tuple(r.certificate_eps for r in res)
    flags = tuple(_boundary_axis(f.grid, r.x) is not None for r in res)
    ok = all(r <= eps_tol and not fl for r, fl in zip(residuals, flags))
    return SurjectivityReport(tuple(tuple(t) for t in tg), residuals, flags, ok)
