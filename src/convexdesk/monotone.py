"""Sampled monotone operators: Fitzpatrick functions, resolvents, Yosida
approximations, and the Minty surjectivity probe.

Operators enter either as finite sampled graphs (monotonicity and
Fitzpatrick work) or as subdifferentials of convex GridFns realized
through prox (resolvent work).  Maximality is undecidable from finite
samples; the surjectivity probe is the operational surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError
from .fenchel import conjugate_value_at
from .grids import GridFn, interp_gridfn
from .moreau import _boundary_axis, prox

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
class OperatorGraph:
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
        xs = xs.copy()
        xst = xst.copy()
        xs.setflags(write=False)
        xst.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "xstars", xst)

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    @property
    def size(self) -> int:
        return self.xs.shape[0]


def _default_tol(G: OperatorGraph) -> float:
    scale = float(np.abs(G.xs).max() * np.abs(G.xstars).max()) if G.size else 0.0
    return 1e-8 * (1.0 + scale)


@dataclass(frozen=True)
class MonotonicityReport:
    monotone: bool
    violating_pair: Optional[tuple[int, int]] = None
    min_product: float = 0.0

    def __bool__(self) -> bool:
        return self.monotone


def is_monotone(G: OperatorGraph) -> MonotonicityReport:
    """Exhaustive O(k^2) check of <x - y, x* - y*> >= -tol over stored pairs,
    tol = 1e-8 (1 + max|x| max|x*|)."""
    tol = _default_tol(G)
    P = G.xs @ G.xstars.T
    d = np.diag(P)
    M = d[:, None] + d[None, :] - P - P.T
    mn = float(M.min())
    if mn >= -tol:
        return MonotonicityReport(True, None, mn)
    bad = np.argwhere(M < -tol)
    i, j = min((int(a), int(b)) for a, b in bad if a != b)
    return MonotonicityReport(False, (i, j), mn)


def monotonically_related(G: OperatorGraph, candidate: tuple) -> bool:
    """True iff the candidate pair has nonnegative product against every
    stored pair (within -tol, the tolerance of is_monotone)."""
    tol = _default_tol(G)
    cx = np.atleast_1d(np.asarray(candidate[0], dtype=float))
    cs = np.atleast_1d(np.asarray(candidate[1], dtype=float))
    prods = ((G.xs - cx[None, :]) * (G.xstars - cs[None, :])).sum(axis=1)
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
        vals = G.xstars @ qx + G.xs @ qs - (G.xs * G.xstars).sum(axis=1)
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


def _certificate(f: GridFn, lam: float, z: np.ndarray, x: np.ndarray, residual: bool = True):
    """y = (z - x) / lam for x = prox(f, lam, z), and the Fenchel-Young residual
    f(x) + f*(y) - <x, y> of y in d_eps f(x), None unless `residual`: f interpolated,
    f* exact over the nodes (the conjugate of the piecewise-linear extension).
    Near the float limit y, f*(y) and the residual overflow to inf or nan silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = (z - x) / lam
        if not residual:
            return y, None
        fx = float(interp_gridfn(f, x[None, :])[0])
        fy, _ = conjugate_value_at(f, y)
        return y, fx + fy - float(x @ y)


def resolvent(f: GridFn, lam: float, z, check_convexity: bool = True) -> ResolventResult:
    """J_{lam A} for A = the subdifferential of f, realized via prox.

    Returns x = prox(f, lam, z) and y = (z - x) / lam, so z = x + lam y by
    construction; the certificate is the Fenchel-Young residual of
    y in d_eps f(x).
    """
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.asarray(prox(f, lam, zv, check_convexity=check_convexity).point)
    y, eps = _certificate(f, lam, zv, x)
    return ResolventResult(tuple(x), tuple(y), eps)


def yosida(f: GridFn, lam: float, z, check_convexity: bool = True) -> np.ndarray:
    """(z - prox(f, lam, z)) / lam; the gradient of the Moreau envelope."""
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.asarray(prox(f, lam, zv, check_convexity=check_convexity).point)
    return _certificate(f, lam, zv, x, residual=False)[0]


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
    An empty target set certifies nothing and raises ParameterError."""
    tg = [np.atleast_1d(np.asarray(t, dtype=float)) for t in targets]
    if not tg:
        raise ParameterError("surjectivity_probe needs at least one target")
    res = [resolvent(f, 1.0, z, check_convexity=False) for z in tg]
    residuals = tuple(r.certificate_eps for r in res)
    flags = tuple(_boundary_axis(f.grid, r.x) is not None for r in res)
    ok = all(r <= eps_tol and not fl for r, fl in zip(residuals, flags))
    return SurjectivityReport(tuple(tuple(t) for t in tg), residuals, flags, ok)
