"""Closed-form function catalog.

Each atom evaluates to an extended real at every input (indicators return
+inf outside their set) and may carry an analytic-conjugate tag so that
conjugate pairs can be validated through the Fenchel-Young equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CatalogError, GridMismatchError, ParameterError
from .grids import Grid, GridFn, _dots, _norm
from .special import lambert_w

__all__ = ["FnAtom", "atom_eval", "sample", "analytic_conjugate", "catalog_tags"]

_REL_SLACK = 1e-12  # boundary classification slack for indicator-type atoms


@dataclass(frozen=True)
class FnAtom:
    """Catalog entry: a tag plus its real parameters."""

    tag: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        spec = _catalog_spec(self.tag)
        spec.validate(self.params)

    @property
    def arity(self) -> int:
        return _catalog_spec(self.tag).arity


@dataclass(frozen=True)
class _AtomSpec:
    arity: int
    n_params: int
    evaluate: Callable[[tuple, np.ndarray], np.ndarray]
    validate_params: Optional[Callable[[tuple], None]] = None
    conjugate: Optional[Callable[[tuple], "FnAtom"]] = None

    def validate(self, params: tuple) -> None:
        if len(params) != self.n_params:
            raise ParameterError(
                f"atom expects {self.n_params} parameter(s), got {len(params)}"
            )
        if self.validate_params is not None:
            self.validate_params(params)


def _slack(v: float) -> float:
    return _REL_SLACK * max(1.0, abs(v))


# ---- 1-D evaluations (x is a flat array) ----------------------------------


def _eval_power(params, x):
    (p,) = params
    return np.abs(x) ** p / p  # |x| > 1 at a huge p: +inf, the limit


def _check_power(params):
    if params[0] <= 1.0 or params[0] == math.inf:
        raise ParameterError(f"power atom requires 1 < p < inf, got {params[0]}")


def _power_conj(params):
    (p,) = params
    return FnAtom("power", (p / (p - 1.0),))


def _eval_abs(params, x):
    return np.abs(x)


def _eval_indicator(params, x):
    a, b = params  # each bound its own slack: a huge b must not widen a
    return np.where((x >= a - _slack(a)) & (x <= b + _slack(b)), 0.0, np.inf)


def _check_interval(params):
    a, b = params
    if a > b:
        raise ParameterError(f"interval needs a <= b, got [{a}, {b}]")


def _eval_support(params, x):
    a, b = params
    return np.maximum(a * x, b * x)


def _eval_distance(params, x):
    a, b = params
    return np.maximum.reduce([a - x, np.zeros_like(x), x - b])


def _eval_dist_conj(params, x):
    # support of [a,b] plus the indicator of the unit ball
    a, b = params
    s = _slack(1.0)
    return np.where(np.abs(x) <= 1.0 + s, np.maximum(a * x, b * x), np.inf)


def _eval_exp(params, x):
    return np.exp(x)


def _eval_xlogx(params, x):
    out = np.full_like(x, np.inf)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos]) - x[pos]
    out[x == 0] = 0.0
    return out


def _eval_expexp(params, x):
    return np.exp(np.exp(x))


def _eval_expexp_conj(params, x):
    out = np.full_like(x, np.inf)
    out[x == 0] = -1.0
    pos = np.flatnonzero(x > 0)
    for i in pos:
        y = x[i]
        w = lambert_w(y)
        out[i] = y * (math.log(y) - w - 1.0 / w)
    return out


def _eval_negsqrt_circle(params, x):
    s = _slack(1.0)
    out = np.full_like(x, np.inf)
    inside = np.abs(x) <= 1.0 + s
    out[inside] = -np.sqrt(np.maximum(0.0, 1.0 - x[inside] ** 2))
    return out


def _eval_hypot1(params, x):
    return np.hypot(1.0, x)


def _eval_negsqrt(params, x):
    out = np.full_like(x, np.inf)
    ok = x >= 0
    out[ok] = -np.sqrt(x[ok])
    return out


def _eval_negsqrt_conj(params, x):
    out = np.full_like(x, np.inf)
    neg = x < 0
    out[neg] = -1.0 / (4.0 * x[neg])
    return out


def _eval_point(params, x):
    (a,) = params
    s = max(_slack(a), _REL_SLACK)
    return np.where(np.abs(x - a) <= s, 0.0, np.inf)


def _check_finite(tag, params):
    if not math.isfinite(params[0]):
        raise ParameterError(f"{tag} atom requires a finite a, got {params[0]}")


def _eval_linear(params, x):
    (a,) = params
    return a * x


def _eval_const(params, x):
    (c,) = params
    return np.full_like(x, c)


def _eval_quad(params, x):
    a, s = params
    return 0.5 * a * (x - s) ** 2


def _check_quad(params):
    if params[0] <= 0.0:
        raise ParameterError("quad atom requires curvature a > 0")


def _eval_quad_conj(params, x):
    a, s = params
    return s * x + x ** 2 / (2.0 * a)


# ---- 2-D evaluations (x has shape (k, 2)) ----------------------------------


def _eval_l1norm(params, x):
    return np.abs(x).sum(axis=1)


def _eval_l2norm(params, x):
    return _norm(x)


def _eval_linfnorm(params, x):
    return np.abs(x).max(axis=1)


def _eval_sqnorm2(params, x):
    return 0.5 * _dots(x, x)


_CATALOG: dict[str, _AtomSpec] = {
    "power": _AtomSpec(1, 1, _eval_power, _check_power, _power_conj),
    "abs": _AtomSpec(1, 0, _eval_abs, None, lambda p: FnAtom("indicator", (-1.0, 1.0))),
    "indicator": _AtomSpec(1, 2, _eval_indicator, _check_interval,
                           lambda p: FnAtom("support", p)),
    "support": _AtomSpec(1, 2, _eval_support, _check_interval,
                         lambda p: FnAtom("indicator", p)),
    "distance": _AtomSpec(1, 2, _eval_distance, _check_interval,
                          lambda p: FnAtom("dist_conj", p)),
    "dist_conj": _AtomSpec(1, 2, _eval_dist_conj, _check_interval,
                           lambda p: FnAtom("distance", p)),
    "exp": _AtomSpec(1, 0, _eval_exp, None, lambda p: FnAtom("xlogx")),
    "xlogx": _AtomSpec(1, 0, _eval_xlogx, None, lambda p: FnAtom("exp")),
    "expexp": _AtomSpec(1, 0, _eval_expexp, None, lambda p: FnAtom("expexp_conj")),
    "expexp_conj": _AtomSpec(1, 0, _eval_expexp_conj, None, lambda p: FnAtom("expexp")),
    "negsqrt_circle": _AtomSpec(1, 0, _eval_negsqrt_circle, None, lambda p: FnAtom("hypot1")),
    "hypot1": _AtomSpec(1, 0, _eval_hypot1, None, lambda p: FnAtom("negsqrt_circle")),
    "negsqrt": _AtomSpec(1, 0, _eval_negsqrt, None, lambda p: FnAtom("negsqrt_conj")),
    "negsqrt_conj": _AtomSpec(1, 0, _eval_negsqrt_conj, None, lambda p: FnAtom("negsqrt")),
    "point": _AtomSpec(1, 1, _eval_point, lambda p: _check_finite("point", p),
                       lambda p: FnAtom("linear", p)),
    "linear": _AtomSpec(1, 1, _eval_linear, lambda p: _check_finite("linear", p),
                        lambda p: FnAtom("point", p)),
    "const": _AtomSpec(1, 1, _eval_const, None, None),
    "quad": _AtomSpec(1, 2, _eval_quad, _check_quad, lambda p: FnAtom("quad_conj", p)),
    "quad_conj": _AtomSpec(1, 2, _eval_quad_conj, _check_quad, lambda p: FnAtom("quad", p)),
    "l1norm": _AtomSpec(2, 0, _eval_l1norm),
    "l2norm": _AtomSpec(2, 0, _eval_l2norm),
    "linfnorm": _AtomSpec(2, 0, _eval_linfnorm),
    "sqnorm2": _AtomSpec(2, 0, _eval_sqnorm2, None, lambda p: FnAtom("sqnorm2")),
}

def _catalog_spec(tag: str) -> _AtomSpec:
    try:
        return _CATALOG[tag]
    except KeyError:
        raise CatalogError(
            f"unknown atom {tag!r}; catalog: {', '.join(catalog_tags())}"
        ) from None


def catalog_tags() -> list[str]:
    return sorted(_CATALOG)


def _eval_array(atom: FnAtom, pts: np.ndarray) -> np.ndarray:
    """The atom at each point of pts, the float rule of every sample: a value
    past the float range is ±inf, silently, and a NaN value raises
    ParameterError naming the atom, its parameters and the first NaN point."""
    x = np.asarray(pts, dtype=float).reshape(-1, atom.arity)
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.asarray(_catalog_spec(atom.tag).evaluate(atom.params, x[:, 0] if atom.arity == 1 else x),
                       dtype=float)
    if math.isnan(np.minimum.reduce(v, axis=None)):  # the min of values holding NaN is NaN
        raise ParameterError(f"atom {atom.tag!r} with parameters {atom.params} "
                             f"is NaN at {x[int(np.argmax(np.isnan(v)))].tolist()}")
    return v


def atom_eval(atom: FnAtom, x) -> float:
    """Evaluate one atom at one point (scalar or length-`arity` vector),
    under _eval_array's float rule."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.size != atom.arity:
        raise GridMismatchError(f"atom {atom.tag!r} has arity {atom.arity}, point has size {p.size}")
    return float(_eval_array(atom, p)[0])


def sample(atom: FnAtom, grid: Grid) -> GridFn:
    """Sample an atom on a grid under _eval_array's float rule; points
    outside the box are implicitly +inf."""
    if grid.dim != atom.arity:
        raise GridMismatchError(
            f"atom {atom.tag!r} has arity {atom.arity}, grid has dim {grid.dim}"
        )
    # a 1-D grid's nodes are its axis coordinates
    vals = _eval_array(atom, grid.coords(0) if grid.dim == 1 else grid.nodes()).reshape(grid.shape)
    return GridFn(grid, vals)


def analytic_conjugate(atom: FnAtom) -> Optional[FnAtom]:
    """The catalog's closed-form conjugate of an atom, when known."""
    spec = _catalog_spec(atom.tag)
    if spec.conjugate is None:
        return None
    return spec.conjugate(atom.params)
