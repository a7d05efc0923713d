"""Extended-real arithmetic.

Scalars and arrays take values in [-inf, +inf] with the sign convention
used throughout the toolkit:

    (+inf) + (-inf) = +inf        (+inf) - (+inf) = +inf

i.e. +inf absorbs in any addition, so improper cancellations never
produce NaN.  Finite arithmetic is ordinary float arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ExtReal", "POS_INF", "NEG_INF", "ext_add", "ext_sub"]


@dataclass(frozen=True)
class ExtReal:
    """A single extended real. NaN is not a value."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if math.isnan(v):
            raise ValueError("ExtReal cannot hold NaN")
        object.__setattr__(self, "value", v)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def __float__(self) -> float:
        return self.value

    def __neg__(self) -> "ExtReal":
        return ExtReal(-self.value)

    def __add__(self, other) -> "ExtReal":
        a, b = self.value, _coerce(other)
        if a == math.inf or b == math.inf:
            return POS_INF
        if a == -math.inf or b == -math.inf:
            return NEG_INF
        return ExtReal(a + b)

    __radd__ = __add__

    def __sub__(self, other) -> "ExtReal":
        return self + ExtReal(-_coerce(other))

    def __rsub__(self, other) -> "ExtReal":
        return ExtReal(_coerce(other)) + (-self)

    def __mul__(self, other) -> "ExtReal":
        # Only finite-by-extended products arise in this toolkit; 0*inf is
        # undefined and rejected rather than given a convention.
        a, b = self.value, _coerce(other)
        if (a == 0.0 and math.isinf(b)) or (b == 0.0 and math.isinf(a)):
            raise ValueError("0 * inf is undefined")
        return ExtReal(a * b)

    __rmul__ = __mul__

    def __lt__(self, other) -> bool:
        return self.value < _coerce(other)

    def __le__(self, other) -> bool:
        return self.value <= _coerce(other)

    def __gt__(self, other) -> bool:
        return self.value > _coerce(other)

    def __ge__(self, other) -> bool:
        return self.value >= _coerce(other)

    def __repr__(self) -> str:
        if self.value == math.inf:
            return "ExtReal(+inf)"
        if self.value == -math.inf:
            return "ExtReal(-inf)"
        return f"ExtReal({self.value!r})"


def _coerce(x) -> float:
    if isinstance(x, ExtReal):
        return x.value
    v = float(x)
    if math.isnan(v):
        raise ValueError("ExtReal arithmetic cannot involve NaN")
    return v


POS_INF = ExtReal(math.inf)
NEG_INF = ExtReal(-math.inf)


def ext_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a + b under the +inf-absorbs convention."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        out = a + b
    pos = (a == np.inf) | (b == np.inf)
    if np.any(pos):
        out = np.where(pos, np.inf, out)
    return out


def ext_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a - b, i.e. ext_add(a, -b)."""
    return ext_add(a, -np.asarray(b, dtype=float))
