"""Special-function identities: Gamma limits, ball volumes, and the
coupon-collector objective in its three equivalent forms.

The three forms of p_N and what each costs:

- permutations, N <= 8: N! N steps.  All orderings run as arrays over one
  cached table of the N! orderings (_perm_table): object arrays, exact,
  over Fractions, and over floats bit-identical to the plain loop.
- inclusion-exclusion, N <= 24: 2^N terms.  Exact over Fractions by a loop
  over the subsets; over floats, within about one rounding of the exact
  value, over one cached table of subsets (_subset_table).
- integral, N <= 24: a double-exponential (exp-sinh) rule in numpy after
  scaling s by min(x), floats only; at most 1537 nodes, one expm1 and one
  prod over (nodes, N) per level, so O(1537 N).  Certified to 1e-9
  relative or refused with AccuracyError; +inf where p_N overflows.

A form takes the Fraction path only when every input is a Fraction.

The subset table holds the subsets S of {0..N-1} in bitmask order: subset
sums s = M x and signs sigma = (-1)^(|S|+1).  From it p_N = sum sigma/s,
its gradient -M^T (sigma/s^2) and its Hessian M^T diag(2 sigma/s^3) M are
closed forms, so the probe's Hessians carry rounding error only, no
step-size error.

beta_direct and the integral form share one double-exponential rule
(_de_rule; Takahasi and Mori, Publ. RIMS 9, 1974) on numpy alone: levels
h = 2^-L that reuse the nodes before them, node tables built on first call,
and an error estimate of the last level difference plus both truncated
tails, which must be at most 1e-9 of the value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from .errors import AccuracyError, ParameterError

__all__ = [
    "lambert_w",
    "gamma_limit",
    "ball_volume",
    "beta_direct",
    "log_concavity_check",
    "LogConcavityResult",
    "coupon_pn_perm",
    "coupon_pn_ie",
    "coupon_pn_integral",
    "coupon_convexity_probe",
    "ConvexityProbeReport",
    "MAX_PERM_N",
    "MAX_IE_N",
]

MAX_PERM_N = 8  # N! growth
MAX_IE_N = 24  # 2^N subsets


def lambert_w(y: float, tol: float = 1e-12, max_iter: int = 100) -> float:
    """Principal branch of w e^w = y for y > 0, by Newton iteration.

    Iterates until |w e^w - y| <= tol * max(1, y).
    """
    y = float(y)
    if y <= 0.0:
        raise ParameterError("lambert_w requires y > 0")
    w = math.log1p(y) if y < math.e else math.log(y) - math.log(math.log(y))
    target = tol * max(1.0, y)
    for _ in range(max_iter):
        ew = math.exp(w)
        resid = w * ew - y
        if abs(resid) <= target:
            return w
        w -= resid / (ew * (w + 1.0))
    raise AccuracyError(f"lambert_w did not converge for y={y}")


def gamma_limit(x: float, n: int) -> float:
    """n-th partial product of the Gamma limit n! n^x / (x (x+1) ... (x+n)).

    Computed in log space; increases monotonically to Gamma(x) as n grows.
    +inf where the product overflows.
    """
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ParameterError("gamma_limit requires finite x > 0")
    n = int(n)
    if n < 1:
        raise ParameterError("gamma_limit requires n >= 1")
    ks = np.arange(0, n + 1, dtype=float)
    log_val = math.lgamma(n + 1) + x * math.log(n) - float(np.log(x + ks).sum())
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf


def ball_volume(n: int, p: float) -> float:
    """Volume of the unit p-norm ball in R^n: 2^n Gamma(1+1/p)^n / Gamma(1+n/p)."""
    n = int(n)
    if n < 1:
        raise ParameterError("ball_volume requires n >= 1")
    if p == math.inf:
        return 2.0 ** n
    p = float(p)
    if p < 1.0:
        raise ParameterError("ball_volume requires p >= 1 (or inf)")
    return _v_alpha(n, p)


def _v_alpha(alpha: float, p: float) -> float:
    return math.exp(
        alpha * math.log(2.0) + alpha * math.lgamma(1.0 + 1.0 / p) - math.lgamma(1.0 + alpha / p)
    )


def beta_direct(x: float, y: float) -> float:
    """Beta function by direct quadrature of its defining integral
    B(x, y) = integral over t in (0, 1) of t^(x-1) (1-t)^(y-1), floats.

    The tanh-sinh map of _de_rule puts t = 1/(1 + exp(-pi sinh tau)) on
    tau in [-6, 6].  log t and log(1-t) are formed apart from
    exp(-pi sinh |tau|), so both endpoints keep their digits, and the
    integrand times its weight is pi cosh(tau) exp(x log t + y log(1-t)).
    At most 3073 nodes, O(1) work each.  The value is certified to 1e-9
    relative; AccuracyError where it cannot be, which is when min(x, y)
    is below about 0.034 (the mass past t = exp(-pi sinh 6), about
    1e-275, is then over the bound) or B is below the normal float range
    (x = y past about 510)."""
    x, y = float(x), float(y)
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise ParameterError("beta requires finite x, y > 0")
    return _de_rule("tanh-sinh", lambda lt, ls, w: w * np.exp(x * lt + y * ls), "beta")


@dataclass(frozen=True)
class LogConcavityResult:
    lhs: float
    rhs: float
    holds: bool
    degenerate: bool  # p == q, equality case


def log_concavity_check(alpha: float, p: float, q: float, lam: float) -> LogConcavityResult:
    """Harmonic-arithmetic log-concavity of the p-ball volume in 1/p.

    Compares V(p)^lam V(q)^(1-lam) against V evaluated at the harmonic
    interpolation of p and q; strict inequality for p != q.
    """
    if alpha <= 1.0:
        raise ParameterError("requires alpha > 1")
    if p <= 1.0 or q <= 1.0:
        raise ParameterError("requires p, q > 1")
    if not 0.0 < lam < 1.0:
        raise ParameterError("requires lambda in (0, 1)")
    r = 1.0 / (lam / p + (1.0 - lam) / q)
    lhs = _v_alpha(alpha, p) ** lam * _v_alpha(alpha, q) ** (1.0 - lam)
    rhs = _v_alpha(alpha, r)
    if p == q:
        return LogConcavityResult(lhs, rhs, holds=False, degenerate=True)
    return LogConcavityResult(lhs, rhs, holds=bool(lhs < rhs), degenerate=False)


def _check_coupon_input(x: Sequence, max_n: int) -> tuple:
    xs = tuple(x)
    if not 1 <= len(xs) <= max_n:
        raise ParameterError(f"need 1 <= N <= {max_n}, got N={len(xs)}")
    for v in xs:
        if not 0 < v < math.inf:
            raise ParameterError("all components must be finite and strictly positive")
    return xs


def coupon_pn_perm(x: Sequence):
    """Permutation form of p_N: for each ordering, the product of tail
    ratios times the sum of tail reciprocals, summed over all N! orderings.

    All N! orderings (N <= 8) run at once as columns over _perm_table
    (cols[k] is entry k of every ordering); each sum and product is taken
    position by position in the plain loop's order, and the orderings are
    added up by a sequential cumsum.  Exact over Fractions (object arrays);
    over floats the plain loop's value bit for bit, inf and nan included."""
    xs = _check_coupon_input(x, MAX_PERM_N)
    n = len(xs)
    exact = all(isinstance(v, Fraction) for v in xs)
    with np.errstate(all="ignore"):  # silent inf and nan, as with Python floats
        cols = np.array(xs, dtype=object if exact else float)[_perm_table(n).T]
        tails = cols.copy()
        for k in range(n - 2, -1, -1):
            tails[k] += tails[k + 1]
        prod, recip = cols[0] / tails[0], 1 / tails[0]
        for k in range(1, n):
            prod = prod * (cols[k] / tails[k])
            recip = recip + 1 / tails[k]
        total = np.cumsum(prod * recip)[-1]
    return total if exact else float(total)


@lru_cache(maxsize=None)  # n <= MAX_PERM_N: at most 8 tables, 3 MB in all
def _perm_table(n: int) -> np.ndarray:
    """The n! orderings of range(n) as rows (n!, n), in
    itertools.permutations order.  Read-only, since every caller shares it."""
    table = np.array(list(permutations(range(n))), dtype=np.intp)
    table.flags.writeable = False
    return table


def coupon_pn_ie(x: Sequence):
    """Inclusion-exclusion form: sum over nonempty subsets S of
    (-1)^(|S|+1) / sum(x_i, i in S); N <= 24.

    Exact when every input is a Fraction.  Otherwise the float value is
    within about one rounding of the exact value of the inputs, see
    _pn_float."""
    xs = _check_coupon_input(x, MAX_IE_N)
    if not all(isinstance(v, Fraction) for v in xs):
        return _pn_float(np.array(xs, dtype=float))
    total = Fraction(0)
    for k in range(1, len(xs) + 1):
        sign = 1 if k % 2 == 1 else -1
        for subset in combinations(xs, k):
            total += sign / sum(subset)
    return total


_BLOCK_BITS = 14  # the float form runs over blocks of 2^14 subsets
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant


@lru_cache(maxsize=None)  # n <= _BLOCK_BITS: at most 15 tables, 4 MB in all
def _subset_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership masks M (2^n, n) and signs (-1)^(|S|+1) of the subsets S
    of {0..n-1} in bitmask order: row c is the subset with bitmask c, row
    0 the empty set.  Read-only, since every caller shares them."""
    masks = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    sign = 1.0 - 2.0 * (masks.sum(axis=1) % 2 == 0)
    masks.flags.writeable = sign.flags.writeable = False
    return masks, sign


def _extract(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v = a + r exactly, with the a_i on a grid so coarse that any sum of
    them is exact, and |r_i| <= 2^-51 (n + 1) max |v| for n = v.size
    (Rump, Ogita and Oishi's ExtractVector)."""
    sigma = math.ldexp(1.0, math.frexp((v.size + 1) * float(np.abs(v).max()))[1])
    a = (sigma + v) - sigma
    return a, v - a


def _exact_parts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """v = a + b + r exactly: any sum of the a_i, or of the b_i, is exact,
    and |r_i| is below 2^-100 (n + 1)^2 max |v| for n = v.size."""
    a, r = _extract(v)
    b, r = _extract(r)
    return a, b, r


def _two_sum(a, b):
    """fl(a + b) and its rounding error, exactly (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _split(a):
    """a = hi + lo with hi and lo of at most 26 significant bits (Veltkamp)."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    """fl(a * b) and its rounding error, exactly (Dekker's product) below
    about 2^996 in magnitude."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _subset_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subset sums M x as pairs hi + lo equal to the exact sums to about
    eps^2, and the signs, in the order of _subset_table."""
    masks, sign = _subset_table(x.size)
    if x.size == 0:
        return np.zeros(1), np.zeros(1), sign
    a, b, r = (masks @ v for v in _exact_parts(x))
    hi, lo = _two_sum(a, b)
    hi, lo = _two_sum(hi, lo + r)  # hi is 0 where only r holds the sum
    return hi, lo, sign


# the float form's largest max(x)/min(x), as a power of two: centred on 0,
# x stays within 2^1001 of 1, so sums of 25 and reciprocals stay finite
_IE_SPREAD_BITS = 2000


def _pn_float(x: np.ndarray) -> float:
    """p_N within about one rounding of the exact value of the float
    inputs x while max(x)/min(x) <= 1e25, 2^14 subsets at a time in
    memory.  Past 1e25 the value is computed the same way, without that
    bound; past 2^2000 (about 1.1e602) a scaled sum or term would leave
    the float range, and it raises ParameterError before any work.

    The subsets S = H | T run in one block per subset H of the
    coordinates past the first 14, T over the subsets of those 14.  Each
    term q = sigma/s gets its correction (sigma - q s)/s, from s = hi + lo
    and q s split exactly; each block's terms are split into parts whose
    sums are exact, and math.fsum adds those sums exactly.  Terms past the
    float range give inf or nan, as plain float arithmetic would."""
    xmax, xmin = float(x.max()), float(x.min())
    spread = math.log2(xmax) - math.log2(xmin)
    if spread > _IE_SPREAD_BITS:
        raise ParameterError(
            f"max(x)/min(x) is about 1e{spread * math.log10(2):.0f}; the float "
            f"inclusion-exclusion form takes at most 2^{_IE_SPREAD_BITS} (about 1.1e602)"
        )
    # p is homogeneous of degree -1; scaling by a power of two, exactly, to
    # centre the exponents of x on 0 keeps sums, terms and splits in range
    shift = (math.frexp(xmax)[1] + math.frexp(xmin)[1]) // 2
    parts = []
    with np.errstate(all="ignore"):
        x = np.ldexp(x, -shift)
        k = min(x.size, _BLOCK_BITS)
        low_hi, low_lo, low_sign = _subset_sums(x[:k])
        top_hi, top_lo, top_sign = _subset_sums(x[k:])
        for h in range(top_hi.size):
            a = 1 if h == 0 else 0  # leave out the empty set
            s, err = _two_sum(top_hi[h], low_hi[a:])
            lo = err + (top_lo[h] + low_lo[a:])
            sign = -top_sign[h] * low_sign[a:]
            q = sign / s
            p, e = _two_prod(q, s)
            c = (((sign - p) - e) - q * lo) / s
            parts.extend(float(v.sum()) for v in _exact_parts(q))
            parts.append(float(np.sum(c[np.isfinite(c)])))  # uncorrected past 2^996
    try:
        return math.ldexp(math.fsum(parts), -shift)
    except OverflowError:  # p past the float range
        return math.inf
    except ValueError:  # inf - inf
        return math.nan


def coupon_pn_integral(x: Sequence[float]) -> float:
    """Integral form of p_N: the integral over s in (0, inf) of
    1 - prod(1 - exp(-s x_i)), in plain floats.

    With s = u / m for m = min(x) this is I / m, I the integral over u of
    g(u) = 1 - prod(1 - exp(-u r_i)) for the rates r_i = x_i / m >= 1, so
    1 <= I <= H_N whatever the scale of x.  The exp-sinh map of _de_rule
    puts u = exp(pi/2 sinh tau) on tau in [-4, 2], u from about 2e-19 to
    299; each level is one expm1 and one prod over (nodes, N), at most
    1537 nodes, so O(1537 N) work.  I is certified to 1e-9 relative
    (AccuracyError otherwise); +inf where I / m overflows."""
    xs = np.array(_check_coupon_input(x, MAX_IE_N), dtype=float)
    m = float(xs.min())

    def integrand(u, w):
        return w * (1.0 - np.prod(-np.expm1(-u[:, None] * r), axis=1))

    with np.errstate(over="ignore"):  # u r_i past the float range is +inf: a factor 1
        r = xs / m
        total = _de_rule("exp-sinh", integrand, "coupon integral")
    return total / m


# The double-exponential rule: the trapezoid rule in tau after a map whose
# weight decays double exponentially at both ends of a finite tau range.
# Level L has step h = 2^-L and adds the odd multiples of h to the nodes of
# the levels before it.
_DE_MAPS = {"exp-sinh": (-4, 2), "tanh-sinh": (-6, 6)}  # tau range, integers
_DE_MAX_LEVEL = 8  # at most 6 * 2^8 + 1 = 1537 and 12 * 2^8 + 1 = 3073 nodes
_DE_TARGET = 1e-13  # a relative estimate this small ends the refinement
_DE_BOUND = 1e-9  # the largest relative estimate a returned value may carry


@lru_cache(maxsize=None)  # two maps, 4610 nodes in all, built on first call
def _de_nodes(kind: str) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per level, the map's quantities at the nodes that level adds:
    (u, (pi/2) cosh(tau) u) for exp-sinh, u = exp((pi/2) sinh tau), and
    (log t, log(1-t), pi cosh tau) for tanh-sinh, t = 1/(1 + exp(-pi
    sinh tau)), whose weight is pi cosh(tau) t (1-t).  Level 0 is every
    integer tau in the range, in increasing order.  Read-only."""
    lo, hi = _DE_MAPS[kind]
    levels = []
    for level in range(_DE_MAX_LEVEL + 1):
        if level == 0:
            k = np.arange(lo, hi + 1)
        else:
            k = np.arange((lo << level) + 1, hi << level, 2)
        tau = k / float(1 << level)
        if kind == "exp-sinh":
            u = np.exp(0.5 * math.pi * np.sinh(tau))
            arrays = (u, 0.5 * math.pi * np.cosh(tau) * u)
        else:
            v = math.pi * np.sinh(tau)
            near_1 = -np.log1p(np.exp(-np.abs(v)))  # log of the one of t, 1-t above 1/2
            near_0 = near_1 - np.abs(v)
            arrays = (np.where(v >= 0, near_1, near_0), np.where(v >= 0, near_0, near_1),
                      math.pi * np.cosh(tau))
        for a in arrays:
            a.flags.writeable = False
        levels.append(arrays)
    return tuple(levels)


def _de_tail(end: float, inner: float) -> float:
    """Bound on the integral past an end node tau_e, from the transformed
    integrand F there and one unit inward.  While log F is concave past
    the inner node, F(tau_e + s) <= F(tau_e) rho^s with rho = end / inner,
    so the tail is at most end / log(1/rho).  An end value that rounds to 0
    leaves a tail below rounding; one that does not decay, +inf."""
    if end == 0.0:
        return 0.0
    if not 0.0 < end < inner:
        return math.inf
    return end / math.log(inner / end)


def _de_rule(kind: str, integrand, what: str) -> float:
    """The integral of `integrand` over the map `kind` of _de_nodes, whose
    arrays it takes as arguments; it returns the transformed integrand
    (integrand times weight) on those nodes.

    Levels run from h = 1 until the estimate |S_L - S_(L-1)| + the two
    tails is at most _DE_TARGET S_L, or to _DE_MAX_LEVEL.  The value is refused (AccuracyError) unless it is a
    normal float with an estimate of at most _DE_BOUND times itself."""
    levels = _de_nodes(kind)
    f = integrand(*levels[0])
    total = float(f.sum())
    tails = _de_tail(float(f[0]), float(f[1])) + _de_tail(float(f[-1]), float(f[-2]))
    for level in range(1, _DE_MAX_LEVEL + 1):
        prev = total
        total = 0.5 * total + math.ldexp(float(integrand(*levels[level]).sum()), -level)
        est = abs(total - prev) + tails
        if est <= _DE_TARGET * total:
            break
    if not (total >= sys.float_info.min and est <= _DE_BOUND * total):
        raise AccuracyError(f"{what} quadrature: value {total} with error estimate {est}, "
                            f"over {_DE_BOUND} relative or below the normal float range")
    return total


def _coupon_derivatives(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p_N and its gradient at each row of X (T, N), and the Hessians of
    p_N, 1/p_N and log p_N stacked as (3, T, N, N), in closed form:
    with H the Hessian of p and g its gradient, 1/p has -H/p^2 + 2gg^T/p^3
    and log p has H/p - gg^T/p^2."""
    masks, sign = _subset_table(X.shape[1])
    masks, sign = masks[1:], sign[1:]  # the nonempty subsets
    r = 1.0 / (X @ masks.T)
    p = r @ sign
    g = -(sign * r * r) @ masks
    H = (masks.T * (2.0 * sign * r ** 3)[:, None, :]) @ masks
    P, gg = p[:, None, None], g[:, :, None] * g[:, None, :]
    return p, g, np.stack((H, -H / P ** 2 + 2.0 * gg / P ** 3, H / P - gg / P ** 2))


@dataclass(frozen=True)
class ConvexityProbeReport:
    n: int
    trials: int
    seed: int
    min_hessian_eig: float
    min_eig_point: tuple[float, ...]
    max_inv_hessian_eig: float
    max_inv_eig_point: tuple[float, ...]
    # optional log-convexity probe (no acceptance threshold attached)
    min_log_hessian_eig: float = field(default=float("nan"))


_PROBE_ELEMS = 2 ** 20  # the probe's trials run in chunks of T N 2^N <= this


def coupon_convexity_probe(n: int, trials: int, seed: int) -> ConvexityProbeReport:
    """Sample the exact Hessians of p_N (convexity), 1/p_N (concavity) and
    log p_N (log-convexity, informational) at log-uniform random points of
    [0.1, 10]^N, 2 <= N <= 10, trials >= 1.

    The points are 10 ** rng.uniform(-1, 1, size=N) per trial, drawn in
    chunks of trials (the same stream as one draw per trial); each chunk
    is one stacked eigvalsh.  The eigenvalues carry rounding error only."""
    if not 2 <= n <= 10:
        raise ParameterError("probe supports 2 <= N <= 10")
    if trials < 1:
        raise ParameterError(f"probe needs trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    chunk = max(1, _PROBE_ELEMS // (n << n))
    min_eig, max_inv, min_log = math.inf, -math.inf, math.inf
    min_pt = max_pt = None
    for a in range(0, trials, chunk):
        X = 10.0 ** rng.uniform(-1.0, 1.0, size=(min(chunk, trials - a), n))
        eig = np.linalg.eigvalsh(_coupon_derivatives(X)[2])
        lo, hi = eig[0, :, 0], eig[1, :, -1]
        i, j = int(np.argmin(lo)), int(np.argmax(hi))
        if lo[i] < min_eig:
            min_eig, min_pt = float(lo[i]), tuple(X[i].tolist())
        if hi[j] > max_inv:
            max_inv, max_pt = float(hi[j]), tuple(X[j].tolist())
        min_log = min(min_log, float(eig[2, :, 0].min()))
    return ConvexityProbeReport(
        n=n,
        trials=trials,
        seed=seed,
        min_hessian_eig=min_eig,
        min_eig_point=min_pt,
        max_inv_hessian_eig=max_inv,
        max_inv_eig_point=max_pt,
        min_log_hessian_eig=min_log,
    )
