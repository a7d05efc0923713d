"""Output checks run on every job.

Each check is a plain numpy computation that does not call the library
path it checks.  A check returns None when the output is right and a
short reason otherwise; checks that count disagreeing nodes add them to
the `stats` counter they are given.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

import numpy as np

# start of the reason a conjugate check gives when the output disagrees
# with the exhaustive oracle (the known defect of ROADMAP item 2)
ORACLE_MISMATCH = "disagrees with the oracle"


def decode(v) -> float:
    if v == "+inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_values(path: str) -> np.ndarray:
    """Values of a grid function or conjugate report written as JSON."""
    return np.asarray([decode(v) for v in read_json(path)["values"]], dtype=float)


def coords(lo: float, hi: float, n: int) -> np.ndarray:
    """Grid coordinates exactly as `Grid.coords` builds them."""
    return np.linspace(lo, hi, n)


def conjugate_1d(xs, fv, ys, values, argmax, sample, stats) -> Optional[str]:
    """Value and argmax at sampled dual nodes must be bit-identical to the
    exhaustive max of y*x_j - f_j with smallest-index ties."""
    bad = 0
    for chunk in np.array_split(sample, max(1, sample.size // 16)):
        V = ys[chunk, None] * xs[None, :] - fv[None, :]
        a = np.argmax(V, axis=1)
        v = V[np.arange(chunk.size), a]
        bad += int(np.sum((a != argmax[chunk]) | (v != values[chunk])))
    stats["conjugate_mismatch"] += bad
    return f"{ORACLE_MISMATCH} at {bad} of {sample.size} sampled dual nodes" if bad else None


def conjugate_2d(x1, x2, fv, y1, y2, values, argmax, sample, stats) -> Optional[str]:
    """2-D form of `conjugate_1d` with the oracle's x1*y1 + (x2*y2 - f)."""
    bad = 0
    m2 = y2.size
    for k in sample:
        k1, k2 = divmod(int(k), m2)
        V = (y1[k1] * x1)[:, None] + (y2[k2] * x2[None, :] - fv)
        a = int(np.argmax(V))
        if a != argmax[k1, k2] or V.flat[a] != values[k1, k2]:
            bad += 1
    stats["conjugate_mismatch"] += bad
    return f"{ORACLE_MISMATCH} at {bad} of {sample.size} sampled dual nodes" if bad else None


def biconjugate(fv, bb, slack: float) -> Optional[str]:
    """f** is a minorant of f: f** <= f up to rounding at every node, and
    within `slack` of f where the caller can bound the gap."""
    fin = np.isfinite(fv)
    scale = max(1.0, float(np.max(np.abs(fv[fin]))))
    if np.any(bb[fin] > fv[fin] + 1e-12 * scale):
        return "biconjugate exceeds f"
    gap = float(np.max(fv[fin] - bb[fin]))
    if gap > slack:
        return f"biconjugate gap {gap:.3e} > {slack:.3e}"
    return None


def envelope_1d(xs, fv, lam, env, sample, huber: bool) -> Optional[str]:
    """env <= brute + 1e-15 at sampled nodes (criterion 8's oracle), and
    the Huber closed form within 1e-6 at every node for |x|."""
    for k in sample:
        brute = float(np.min(fv + (xs[k] - xs) ** 2 / (2.0 * lam)))
        if not env[k] <= brute + 1e-15:
            return f"envelope above brute force at node {int(k)}"
    if huber:
        ref = np.where(np.abs(xs) <= lam, xs ** 2 / (2.0 * lam), np.abs(xs) - lam / 2.0)
        err = float(np.max(np.abs(env - ref)))
        if err > 1e-6:
            return f"Huber deviation {err:.2e}"
    return None


def envelope_2d(x1, x2, fv, lam, env, sample) -> Optional[str]:
    """The 2-D envelope is an exact minimum over nodes: it must match the
    brute-force minimum at sampled nodes up to rounding."""
    m2 = x2.size
    for k in sample:
        i, j = divmod(int(k), m2)
        q = fv + ((x1[i] - x1)[:, None] ** 2 + (x2[j] - x2)[None, :] ** 2) / (2.0 * lam)
        brute = float(np.min(q))
        if abs(env[i, j] - brute) > 1e-12 * max(1.0, abs(brute)):
            return f"envelope differs from brute force at node {(i, j)}"
    return None


def infconv_1d(fv, gv, i0, out, sample) -> Optional[str]:
    """Plain loop minimum of f[j] + g[k - j + i0] at sampled nodes."""
    n = fv.size
    for k in sample:
        best = math.inf
        for j in range(n):
            i = int(k) - j + i0
            if 0 <= i < n:
                v = fv[j] + gv[i]
                if v < best:
                    best = v
        if out[k] != best:
            return f"inf-convolution differs from the loop minimum at node {int(k)}"
    return None


def infconv_2d(fv, gv, i0, i1, out, sample) -> Optional[str]:
    """Plain minimum of f[j] + g[k - j + i0] over the displacement lattice."""
    n0, n1 = fv.shape
    for k in sample:
        k0, k1 = divmod(int(k), n1)
        best = math.inf
        for j0 in range(n0):
            r = k0 - j0 + i0
            if not 0 <= r < n0:
                continue
            for j1 in range(n1):
                c = k1 - j1 + i1
                if 0 <= c < n1:
                    v = fv[j0, j1] + gv[r, c]
                    if v < best:
                        best = v
        if out[k0, k1] != best:
            return f"inf-convolution differs from the loop minimum at node {(k0, k1)}"
    return None


def interp_1d(xs, fv, p: float) -> float:
    """Piecewise-linear value of a 1-D grid function; +inf off its domain."""
    if not xs[0] <= p <= xs[-1]:
        return math.inf
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    i = min(int((p - xs[0]) / h), xs.size - 2)
    w = (p - xs[i]) / h
    a, b = fv[i], fv[i + 1]
    if w == 0.0:
        return float(a)
    if not (np.isfinite(a) and np.isfinite(b)):
        return math.inf
    return float((1 - w) * a + w * b)


def interp_2d(x1, x2, fv, p) -> float:
    """Bilinear value of a 2-D grid function; +inf next to +inf nodes."""
    out = []
    idx = []
    for xs, v in ((x1, p[0]), (x2, p[1])):
        if not xs[0] <= v <= xs[-1]:
            return math.inf
        h = (xs[-1] - xs[0]) / (xs.size - 1)
        i = min(int((v - xs[0]) / h), xs.size - 2)
        idx.append(i)
        out.append((v - xs[i]) / h)
    (i, j), (w0, w1) = idx, out
    c = fv[i:i + 2, j:j + 2]
    if not np.isfinite(c).all():
        return float(c[0, 0]) if w0 == 0.0 and w1 == 0.0 else math.inf
    return float((1 - w0) * (1 - w1) * c[0, 0] + (1 - w0) * w1 * c[0, 1]
                 + w0 * (1 - w1) * c[1, 0] + w0 * w1 * c[1, 1])


def fenchel_young(nodes, fv_flat, fx: float, x, y, tol: float) -> tuple[float, Optional[str]]:
    """Certificate of y in the eps-subdifferential at x:
    eps = f(x) + max_j (<y, x_j> - f_j) - <x, y> must lie in [-1e-9, tol]."""
    fstar = float(np.max(nodes @ y - fv_flat))
    eps = fx + fstar - float(np.dot(x, y))
    if not -1e-9 <= eps <= tol:
        return eps, f"Fenchel-Young certificate {eps:.3e} outside [-1e-9, {tol:.3e}]"
    return eps, None


def prox_node_min(nodes, fv_flat, fx: float, x, p, lam: float, h, envelope=None) -> Optional[str]:
    """A grid prox against the plain minimum of f_j + |x - x_j|^2 / (2 lam).

    The objective at p (and the reported envelope, if any) must not exceed
    the node minimum beyond rounding, the reported envelope must be that
    objective, and p must lie within one grid step per axis of a node
    attaining the minimum (refinement moves at most one step)."""
    obj = fv_flat + ((nodes - x[None, :]) ** 2).sum(axis=1) / (2.0 * lam)
    brute = float(np.min(obj))
    val = fx + float(((x - p) ** 2).sum()) / (2.0 * lam)
    tol = 1e-12 * max(1.0, abs(brute), abs(fx) if math.isfinite(fx) else 0.0)
    if not val <= brute + tol:
        return f"prox objective {val!r} above the node minimum {brute!r}"
    if envelope is not None and not abs(envelope - val) <= tol:
        return f"reported envelope {envelope!r} is not the objective {val!r} at the prox"
    near = nodes[obj <= brute + tol]
    if not np.any(np.all(np.abs(near - p[None, :]) <= np.asarray(h) * (1 + 1e-9), axis=1)):
        return "prox more than one grid step from the node argmin"
    return None


def prox_tolerance(h: float, width: float, dim: int, lam: float) -> float:
    """Resolution bound on the certificate of a grid prox of convex data.

    For the node argmin p, convexity along the segment from p to any node
    gives eps <= width * h / (2 lam), where width bounds |x_j - p|; the
    quadratic refinement between nodes adds at most dim * h^2 / lam.
    Smooth data stay far below it; a query that falls between a node and
    the edge of an indicator's set reaches it."""
    return width * h / (2.0 * lam) + dim * h * h / lam


def renorm_report(doc: dict, h: float) -> Optional[str]:
    """r_n <= 4^-n C + 10 h at every step of the averaging iteration."""
    C = float(doc["C"])
    for rec in doc["iterations"]:
        n, r = int(rec["n"]), decode(rec["r_n"])
        if not r <= 4.0 ** (-n) * C + 10.0 * h:
            return f"sandwich bound fails at step {n}: r={r:.3e}"
    return None


def coupon_forms(x_text: str, doc: dict, perm_exact, ie_exact) -> Optional[str]:
    """perm == ie exactly over Fractions of the inputs, the CLI's float
    forms agree with that value, and |integral - ie| <= 1e-8."""
    xs = tuple(Fraction(v) for v in x_text.split(","))
    exact = perm_exact(xs)
    if exact != ie_exact(xs):
        return "perm and ie differ over Fractions"
    ref = float(exact)
    for form in ("perm", "ie"):
        if abs(decode(doc[form]) - ref) > 1e-12 * ref:
            return f"{form} form {doc[form]} differs from exact {ref!r}"
    if abs(decode(doc["integral"]) - decode(doc["ie"])) > 1e-8:
        return "integral form differs from ie by more than 1e-8"
    return None


def coupon_probe(doc: dict) -> Optional[str]:
    """Criterion 16's eigenvalue bounds on the Hessian probe."""
    probe = doc["probe"]
    if not decode(probe["min_hessian_eig"]) >= -1e-5:
        return f"min Hessian eigenvalue {probe['min_hessian_eig']} < -1e-5"
    if not decode(probe["max_inv_hessian_eig"]) <= 1e-5:
        return f"max 1/p Hessian eigenvalue {probe['max_inv_hessian_eig']} > 1e-5"
    return None
