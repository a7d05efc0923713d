"""A seeded replay corpus for the conjugate kernel, the direct
inf-convolution, the point queries and the norm averaging, and the
digests of their outputs.

    PYTHONPATH=src python tests/corpus.py          # compare with the file
    PYTHONPATH=src python tests/corpus.py --write  # regenerate the file

The corpus is a fixed list of small inputs built from fixed seeds:
collinear runs with rounding noise and exact ties, one-decimal slopes on
one-decimal dual grids, large constant offsets (both put hull slopes within
rounding of dual nodes), ±inf patches, signed zeros, lines with no finite
value, float-limit values, 2-D grids whose rows mix full hulls and popping
lines, and Moreau envelopes at lam in {0.5, 1, 2}.  Every input runs with
the kernel's block size at its default and at a small value, so that a
block holds a few lines.

The direct inf-convolution runs on 1-D and 2-D grids whose zero node may
sit anywhere, with one-decimal values (sums tie exactly), -0.0, +inf
patches and whole +inf rows and columns, on convex pairs shaped like the
benchmark's (a separable convex function plus a correlated quadratic,
where the bounds prune most pairs), and past a patched pair cap.  Each
call runs with the tile size `_TILE_ELEMS` at its default and at a small
value, so that a tile holds a few x nodes.

The point queries run once, at the default block size: `prox`, `resolvent`
and `yosida` on convex 1-D and 2-D grids (among them c + |x| with
constant offsets c from 1e6 to 1e17, where the float objective loses the
quadratic), and 2-D `fenchel_duality_gap`,
`fitzpatrick` and `subdifferential`, each entry holding its outputs or
its refusal.  The coupon probe is not digested: its Hessians come from
matrix products and LAPACK's `eigvalsh`, whose bits depend on the BLAS
build and on the kernel it selects for the CPU.

The norm averaging runs once: `init_pair` and three `asplund_step` calls
from it for (l1norm, l2norm) and (l2norm, linfnorm) on 21^2 and 31^2
grids over [-4, 4]^2, each entry holding the pair's p and q values, n, C
and the swap flag; then the refusals of `init_pair`, `pair_from_gridfns`
and `asplund_step` (a 1-D, even or asymmetric grid, a non-norm atom or
input, an order that fails, a NaN slack).

Each entry of `kernel_digests.json` is the SHA-256 of the bytes of one
function's outputs over the corpus, in order: `conjugate` values and argmax
in 1-D and 2-D, `biconjugate`, `moreau_envelope`, `inf_convolution` values
and argmin in 1-D and 2-D, the point queries, the norm pairs, the type and
message of
every error raised, and the work count of every `_budget` call (the
rounding windows' node counts).  The bytes are numpy's, so the file records
the numpy version it was made with; on another version the comparison is
not made, and the tier-1 test that runs it fails and says so.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from convexdesk import fenchel
from convexdesk.atoms import FnAtom, sample
from convexdesk.errors import ConvexDeskError
from convexdesk.fenchel import (biconjugate, conjugate, fenchel_duality_gap, inf_convolution,
                                subdifferential)
from convexdesk.grids import Grid, GridFn
from convexdesk.monotone import OperatorGraph, fitzpatrick, resolvent, yosida
from convexdesk.moreau import moreau_envelope, prox
from convexdesk.renorm import NormPair, asplund_step, init_pair, pair_from_gridfns

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel_digests.json")
BLOCKS = (fenchel._BLOCK_ELEMS, 96)  # the default, and a few lines a block
TILES = (fenchel._TILE_ELEMS, 300)  # the default, and a few x nodes a tile
LAMS = (0.5, 1.0, 2.0)
NEAR_LIMIT = [1e308, -1e308, 1.7e308, -1.7e308, 5e307, 0.0, -0.0, 1.0, -3.0, math.inf]


def _tenths(rng, size, lo=-20, hi=20):
    return rng.integers(lo, hi + 1, size=size) / 10


def _lines(rng):
    """(f, dual grid) pairs in 1-D."""
    out = []
    for _ in range(80):  # collinear, kinked and max-of-lines runs, one-decimal slopes
        n = int(rng.integers(2, 300))
        g = Grid.line(-1, 1, n)
        xs = g.coords(0)
        s, c = _tenths(rng, 4), _tenths(rng, 4, -9, 9)
        kind = int(rng.integers(0, 3))
        vals = [s[0] * xs + c[0], np.where(xs < c[0], s[0] * (xs - c[0]), s[1] * (xs - c[0])),
                np.max(s[:, None] * xs + c[:, None], axis=0)][kind]
        lo, hi = int(10 * s.min()) - int(rng.integers(0, 6)), int(10 * s.max()) + int(rng.integers(1, 6))
        out.append((GridFn(g, vals), Grid.line(lo / 10, hi / 10, hi - lo + 1)))
    for _ in range(40):  # exact ties: integer data on integer grids
        n = int(rng.integers(2, 40))
        g = Grid.line(-(n - 1), n - 1, n)  # nodes 2 apart
        vals = np.abs(rng.integers(-3, 4) * g.coords(0) + 2 * rng.integers(-3, 4))
        out.append((GridFn(g, vals), Grid.line(-4, 4, 9)))
    for _ in range(60):  # large constant offsets: windows over many dual nodes
        n = int(rng.integers(3, 400))
        g = Grid.line(-1, 1, n)
        xs = g.coords(0)
        big = 10.0 ** int(rng.integers(4, 13))
        vals = big + (xs**2 if rng.integers(0, 2) else _tenths(rng, 1)[0] * xs)
        out.append((GridFn(g, vals), Grid.line(-2, 2, int(rng.integers(2, 400)))))
    for _ in range(20):  # the whole dual grid within rounding of one hull slope
        n = int(rng.integers(2, 60))
        out.append((GridFn(Grid.line(-1, 1, n), np.zeros(n)),
                    Grid.line(-1e-13, 1e-13, int(rng.integers(2, 60)))))
    for _ in range(80):  # popping lines with +inf patches
        n = int(rng.integers(3, 300))
        g = Grid.line(-3, 3, n)
        vals = rng.normal(size=n) if rng.integers(0, 2) else np.cumsum(np.sort(rng.normal(size=n)))
        for _ in range(int(rng.integers(0, 3))):
            a = int(rng.integers(0, n))
            vals[a : a + int(rng.integers(1, n // 3 + 2))] = np.inf
        if not np.isfinite(vals).any():
            vals[n // 2] = 0.0
        out.append((GridFn(g, vals), Grid.line(-4, 4, int(rng.integers(2, 120)))))
    for _ in range(40):  # signed zeros on dual grids through 0
        n = int(rng.integers(2, 8))
        vals = rng.choice([0.0, -0.0, math.inf], size=n)
        vals[int(rng.integers(0, n))] = rng.choice([0.0, -0.0])
        out.append((GridFn(Grid.line(-1, 1, n), vals), Grid.line(-1, 1, 2 * int(rng.integers(1, 5)) + 1)))
    for _ in range(60):  # values at the float limit
        n = int(rng.integers(2, 12))
        vals = rng.choice(NEAR_LIMIT, size=n)
        if not np.isfinite(vals).any():
            vals[0] = -0.0
        out.append((GridFn(Grid.line(-1, 1, n), vals), Grid.line(-2, 1, int(rng.integers(2, 12)))))
    for _ in range(20):  # zippers: one low end node pops a neighbour a round
        n = int(rng.integers(3, 500))
        g = Grid.line(0, 1, n)
        vals = g.coords(0) ** 2
        vals[-1 if rng.integers(0, 2) else 0] = -1e3
        out.append((GridFn(g, vals), Grid.line(-2e3, 2e3, 41)))
    return out


def _boxes(rng):
    """(f, dual grid) pairs in 2-D whose rows mix convex rows (every node a
    hull vertex), popping rows, one-decimal planes, +inf rows and patches."""
    out = []
    for _ in range(150):
        n1, n2 = (int(v) for v in rng.integers(2, 24, size=2))
        g = Grid.box((-1, 1, n1), (-2, 2, n2))
        x1, x2 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
        kind = int(rng.integers(0, 4))
        if kind == 0:  # convex and popping rows
            vals = np.cumsum(np.sort(rng.normal(size=(n1, n2)), axis=1), axis=1)
            pop = rng.random(n1) < 0.5
            vals[pop] = rng.normal(size=(int(pop.sum()), n2))
        elif kind == 1:  # one-decimal planes and kinks: rounding ties
            s = _tenths(rng, 4)
            vals = np.maximum(s[0] * x1 + s[1] * x2, s[2] * x1 + s[3] * x2 + _tenths(rng, 1)[0])
        elif kind == 2:  # a large constant offset
            vals = 10.0 ** int(rng.integers(4, 12)) + x1**2 + _tenths(rng, 1)[0] * x2
        else:
            vals = x1**2 + np.abs(x2)
        for _ in range(int(rng.integers(0, 3))):
            a = int(rng.integers(0, n1))
            vals[a : a + int(rng.integers(1, 4)), : int(rng.integers(1, n2 + 1))] = np.inf
        if not np.isfinite(vals).any():
            vals[0, 0] = 0.0
        m1, m2 = (int(v) for v in rng.integers(2, 24, size=2))
        out.append((GridFn(g, vals), Grid.box((-2, 2, m1), (-2.5, 2.5, m2))))
    for _ in range(20):  # values at the float limit
        n1, n2 = (int(v) for v in rng.integers(2, 5, size=2))
        vals = rng.choice(NEAR_LIMIT, size=(n1, n2))
        if not np.isfinite(vals).any():
            vals[0, 0] = 0.0
        out.append((GridFn(Grid.box((-1, 1, n1), (-1, 1, n2)), vals),
                    Grid.box((-1, 1, int(rng.integers(2, 5))), (-2, 1, int(rng.integers(2, 5))))))
    return out


def _convex(rng, g):
    """A convex function on the 1-D or 2-D grid g, large offsets among them."""
    x = np.meshgrid(*(g.coords(ax) for ax in range(g.dim)), indexing="ij")
    a = _tenths(rng, g.dim, -10, 10)
    kind = int(rng.integers(0, 4))
    if kind == 0:  # a shifted norm, l1 or l2
        d = [xa - aa for xa, aa in zip(x, a)]
        return np.hypot(*d) if g.dim == 2 and rng.integers(0, 2) else sum(np.abs(v) for v in d)
    if kind == 1:  # a quadratic with a linear term
        return sum(s * v * v + aa * v for v, aa, s in zip(x, a, _tenths(rng, g.dim, 1, 30)))
    if kind == 2:  # a max of one-decimal planes
        s = _tenths(rng, (4, g.dim))
        return np.max([sum(si * v for si, v in zip(row, x)) for row in s], axis=0)
    return 10.0 ** int(rng.integers(4, 17)) + sum(np.abs(v) for v in x)


def _queries(rng):
    """(digest key, call) of the point queries, in corpus order."""
    inputs = []
    for c in (0.0, 1e6, 1e12, 1e14, 1e15, 1e16, 1e17):  # prox of c + |x| at 2.5 is 1.5
        g = Grid.line(-4, 4, 801)
        inputs.append((GridFn(g, c + np.abs(g.coords(0))), np.array([2.5]), 1.0))
    inputs.append((GridFn(Grid.line(-1, 1, 5), np.full(5, 1e17)), np.array([0.3]), 1.0))  # prox 0.3
    for _ in range(60):
        g = Grid.line(-3, 3, int(rng.integers(3, 400)))
        inputs.append((GridFn(g, _convex(rng, g)), rng.uniform(-3, 3, 1), float(rng.choice(LAMS + (0.7,)))))
    for c in (1e12, 1e15):
        g = Grid.box((-2, 2, 41), (-2, 2, 41))
        x1, x2 = np.meshgrid(g.coords(0), g.coords(1), indexing="ij")
        inputs.append((GridFn(g, c + np.hypot(x1, x2)), np.array([1.5, -0.5]), 1.0))
    for _ in range(60):
        n1, n2 = (int(v) for v in rng.integers(3, 82, size=2))
        g = Grid.box((-2, 2, n1), (-2, 2, n2))
        inputs.append((GridFn(g, _convex(rng, g)), rng.uniform(-2, 2, 2), float(rng.choice(LAMS + (0.7,)))))
    for name, fn in (("prox", prox), ("resolvent", resolvent), ("yosida", yosida)):
        for f, z, lam in inputs:
            yield f"{name}_{f.grid.dim}d", lambda fn=fn, f=f, z=z, lam=lam: fn(f, lam, z)
    tees = [np.array([[1.0, 0.3], [-0.7, 1.1]])] + [_tenths(rng, (2, 2)) for _ in range(9)]
    for T in tees:  # f on [-1, 1]^2 and |T| <= 2: T x stays in g's box
        n, m = (int(v) for v in rng.integers(5, 62, size=2))
        gf, gg = Grid.box((-1, 1, n), (-1, 1, n)), Grid.box((-4, 4, m), (-4, 4, m))
        f, g = GridFn(gf, _convex(rng, gf)), GridFn(gg, _convex(rng, gg))
        yield "fenchel_duality_gap_2d", lambda f=f, g=g, T=T: fenchel_duality_gap(
            f, g, T, Grid.box((-6, 6, 41), (-6, 6, 41)), Grid.box((-6, 6, 41), (-6, 6, 41)))
    for _ in range(20):
        k = int(rng.integers(1, 60))
        xs = rng.normal(size=(k, 2))
        G = OperatorGraph(xs, xs @ _tenths(rng, (2, 2)) + rng.normal(scale=0.1, size=(k, 2)))
        for q in rng.normal(size=(5, 2, 2)):
            yield "fitzpatrick_2d", lambda G=G, q=q: fitzpatrick(G, (q[0], q[1]))
    for _ in range(20):
        n1, n2 = (int(v) for v in rng.integers(5, 42, size=2))
        g = Grid.box((-2, 2, n1), (-2, 2, n2))
        f, i = GridFn(g, _convex(rng, g)), (int(rng.integers(1, n1 - 1)), int(rng.integers(1, n2 - 1)))
        yield "subdifferential_2d", lambda f=f, i=i: subdifferential(f, i)


def _refusals():
    """Calls that raise: improper input, mismatched grids, rounding windows
    past a patched cap, a bad lam, a nonconvex envelope input."""
    g = Grid.line(-1, 1, 5)
    calls = [
        lambda: conjugate(GridFn(g, [math.inf] * 5), g),
        lambda: conjugate(GridFn(g, np.zeros(5)), Grid.box((-1, 1, 3), (-1, 1, 3))),
        lambda: moreau_envelope(GridFn(g, np.zeros(5)), 0.0),
        lambda: moreau_envelope(GridFn(g, [0.0, 1.0, 0.0, 1.0, 0.0]), 1.0),
    ]
    for cap in (0, 50, 999, 2499):
        for f, dual in ((GridFn(Grid.line(-1, 1, 50), np.zeros(50)), Grid.line(-1e-13, 1e-13, 50)),
                        (GridFn(Grid.box((-1, 1, 9), (-1, 1, 7)), np.zeros((9, 7))),
                         Grid.box((-1e-13, 1e-13, 8), (-1e-13, 1e-13, 6)))):
            calls.append(lambda f=f, dual=dual, cap=cap: _capped(cap, conjugate, f, dual))
    return calls


def _offcentre(rng, n):
    """An axis of n nodes 0.5 apart with 0 at a random node."""
    i0 = int(rng.integers(0, n))
    return (-0.5 * i0, 0.5 * (n - 1 - i0), n)


def _tied(rng, shape):
    """One-decimal values with -0.0 and +inf cells, a +inf block, and in
    2-D whole +inf rows and columns; some value stays finite."""
    v = _tenths(rng, shape, -9, 9)
    v[rng.random(shape) < 0.1] = -0.0
    v[rng.random(shape) < 0.1] = math.inf
    lo = [int(rng.integers(0, n + 1)) for n in shape]
    v[tuple(slice(a, int(rng.integers(a, n + 1))) for a, n in zip(lo, shape))] = math.inf
    if len(shape) == 2:
        v[rng.integers(shape[0], size=int(rng.integers(0, 3)))] = math.inf
        v[:, rng.integers(shape[1], size=int(rng.integers(0, 3)))] = math.inf
    if not np.isfinite(v).any():
        v.flat[int(rng.integers(0, v.size))] = -0.0
    return v


def _convex_pair(rng, g):
    """A separable convex function plus a correlated quadratic, and another
    correlated quadratic: the benchmark's 2-D inf-convolution inputs (in
    1-D, a convex sequence plus a quadratic, and a quadratic)."""
    x = np.meshgrid(*(g.coords(ax) for ax in range(g.dim)), indexing="ij")

    def quadratic():
        L = rng.normal(size=(g.dim, g.dim))
        A = L @ L.T + 0.2 * np.eye(g.dim)
        b = rng.normal(size=g.dim)
        return sum(0.5 * A[i, j] * x[i] * x[j] + (b[i] * x[i] if i == j else 0.0)
                   for i in range(g.dim) for j in range(g.dim))

    f = quadratic()
    for ax, n in enumerate(g.shape):
        conv = np.concatenate([[0.0], np.cumsum(np.sort(rng.normal(size=n - 1)))])
        f = f + conv.reshape([-1 if a == ax else 1 for a in range(g.dim)])
    return f, quadratic()


def _infconvs(rng):
    """(f, g) pairs on one grid, 1-D then 2-D."""
    out = []
    for _ in range(40):  # ties, signed zeros, +inf patches, the zero node anywhere
        g = Grid((_offcentre(rng, int(rng.integers(2, 200))),))
        out.append((GridFn(g, _tied(rng, g.shape)), GridFn(g, _tied(rng, g.shape))))
    for _ in range(10):
        n = int(rng.integers(2, 400))
        g = Grid.line(-2, 2, 2 * (n // 2) + 1)
        out.append(tuple(GridFn(g, v) for v in _convex_pair(rng, g)))
    for _ in range(60):
        g = Grid(tuple(_offcentre(rng, int(rng.integers(2, 16))) for _ in range(2)))
        out.append((GridFn(g, _tied(rng, g.shape)), GridFn(g, _tied(rng, g.shape))))
    for _ in range(15):  # small rectangles: the bounds prune most pairs
        n = 2 * int(rng.integers(4, 17)) + 1
        g = Grid.box((-2, 2, n), (-2, 2, n))
        out.append(tuple(GridFn(g, v) for v in _convex_pair(rng, g)))
    for _ in range(10):  # separable integer values: sums tie their bounds
        g = Grid(tuple(_offcentre(rng, int(rng.integers(2, 12))) for _ in range(2)))
        a, b = (rng.integers(-2, 3, size=n).astype(float) for n in g.shape)
        out.append((GridFn(g, a[:, None] + b), GridFn(g, _tied(rng, g.shape))))
    return out


def _infconv_calls():
    """(digest key, call) of the direct inf-convolution, in corpus order,
    then its refusals: at patched pair caps below and at each grid's
    count (the calls at the count succeed), and on improper or mismatched
    input."""
    for f, g in _infconvs(np.random.default_rng(20261022)):
        yield f"inf_convolution_{f.grid.dim}d", lambda f=f, g=g: inf_convolution(f, g)
    line, box = Grid.line(-1, 2, 31), Grid.box((-1, 1, 9), (-0.5, 1, 7))
    for grid in (line, box):
        f = GridFn(grid, np.zeros(grid.shape))
        for cap in (0, 100, 695, 696, 2195, 2196):  # 696 pairs on the line, 2196 on the box
            yield "inf_convolution_refusals", lambda f=f, cap=cap: _capped(cap, inf_convolution, f, f)
        inf = GridFn(grid, np.full(grid.shape, math.inf))
        yield "inf_convolution_refusals", lambda f=f, inf=inf: inf_convolution(f, inf)
    yield "inf_convolution_refusals", lambda: inf_convolution(GridFn(line, np.zeros(31)),
                                                                GridFn(Grid.line(-1, 2, 16), np.zeros(16)))


def _renorm_calls():
    """(digest key, call) of the norm averaging: per pair of norms and grid,
    init_pair and the pairs after one, two and three asplund_steps from
    it; then the refusals."""
    l1, l2, linf = FnAtom("l1norm"), FnAtom("l2norm"), FnAtom("linfnorm")
    for a, b in ((l1, l2), (l2, linf)):
        for n in (21, 31):
            start = functools.partial(init_pair, a, b, Grid.box((-4, 4, n), (-4, 4, n)))
            yield "renorm_init", start
            for k in (1, 2, 3):
                yield "renorm_step", lambda start=start, k=k: functools.reduce(
                    lambda pair, _: asplund_step(pair), range(k), start())
    g = Grid.box((-4, 4, 21), (-4, 4, 21))
    bad = [Grid.line(-4, 4, 21), Grid.box((-4, 4, 20), (-4, 4, 21)), Grid.box((-4, 4, 21), (-3, 5, 21))]
    calls = [functools.partial(init_pair, l1, l2, grid) for grid in bad]
    calls += [lambda grid=grid: pair_from_gridfns(*[GridFn(grid, np.zeros(grid.shape))] * 2, 1.0) for grid in bad]
    calls += [
        lambda: init_pair(FnAtom("sqnorm2"), l2, g),
        lambda: pair_from_gridfns(GridFn(g, np.ones(g.shape)), sample(l2, g), 1.0),  # not 0 at 0
        lambda: pair_from_gridfns(sample(l2, g), sample(l1, g), 1.0),  # q0 > p0 off the axes
        lambda: pair_from_gridfns(sample(l1, g), sample(linf, g), 0.5),  # p0 > 1.5 q0 on the diagonal
        lambda: asplund_step(init_pair(l1, l2, g), math.nan),
    ]
    for call in calls:
        yield "renorm_refusals", call


def _capped(cap, fn, *args):
    with _patched(MAX_DIRECT_PAIRS=cap):
        return fn(*args)


@contextlib.contextmanager
def _patched(**attrs):
    old = {k: getattr(fenchel, k) for k in attrs}
    for k, v in attrs.items():
        setattr(fenchel, k, v)
    try:
        yield
    finally:
        for k, v in old.items():
            setattr(fenchel, k, v)


def _calls():
    """(digest key, call) in corpus order."""
    rng = np.random.default_rng(20261020)
    lines, boxes, refusals = _lines(rng), _boxes(rng), _refusals()
    for f, dual in lines:
        yield "conjugate_1d", lambda f=f, dual=dual: conjugate(f, dual)
    for f, dual in boxes:
        yield "conjugate_2d", lambda f=f, dual=dual: conjugate(f, dual)
    for f, dual in lines[::3] + boxes[::3]:
        yield "biconjugate", lambda f=f, dual=dual: biconjugate(f, dual)
    for lam in LAMS:
        for f, _ in lines[::2] + boxes[::2]:
            yield "moreau_envelope", lambda f=f, lam=lam: moreau_envelope(f, lam, check_convexity=False)
    for call in refusals:
        yield "refusals", call


def _bytes(out) -> bytes:
    if isinstance(out, fenchel.ConjugateResult):
        return out.dual.values.tobytes() + out.argmax.tobytes()
    if isinstance(out, fenchel.InfConvResult):
        return out.out.values.tobytes() + out.argmin.tobytes()
    if isinstance(out, GridFn):
        return out.values.tobytes()
    if isinstance(out, np.ndarray):  # yosida
        return out.tobytes()
    if isinstance(out, NormPair):
        return out.p.values.tobytes() + out.q.values.tobytes() + np.array([out.n, out.C, out.swapped]).tobytes()
    if isinstance(out, fenchel.SubdifferentialSet):
        return np.array([*out.x, out.epsilon]).tobytes() + out.slopes.tobytes()
    # ProxResult, ResolventResult, DualityGapResult, FitzpatrickEval: their floats in field order
    fields = [getattr(out, k) for k in out.__dataclass_fields__ if k != "query"]
    return np.hstack([np.asarray(v, dtype=float).ravel() for v in fields]).tobytes()


def _record(hashes: dict, key: str, call, refusals: str) -> None:
    try:
        data = _bytes(call())
    except ConvexDeskError as e:
        data, key = f"{type(e).__name__}: {e}\n".encode(), refusals
    hashes.setdefault(key, hashlib.sha256()).update(data)


def digests() -> dict:
    """SHA-256 per entry over the corpus: the kernel's at every block size in
    BLOCKS, the inf-convolution's at every tile size in TILES, the point
    queries' and the norm averaging's once."""
    hashes = {}
    budget = fenchel._budget

    def recorded(work, needs):
        hashes[f"budget@{block}"].update(f"{work} {needs}\n".encode())
        return budget(work, needs)

    for block in BLOCKS:
        hashes[f"budget@{block}"] = hashlib.sha256()
        with _patched(_BLOCK_ELEMS=block, _budget=recorded):
            for key, call in _calls():
                _record(hashes, f"{key}@{block}", call, f"refusals@{block}")
    for tile in TILES:
        with _patched(_TILE_ELEMS=tile):
            for key, call in _infconv_calls():
                _record(hashes, f"{key}@{tile}", call, f"inf_convolution_refusals@{tile}")
    for key, call in _queries(np.random.default_rng(20261021)):
        _record(hashes, key, call, key)
    for key, call in _renorm_calls():
        _record(hashes, key, call, "renorm_refusals")
    return {k: h.hexdigest() for k, h in sorted(hashes.items())}


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def main(argv) -> int:
    if argv == ["--write"]:
        with open(PATH, "w") as fh:
            json.dump({"numpy": np.__version__, "digests": digests()}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    stored = load()
    if stored["numpy"] != np.__version__:
        print(f"digests were made with numpy {stored['numpy']}, this is {np.__version__}")
        return 1
    now = digests()
    changed = sorted(k for k in now.keys() | stored["digests"].keys() if now.get(k) != stored["digests"].get(k))
    print("\n".join(changed) or "all digests match")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
