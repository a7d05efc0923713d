"""A seeded replay corpus for the conjugate kernel, and the digests of its
outputs.

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

Each entry of `kernel_digests.json` is the SHA-256 of the bytes of one
function's outputs over the corpus, in order: `conjugate` values and argmax
in 1-D and 2-D, `biconjugate`, `moreau_envelope`, the type and message of
every error raised, and the work count of every `_budget` call (the
rounding windows' node counts).  The bytes are numpy's, so the file records
the numpy version it was made with; on another version the comparison is
not made, and the tier-1 test that runs it fails and says so.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys

import numpy as np

from convexdesk import fenchel
from convexdesk.errors import ConvexDeskError
from convexdesk.fenchel import biconjugate, conjugate
from convexdesk.grids import Grid, GridFn
from convexdesk.moreau import moreau_envelope

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel_digests.json")
BLOCKS = (fenchel._BLOCK_ELEMS, 96)  # the default, and a few lines a block
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
    return out.values.tobytes()


def digests() -> dict:
    """SHA-256 per entry over the corpus, at every block size in BLOCKS."""
    hashes = {}
    budget = fenchel._budget

    def recorded(work, needs):
        hashes[f"budget@{block}"].update(f"{work} {needs}\n".encode())
        return budget(work, needs)

    for block in BLOCKS:
        hashes[f"budget@{block}"] = hashlib.sha256()
        with _patched(_BLOCK_ELEMS=block, _budget=recorded):
            for key, call in _calls():
                try:
                    data, key = _bytes(call()), f"{key}@{block}"
                except ConvexDeskError as e:
                    data, key = f"{type(e).__name__}: {e}\n".encode(), f"refusals@{block}"
                hashes.setdefault(key, hashlib.sha256()).update(data)
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
