"""The four workloads: seeded inputs, a fixed job list, and a check per job.

Every job runs in the benchmark's own process, one after another.  The
library is reached through module attributes looked up at call time
(`cd.cli.main`, `cd.fenchel.conjugate`, ...), so the traced run's
wrappers see every call.  Inputs depend only on the seed; the library
sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import oracles as orc


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object, Counter], Optional[str]]
    # An adversarial collinear line whose conjugate disagrees with the
    # exhaustive oracle is the fast kernel's known defect (ROADMAP item 2);
    # it counts against pass_ratio, not in the run's `failed`.
    known_defect: bool = False
    argv: Optional[list[str]] = None  # CLI jobs only


@dataclass(frozen=True)
class CliResult:
    rc: int


@dataclass
class Workload:
    jobs: list[Job]
    # metric -> (layer, smaller size, larger size) for the size-doubling check
    exponents: dict = field(default_factory=dict)
    # job kinds the tracemalloc pass runs
    memory_kinds: frozenset = frozenset()
    # scale latencies by the calibration kernel (harness.Clock), which does
    # the kind of work CLI jobs and short-line loops do
    calibrated: bool = True


@dataclass
class Context:
    cd: object  # the imported convexdesk package
    seed: int
    workdir: str
    tiny: bool = False

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def cli_run(cd, argv: list[str]) -> CliResult:
    """One CLI job in this process; its console output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return CliResult(cd.cli.main(argv))


def _cli_job(ctx: Context, kind: str, argv: list[str],
             check: Callable[[Counter], Optional[str]], known_defect: bool = False) -> Job:
    return Job(kind, lambda: cli_run(ctx.cd, argv),
               lambda _out, stats: check(stats), known_defect, argv)


def random_convex(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Cumulative sums of sorted increments: a convex sequence."""
    steps = np.sort(rng.normal(scale=scale, size=n - 1))
    return rng.normal() + np.concatenate([[0.0], np.cumsum(steps)])


def _spec(lo: float, hi: float, n: int) -> str:
    return f"{lo!r}:{hi!r}:{n}"


def _sample_idx(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    return np.arange(n) if n <= k else np.sort(rng.choice(n, size=k, replace=False))


# ---- line-1d ---------------------------------------------------------------


def _prox_1d(xs, fv, lam, xq, p, reported_eps, envelope=None) -> Optional[str]:
    """Check a 1-D prox p of the query xq against the node minimum, then
    recompute the CLI's Fenchel-Young certificate, require it to match the
    reported one and to stay within the grid's resolution scale."""
    fx = orc.interp_1d(xs, fv, p)
    why = orc.prox_node_min(xs[:, None], fv, fx, np.array([xq]), np.array([p]), lam,
                            xs[1] - xs[0], envelope)
    if why:
        return why
    tol = orc.prox_tolerance(xs[1] - xs[0], xs[-1] - xs[0], 1, lam)
    eps, why = orc.fenchel_young(xs[:, None], fv, fx, np.array([p]),
                                 np.array([(xq - p) / lam]), tol)
    if why is None and abs(eps - orc.decode(reported_eps)) > 1e-12:
        why = f"reported certificate {reported_eps} differs from recomputed {eps!r}"
    return why


def _adversarial(rng: np.random.Generator, kind: str, xs: np.ndarray) -> np.ndarray:
    """Linear, kinked or max-of-lines data with one-decimal slopes."""
    k = {"linear": 1, "kinked": 2, "maxlines": int(rng.integers(3, 6))}[kind]
    a = rng.integers(-20, 21, size=k) / 10.0
    b = np.zeros(k) if kind == "linear" else rng.integers(-10, 11, size=k) / 10.0
    return np.max(a[:, None] * xs[None, :] + b[:, None], axis=0)


def line_1d(ctx: Context) -> Workload:
    cd, rng = ctx.cd, np.random.default_rng(ctx.seed)
    t = ctx.tiny
    jobs: list[Job] = []
    names = itertools.count()

    def out(ext: str) -> str:
        return ctx.path(f"out{next(names)}.{ext}")

    def write_in(spec, values) -> str:
        p = out("in.json")
        cd.fileio.write_gridfn_json(cd.grids.GridFn(cd.grids.Grid((spec,)), values), p)
        return p

    def conj_job(kind, xs, fv, m, argv):
        o = out("json")
        smp = _sample_idx(rng, m, 64)

        def check(stats):
            doc = orc.read_json(o)
            (ax,) = doc["axes"]
            ys = orc.coords(ax["lo"], ax["hi"], ax["n"])
            vals = np.asarray([orc.decode(v) for v in doc["values"]])
            arg = np.asarray(doc["argmax"], dtype=np.int64)
            return orc.conjugate_1d(xs, fv, ys, vals, arg, smp, stats)

        jobs.append(_cli_job(ctx, kind, argv + ["--out", o], check,
                             known_defect=kind == "conjugate-adversarial"))

    def biconj_job(xs, fv, slack, argv):
        o = out("json")
        jobs.append(_cli_job(ctx, "biconjugate", argv + ["--out", o],
                             lambda stats: orc.biconjugate(fv, orc.read_values(o), slack)))

    def slack_for(xs, fv, ys):
        """Gap bound (dy/2) * width when the dual grid covers every
        difference quotient of convex data, else only the minorant test."""
        d = np.diff(fv) / (xs[1] - xs[0])
        if ys[0] <= d.min() and ys[-1] >= d.max():
            scale = max(1.0, float(np.max(np.abs(fv))))
            return 0.5 * (ys[1] - ys[0]) * (xs[-1] - xs[0]) + 1e-9 * scale
        return np.inf

    def atom_values(tag, params, spec):
        atom = cd.atoms.FnAtom(tag, tuple(params))
        return cd.atoms.sample(atom, cd.grids.Grid((spec,))).values

    # README-shaped conjugates and biconjugates of catalog atoms
    catalog = [
        ("exp", (), (-10.0, 3.0, 2001), (-1.0, 5.0, 601)),
        ("power", (2.0,), (-5.0, 5.0, 1001), (-3.0, 3.0, 601)),
        ("power", (1.5,), (-4.0, 4.0, 1601), (-3.0, 3.0, 601)),
        ("hypot1", (), (-5.0, 5.0, 2001), (-1.0, 1.0, 401)),
        ("negsqrt_circle", (), (-1.0, 1.0, 2001), (-5.0, 5.0, 1001)),
    ]
    for tag, params, g, dg in catalog:
        xs, fv = orc.coords(*g), atom_values(tag, params, g)
        argv = ["conjugate", "--atom", tag, "--grid", _spec(*g), "--dual", _spec(*dg)]
        if params:
            argv += ["--params", ",".join(repr(p) for p in params)]
        conj_job("conjugate", xs, fv, dg[2], argv)
    for tag, params, g, dg in [("power", (2.0,), (-5.0, 5.0, 1001), (-6.0, 6.0, 1201)),
                               ("exp", (), (-4.0, 2.0, 1201), (0.0, 8.0, 801))]:
        xs, fv, ys = orc.coords(*g), atom_values(tag, params, g), orc.coords(*dg)
        argv = ["biconjugate", "--atom", tag, "--grid", _spec(*g), "--dual", _spec(*dg)]
        if params:
            argv += ["--params", ",".join(repr(p) for p in params)]
        biconj_job(xs, fv, slack_for(xs, fv, ys), argv)

    # long random convex lines from --in files, n = m
    for n in ((500, 1000) if t else (50_000, 100_000)):
        g = (-5.0, 5.0, n)
        xs, fv = orc.coords(*g), random_convex(rng, n, scale=1e-3)
        path = write_in(g, fv)
        d = np.diff(fv) / (xs[1] - xs[0])
        ys = orc.coords(float(d.min()), float(d.max()), n)
        conj_job("conjugate", xs, fv, n, ["conjugate", "--in", path])
        biconj_job(xs, fv, slack_for(xs, fv, ys), ["biconjugate", "--in", path])

    # adversarial lines on dual grids holding their one-decimal slopes
    dual = (-3.0, 3.0, 61)
    for n, count in (((101, 6), (1001, 6)) if t else ((1001, 12), (10001, 12))):
        g = (-1.0, 1.0, n)
        xs = orc.coords(*g)
        for i in range(count):
            fv = _adversarial(rng, ("linear", "kinked", "maxlines")[i % 3], xs)
            path = write_in(g, fv)
            conj_job("conjugate-adversarial", xs, fv, dual[2],
                     ["conjugate", "--in", path, "--dual", _spec(*dual)])

    # Moreau envelopes: |x| against the Huber closed form, random convex data
    for n in ((151, 301) if t else (1501, 3001)):
        g = (-3.0, 3.0, n)
        xs = orc.coords(*g)
        smp = _sample_idx(rng, n, 64)
        fr = random_convex(rng, n)
        for fv, src, lam in (
            (np.abs(xs), ["--atom", "abs", "--grid", _spec(*g)], 1.0),
            (fr, ["--in", write_in(g, fr)], float(rng.choice([0.5, 1.0, 2.0]))),
        ):
            o = out("json")
            huber = src[0] == "--atom"
            jobs.append(_cli_job(
                ctx, "envelope", ["envelope", *src, "--lambda", repr(lam), "--out", o],
                lambda stats, xs=xs, fv=fv, lam=lam, o=o, smp=smp, huber=huber:
                    orc.envelope_1d(xs, fv, lam, orc.read_values(o), smp, huber)))

    # prox and resolvent batches with Fenchel-Young certificates
    prox_atoms = [("abs", (), (-4.0, 4.0, 801)), ("power", (2.0,), (-6.0, 6.0, 1201)),
                  ("indicator", (-1.0, 1.0), (-4.0, 4.0, 801)), ("exp", (), (-6.0, 2.0, 1601))]
    for i in range(4 if t else 120):
        tag, params, g = prox_atoms[i % len(prox_atoms)]
        xs, fv = orc.coords(*g), atom_values(tag, params, g)
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        xq = float(np.round(rng.uniform(g[0] / 2, g[1] / 2), 3))
        o = out("json")
        argv = ["prox", "--atom", tag, "--grid", _spec(*g), "--lambda", repr(lam),
                "--x", repr(xq), "--out", o]
        if params:
            argv += ["--params", ",".join(repr(p) for p in params)]

        def prox_check(stats, xs=xs, fv=fv, o=o, lam=lam, xq=xq):
            doc = orc.read_json(o)
            return _prox_1d(xs, fv, lam, xq, float(doc["prox"][0]), doc["certificate_eps"],
                            orc.decode(doc["envelope"]))

        jobs.append(_cli_job(ctx, "prox", argv, prox_check))
    for i in range(2 if t else 60):
        g = (-6.0, 6.0, 1201)
        tag, params = (("power", (2.0,)), ("abs", ()))[i % 2]
        xs, fv = orc.coords(*g), atom_values(tag, params, g)
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        z = float(np.round(rng.uniform(-3.0, 3.0), 3))
        o = out("json")
        argv = ["resolvent", "--atom", tag, "--grid", _spec(*g), "--lambda", repr(lam),
                "--z", repr(z), "--out", o]
        if params:
            argv += ["--params", ",".join(repr(p) for p in params)]

        def res_check(stats, xs=xs, fv=fv, o=o, lam=lam, z=z):
            doc = orc.read_json(o)
            x, y = float(doc["x"][0]), float(doc["y"][0])
            if abs(z - x - lam * y) > 1e-12 * max(1.0, abs(z)):
                return "z != x + lambda y"
            return _prox_1d(xs, fv, lam, z, x, doc["certificate_eps"])

        jobs.append(_cli_job(ctx, "resolvent", argv, res_check))

    # direct inf-convolution: the circle-box-abs figure and random convex pairs
    for n in ((201, 401) if t else (2001, 4001)):
        g = (-2.0, 2.0, n)
        xs = orc.coords(*g)
        i0 = n // 2
        smp = _sample_idx(rng, n, 16)
        fc, ga = atom_values("negsqrt_circle", (), g), np.abs(xs)
        fr, gr = random_convex(rng, n), random_convex(rng, n)
        for fv, gv, src in (
            (fc, ga, ["--atom", "negsqrt_circle", "--atom2", "abs", "--grid", _spec(*g)]),
            (fr, gr, ["--in", write_in(g, fr), "--in2", write_in(g, gr)]),
        ):
            o = out("json")
            jobs.append(_cli_job(
                ctx, "infconv", ["infconv", *src, "--out", o],
                lambda stats, fv=fv, gv=gv, i0=i0, o=o, smp=smp:
                    orc.infconv_1d(fv, gv, i0, orc.read_values(o), smp)))

    # weak Fenchel duality on quadratic pairs (criterion 17's family)
    for _ in range(2 if t else 20):
        a, b = (float(v) for v in rng.uniform(0.3, 3.0, 2))
        s, u = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
        tau = float(rng.uniform(-1.4, 1.4))
        o = out("json")
        argv = ["duality", "--f-atom", "quad", "--f-params", f"{a!r},{s!r}",
                "--g-atom", "quad", "--g-params", f"{b!r},{u!r}", "--T", repr(tau),
                "--grid", "-8:8:901", "--g-grid", "-12:12:1201",
                "--dual", "-12:12:1201", "--g-dual", "-12:12:1201", "--out", o]

        def dual_check(stats, o=o):
            doc = orc.read_json(o)
            gap, primal = orc.decode(doc["gap"]), orc.decode(doc["primal"])
            if not gap >= -1e-9 * max(1.0, abs(primal)):
                return f"weak duality fails: gap {gap:.3e}"
            return None

        jobs.append(_cli_job(ctx, "duality", argv, dual_check))

    big = (500, 1000) if t else (50_000, 100_000)
    inf = (201, 401) if t else (2001, 4001)
    env = (151, 301) if t else (1501, 3001)
    return Workload(
        jobs,
        exponents={
            "fenchel.conjugate.exponent_1d": ("fenchel.conjugate", *big),
            "fenchel.inf_convolution.exponent": ("fenchel.inf_convolution", *inf),
            "moreau.moreau_envelope.exponent": ("moreau.moreau_envelope", *env),
        },
        memory_kinds=frozenset({"envelope"}),
    )


# ---- grid-2d ---------------------------------------------------------------


def grid_2d(ctx: Context) -> Workload:
    cd, rng = ctx.cd, np.random.default_rng(ctx.seed)
    Grid, GridFn = cd.grids.Grid, cd.grids.GridFn
    sizes = (25, 35) if ctx.tiny else (251, 355)
    inf_sizes = (9, 13) if ctx.tiny else (61, 85)
    jobs: list[Job] = []

    def quadratic(n):
        grid = Grid(((-2.0, 2.0, n), (-2.0, 2.0, n)))
        x1, x2 = grid.coords(0), grid.coords(1)
        L = rng.normal(size=(2, 2))
        A = L @ L.T + 0.2 * np.eye(2)
        b = rng.normal(size=2)
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        v = 0.5 * (A[0, 0] * X1 ** 2 + 2 * A[0, 1] * X1 * X2 + A[1, 1] * X2 ** 2)
        return GridFn(grid, v + b[0] * X1 + b[1] * X2)

    def rand_convex(n):
        q = quadratic(n)
        v = q.values + random_convex(rng, n)[:, None] + random_convex(rng, n)[None, :]
        return GridFn(q.grid, v)

    def conj_check(f, dual, smp):
        x1, x2 = f.grid.coords(0), f.grid.coords(1)
        y1, y2 = dual.coords(0), dual.coords(1)
        return lambda res, stats: orc.conjugate_2d(
            x1, x2, f.values, y1, y2, res.dual.values, res.argmax, smp, stats)

    for n in sizes:
        fns = [rand_convex(n), quadratic(n)]
        for f in fns:
            dual = cd.fenchel.default_dual_grid(f)
            smp = _sample_idx(rng, dual.node_count, 12)
            jobs.append(Job("conjugate",
                            lambda f=f, d=dual: cd.fenchel.conjugate(f, d),
                            conj_check(f, dual, smp)))
        f = fns[0]
        dual = cd.fenchel.default_dual_grid(f)
        jobs.append(Job("biconjugate",
                        lambda f=f, d=dual: cd.fenchel.biconjugate(f, d),
                        lambda g, stats, f=f: orc.biconjugate(f.values, g.values, np.inf)))
        lam = float(rng.choice([0.5, 1.0]))
        smp = _sample_idx(rng, f.grid.node_count, 8)
        jobs.append(Job("envelope",
                        lambda f=f, lam=lam: cd.moreau.moreau_envelope(f, lam),
                        lambda env, stats, f=f, lam=lam, smp=smp: orc.envelope_2d(
                            f.grid.coords(0), f.grid.coords(1), f.values, lam, env.values, smp)))
        # the convexity check on convex data and on a data set with one dent
        dent = np.array(f.values)
        i, j = (int(v) for v in rng.integers(n // 4, 3 * n // 4, size=2))
        dent[i, j] += 1.0
        for g, expect in ((f, True), (GridFn(f.grid, dent), False)):
            jobs.append(Job("convexity",
                            lambda g=g: cd.grids.discrete_convexity_check(g),
                            lambda rep, stats, expect=expect:
                                None if bool(rep) == expect else f"convexity verdict {bool(rep)}"))
        # prox query batches on one function: each query re-runs the check
        for b in range(4):
            qs = rng.uniform(-1.5, 1.5, size=(3, 2))
            lam = float(rng.choice([0.5, 1.0]))

            def batch(f=f, qs=qs, lam=lam):
                return [cd.moreau.prox(f, lam, q) for q in qs]

            def batch_check(res, stats, f=f, qs=qs, lam=lam):
                x1, x2 = f.grid.coords(0), f.grid.coords(1)
                nodes = f.grid.nodes()
                width = float(np.hypot(*(hi - lo for lo, hi, _ in f.grid.axes)))
                tol = orc.prox_tolerance(max(f.grid.spacing), width, 2, lam)
                for q, r in zip(qs, res):
                    p = np.asarray(r.point)
                    fx = orc.interp_2d(x1, x2, f.values, p)
                    why = orc.prox_node_min(nodes, f.values.ravel(), fx, q, p, lam,
                                            f.grid.spacing, r.envelope)
                    if why is None:
                        _, why = orc.fenchel_young(nodes, f.values.ravel(), fx, p,
                                                   (q - p) / lam, tol)
                    if why:
                        return why
                return None

            jobs.append(Job("prox-batch", batch, batch_check))

    # enough direct inf-convolutions at the larger size that the median job
    # falls inside one group of similar jobs
    for n, count in zip(inf_sizes, (4, 11)):
        for _ in range(count):
            f, g = rand_convex(n), quadratic(n)
            smp = _sample_idx(rng, f.grid.node_count, 3)
            jobs.append(Job("infconv",
                            lambda f=f, g=g: cd.fenchel.inf_convolution(f, g),
                            lambda res, stats, f=f, g=g, smp=smp, i0=n // 2: orc.infconv_2d(
                                f.values, g.values, i0, i0, res.out.values, smp)))

    rng.shuffle(jobs)
    return Workload(
        jobs,
        exponents={
            "fenchel.conjugate.exponent_2d": ("fenchel.conjugate", sizes[0] ** 2, sizes[1] ** 2),
            "fenchel.inf_convolution.exponent":
                ("fenchel.inf_convolution", inf_sizes[0] ** 2, inf_sizes[1] ** 2),
            "moreau.moreau_envelope.exponent":
                ("moreau.moreau_envelope", sizes[0] ** 2, sizes[1] ** 2),
        },
        memory_kinds=frozenset({"envelope"}),
    )


# ---- renorm ----------------------------------------------------------------


def renorm(ctx: Context) -> Workload:
    rng = np.random.default_rng(ctx.seed)
    small, large = (21, 31) if ctx.tiny else (161, 227)
    steps = 3 if ctx.tiny else 6
    jobs: list[Job] = []
    for n in (small,) * 3 + (large,) * 2:
        pair = ["l1norm", "l2norm"] if rng.random() < 0.5 else ["l2norm", "l1norm"]
        o = ctx.path(f"renorm{len(jobs)}.json")
        h = 8.0 / (n - 1)
        argv = ["renorm", "--norm1", pair[0], "--norm2", pair[1],
                "--grid", f"-4:4:{n}x-4:4:{n}", "--steps", str(steps), "--out", o]
        jobs.append(_cli_job(ctx, "renorm", argv,
                             lambda stats, o=o, h=h: orc.renorm_report(orc.read_json(o), h)))
    rng.shuffle(jobs)
    return Workload(
        jobs,
        exponents={"renorm.asplund_step.exponent": ("renorm.asplund_step", small ** 2, large ** 2)},
        memory_kinds=frozenset({"renorm"}),
        calibrated=False,
    )


# ---- coupon ----------------------------------------------------------------


def coupon(ctx: Context) -> Workload:
    cd, rng = ctx.cd, np.random.default_rng(ctx.seed)
    jobs: list[Job] = []

    def forms_check(x_text, o, probe):
        def check(stats):
            doc = orc.read_json(o)
            why = orc.coupon_forms(x_text, doc, cd.special.coupon_pn_perm, cd.special.coupon_pn_ie)
            return why or (orc.coupon_probe(doc) if probe else None)
        return check

    def x_text(n):
        # multiples of 1/8 are exact in binary, so Fraction(text) is the CLI's float
        return ",".join(repr(float(v)) for v in rng.integers(1, 81, size=n) / 8.0)

    per_n = 2 if ctx.tiny else 8
    for n in (3, 4, 5, 6):
        for _ in range(per_n):
            xt, o = x_text(n), ctx.path(f"coupon{len(jobs)}.json")
            argv = ["coupon", "--n", str(n), "--x", xt, "--forms", "all", "--out", o]
            jobs.append(_cli_job(ctx, "coupon", argv, forms_check(xt, o, False)))
    trials = 3 if ctx.tiny else 40
    for n in (4, 4, 5, 5):
        xt, o = x_text(n), ctx.path(f"coupon{len(jobs)}.json")
        argv = ["coupon", "--n", str(n), "--x", xt, "--forms", "all",
                "--probe-trials", str(trials), "--seed", str(int(rng.integers(0, 2 ** 31))),
                "--out", o]
        jobs.append(_cli_job(ctx, "coupon-probe", argv, forms_check(xt, o, True)))
    rng.shuffle(jobs)
    return Workload(
        jobs,
        exponents={"special.coupon_pn_ie.exponent": ("special.coupon_pn_ie", 31, 63)},
    )


WORKLOADS = {"line-1d": line_1d, "grid-2d": grid_2d, "renorm": renorm, "coupon": coupon}
