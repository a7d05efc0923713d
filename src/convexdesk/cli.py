"""Command-line surface.

Grid syntax is "lo:hi:count" per axis, two axes joined by "x"
(e.g. "-4:4:321x-4:4:321").  Output format follows the file extension:
.csv for plot data, .json for reports and grid functions.  Exit codes:
0 success, 1 computation error, 2 usage error.  Every subcommand accepts
--selftest to run its golden examples.  The environment variable
CONVEXDESK_TOL overrides the default tolerance of the checks a job runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import fileio
from .atoms import FnAtom, catalog_tags, sample
from .errors import AccuracyError, CatalogError, ConvexDeskError, ParameterError
from .fenchel import (
    biconjugate,
    conjugate,
    default_dual_grid,
    fenchel_duality_gap,
    inf_convolution,
)
from .grids import Grid, GridFn
from .monotone import OperatorGraph, _certificate, fitzpatrick, resolvent
from .moreau import _check_inputs, moreau_envelope, project, prox
from .renorm import (asplund_step, init_pair, measured_ratio, valid_region_halfwidth,
                     window_node_count)
from .special import (
    ball_volume,
    coupon_convexity_probe,
    coupon_pn_ie,
    coupon_pn_integral,
    coupon_pn_perm,
    gamma_limit,
)

@dataclass(frozen=True)
class JobSpec:
    subcommand: str
    options: dict = field(default_factory=dict)


def default_tol() -> Optional[float]:
    v = os.environ.get("CONVEXDESK_TOL")
    if v and math.isnan(float(v)):  # a NaN tolerance would pass every check
        raise ValueError(f"CONVEXDESK_TOL must be a number, got {v!r}")
    return float(v) if v else None


def parse_grid_spec(spec: str) -> Grid:
    axes = []
    for part in spec.split("x"):
        bits = part.split(":")
        if len(bits) != 3:
            raise ValueError(f"grid axis must be lo:hi:count, got {part!r}")
        axes.append((float(bits[0]), float(bits[1]), int(bits[2])))
    return Grid(tuple(axes))


def make_atom(name: str, params: Optional[tuple]) -> FnAtom:
    return FnAtom(name, params or ())


def _number(text: str) -> float:
    """The parser of every float option's numbers: ±inf pass, while NaN and
    non-numbers are refused before any work (argparse names the option, exit 2)."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if math.isnan(v):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return v


def _numbers(text: str, sep: str = ",") -> tuple[float, ...]:
    return tuple(_number(t) for t in text.split(sep))


# the options of `add` that hold numbers: comma-separated vectors, and --p
_NUMBER_OPTIONS: dict[str, Callable[[str], object]] = {
    **dict.fromkeys(("--x", "--xstar", "--z", "--params", "--params2", "--f-params",
                     "--g-params"), _numbers),
    "--p": lambda text: _number("inf" if text == "oo" else text),
}


def _load_fn(opts: dict) -> GridFn:
    if opts.get("infile"):
        return fileio.read_gridfn_json(opts["infile"])
    if not opts.get("atom"):
        raise ValueError("need --atom or --in")
    if not opts.get("grid"):
        raise ValueError("need --grid with --atom")
    return sample(make_atom(opts["atom"], opts.get("params")), parse_grid_spec(opts["grid"]))


def _write_fn(f: GridFn, path: Optional[str]) -> None:
    """Grid function to a .csv or .json file, or its values to stdout."""
    if not path:
        _emit({"values": f.values}, None)
    elif path.endswith(".csv"):
        fileio.write_gridfn_csv(f, path)
    else:
        fileio.write_gridfn_json(f, path)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `parse_args` returns a fresh
    namespace on every call, and every default is immutable."""
    ap = argparse.ArgumentParser(prog="convexdesk", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    # let grid specs and vectors like "-10:3:2001" or "-3,0.5" pass as values
    value_like = re.compile(r"^-\d[\d.:,x;eE+-]*$")

    def add(name: str, *flags: str, fn: bool = False, lam: bool = False) -> argparse.ArgumentParser:
        """Subparser with --selftest, --out and the options `flags`, parsed by
        _NUMBER_OPTIONS where listed there; `fn` adds the options naming the
        input function, `lam` --lambda."""
        p = sub.add_parser(name)
        p._negative_number_matcher = value_like
        p.add_argument("--selftest", action="store_true")
        p.add_argument("--out")
        if fn:
            flags = ("--atom", "--params", "--grid") + flags
            p.add_argument("--in", dest="infile")
        if lam:
            p.add_argument("--lambda", dest="lam", type=_number, default=1.0)
        for flag in flags:
            p.add_argument(flag, type=_NUMBER_OPTIONS.get(flag))
        return p

    add("conjugate", "--dual", fn=True)
    add("biconjugate", "--dual", fn=True)
    add("infconv", "--atom2", "--params2", fn=True).add_argument("--in2", dest="infile2")
    add("envelope", fn=True, lam=True)
    add("prox", "--x", fn=True, lam=True)
    add("project", "--x").add_argument(
        "--box", type=lambda text: tuple(_numbers(part, ":") for part in text.split(",")),
        help="a:b per axis, axes joined by ','")
    add("fitzpatrick", "--x", "--xstar").add_argument("--graph", help="operator graph JSON file")
    add("resolvent", "--z", fn=True, lam=True)

    p = add("renorm", "--out-prefix")
    p.add_argument("--norm1", default="l1norm")
    p.add_argument("--norm2", default="l2norm")
    p.add_argument("--grid", default="-4:4:321x-4:4:321")
    p.add_argument("--steps", type=int, default=6)

    p = add("coupon", "--x")
    p.add_argument("--n", type=int)
    p.add_argument("--forms", default="all", choices=("perm", "ie", "integral", "all"))
    p.add_argument("--probe-trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    add("volume", "--p").add_argument("--dim", type=int)
    p = add("gamma")
    p.add_argument("--x", type=_number)
    p.add_argument("--n", type=int)

    add("duality", "--f-atom", "--f-params", "--g-atom", "--g-params", "--grid", "--g-grid",
        "--dual", "--g-dual").add_argument(
            "--T", type=lambda text: tuple(_numbers(row) for row in text.split(";")), default="1",
            help="rows joined by ';'")
    return ap


def _flag(dest: str) -> str:
    return "--" + {"infile": "in", "infile2": "in2"}.get(dest, dest).replace("_", "-")


def parse_args(argv: list[str]) -> JobSpec:
    """Validated JobSpec; unknown atoms or missing files are usage errors."""
    ns = _build_parser().parse_args(argv)
    opts = vars(ns)
    sub = opts.pop("subcommand")
    if not opts.get("selftest"):
        for need in JOBS[sub][1]:
            alts = need if isinstance(need, tuple) else (need,)
            if all(opts.get(d) is None for d in alts):
                raise ValueError(f"{sub} needs {' or '.join(map(_flag, alts))}")
    for key in ("infile", "infile2", "graph"):
        path = opts.get(key)
        if path and not os.path.exists(path):
            raise ValueError(f"file not found: {path}")
    for key in ("atom", "atom2", "f_atom", "g_atom", "norm1", "norm2"):
        name = opts.get(key)
        if name and not opts.get("selftest"):
            try:
                make_atom(name, opts.get({"atom": "params", "atom2": "params2",
                                          "f_atom": "f_params", "g_atom": "g_params"}.get(key)))
            except CatalogError:
                raise ValueError(
                    f"unknown atom {name!r}; catalog: {', '.join(catalog_tags())}"
                ) from None
            except ConvexDeskError:
                pass  # out-of-range parameters surface when the job runs
    return JobSpec(sub, opts)


def _emit(doc: dict, out: Optional[str]) -> None:
    if out:
        fileio.write_json_report(doc, out)
    else:
        print(json.dumps(fileio._jsonable(doc), sort_keys=True))


def _fn_and_dual(opts: dict) -> tuple[GridFn, Grid]:
    f = _load_fn(opts)
    return f, parse_grid_spec(opts["dual"]) if opts.get("dual") else default_dual_grid(f)


def _run_conjugate(opts: dict) -> None:
    f, dual = _fn_and_dual(opts)
    res = conjugate(f, dual)
    out = opts.get("out")
    if out and out.endswith(".json"):
        fileio.write_json_report(
            {
                "dim": dual.dim,
                "axes": [{"lo": lo, "hi": hi, "n": n} for lo, hi, n in dual.axes],
                "values": res.dual.values.ravel(),
                "argmax": res.argmax.ravel(),
            },
            out,
        )
    elif out:
        fileio.write_gridfn_csv(res.dual, out)
    else:
        _emit({"values": res.dual.values, "argmax": res.argmax}, None)


def _run_biconjugate(opts: dict) -> None:
    _write_fn(biconjugate(*_fn_and_dual(opts)), opts.get("out"))


def _run_infconv(opts: dict) -> None:
    f = _load_fn(opts)
    if opts.get("infile2"):
        g = fileio.read_gridfn_json(opts["infile2"])
    else:
        g = sample(make_atom(opts["atom2"], opts.get("params2")), f.grid)
    _write_fn(inf_convolution(f, g).out, opts.get("out"))


def _convexity_tol() -> float:
    return default_tol() or 1e-9


def _run_envelope(opts: dict) -> None:
    f = _load_fn(opts)
    _write_fn(moreau_envelope(f, opts["lam"], convexity_tol=_convexity_tol()), opts.get("out"))


def _run_prox(opts: dict) -> None:
    f = _load_fn(opts)
    x = np.asarray(opts["x"])
    res = prox(f, opts["lam"], x, convexity_tol=_convexity_tol())
    _, eps = _certificate(f, opts["lam"], x, np.asarray(res.point))
    _emit(
        {"x": list(x), "prox": list(res.point), "envelope": res.envelope,
         "lambda": res.lam, "certificate_eps": eps},
        opts.get("out"),
    )


def _run_project(opts: dict) -> None:
    _emit({"x": list(opts["x"]), "projection": list(project(opts["box"], opts["x"]))},
          opts.get("out"))


def _run_fitzpatrick(opts: dict) -> None:
    G = fileio.read_graph_json(opts["graph"])
    res = fitzpatrick(G, (opts["x"], opts["xstar"]))
    _emit(
        {"x": list(res.query[0]), "xstar": list(res.query[1]),
         "value": res.value, "attaining_index": res.attaining_index},
        opts.get("out"),
    )


def _run_resolvent(opts: dict) -> None:
    f = _load_fn(opts)
    z = np.asarray(opts["z"])
    # prox's input checks at the job's tolerance; resolvent then skips convexity
    _check_inputs(f, opts["lam"], True, _convexity_tol(), "prox", z)
    res = resolvent(f, opts["lam"], z, check_convexity=False)
    _emit(
        {"z": list(z), "x": list(res.x), "y": list(res.y),
         "lambda": opts["lam"], "certificate_eps": res.certificate_eps},
        opts.get("out"),
    )


def _step_record(pair) -> dict:
    grid = pair.p.grid
    return {"n": pair.n, "r_n": measured_ratio(pair),
            "region": valid_region_halfwidth(grid, pair.n),
            "window_nodes": window_node_count(grid, pair.n)}


def _run_renorm(opts: dict) -> None:
    grid = parse_grid_spec(opts["grid"])
    steps, h = opts["steps"], grid.spacing[0]
    hw = valid_region_halfwidth(grid, steps)
    if hw < h:
        raise ParameterError(f"--steps {steps} leaves a valid window of half-width {hw:g}, "
                             f"below the grid spacing {h:g}; use fewer steps or a finer grid")
    pair = init_pair(FnAtom(opts["norm1"]), FnAtom(opts["norm2"]), grid)
    records = [_step_record(pair)]
    prefix = opts.get("out_prefix")
    if prefix:
        fileio.write_gridfn_json(pair.p, f"{prefix}_p0.json")
        fileio.write_gridfn_json(pair.q, f"{prefix}_q0.json")
    for _ in range(steps):
        pair = asplund_step(pair, sandwich_slack=default_tol())
        records.append(_step_record(pair))
        if prefix:
            fileio.write_gridfn_json(pair.p, f"{prefix}_p{pair.n}.json")
            fileio.write_gridfn_json(pair.q, f"{prefix}_q{pair.n}.json")
    _emit({"C": pair.C, "swapped": pair.swapped, "iterations": records}, opts.get("out"))


def _run_coupon(opts: dict) -> None:
    if opts["probe_trials"] < 0:
        raise ValueError(f"--probe-trials must be >= 0 (0: no probe), got {opts['probe_trials']}")
    x = opts["x"]
    if opts.get("n") and opts["n"] != len(x):
        raise ValueError(f"--n {opts['n']} does not match len(x) = {len(x)}")
    doc: dict = {"x": list(x)}
    forms = opts["forms"]
    if forms in ("perm", "all"):
        doc["perm"] = float(coupon_pn_perm(x))
    if forms in ("ie", "all"):
        doc["ie"] = float(coupon_pn_ie(x))
    if forms in ("integral", "all"):
        doc["integral"] = coupon_pn_integral(x)
    nan = [form for form in ("perm", "ie", "integral") if math.isnan(doc.get(form, 0.0))]
    if nan:  # a float form overflowed to inf / inf
        raise AccuracyError(f"the {nan[0]} form is NaN in floats at this x")
    if forms == "all":
        vals = [doc["perm"], doc["ie"], doc["integral"]]
        hi, lo = max(vals), min(vals)
        doc["max_discrepancy"] = 0.0 if hi == lo else hi - lo  # equal infinities agree
    if opts["probe_trials"]:
        rep = coupon_convexity_probe(len(x), opts["probe_trials"], opts["seed"])
        doc["probe"] = {
            "trials": rep.trials, "seed": rep.seed,
            "min_hessian_eig": rep.min_hessian_eig,
            "max_inv_hessian_eig": rep.max_inv_hessian_eig,
            "min_log_hessian_eig": rep.min_log_hessian_eig,
        }
    _emit(doc, opts.get("out"))


def _run_volume(opts: dict) -> None:
    p = opts["p"]
    _emit({"n": opts["dim"], "p": p, "volume": ball_volume(opts["dim"], p)}, opts.get("out"))


def _run_gamma(opts: dict) -> None:
    _emit(
        {"x": opts["x"], "n": opts["n"], "value": gamma_limit(opts["x"], opts["n"])},
        opts.get("out"),
    )


def _run_duality(opts: dict) -> None:
    f = sample(make_atom(opts["f_atom"], opts.get("f_params")), parse_grid_spec(opts["grid"]))
    g_grid = parse_grid_spec(opts["g_grid"]) if opts.get("g_grid") else f.grid
    g = sample(make_atom(opts["g_atom"], opts.get("g_params")), g_grid)
    fd = parse_grid_spec(opts["dual"]) if opts.get("dual") else default_dual_grid(f)
    gd = parse_grid_spec(opts["g_dual"]) if opts.get("g_dual") else default_dual_grid(g)
    res = fenchel_duality_gap(f, g, opts["T"], fd, gd)
    _emit({"primal": res.primal, "dual": res.dual, "gap": res.gap}, opts.get("out"))


# subcommand -> (its runner, the options a job cannot run without, by
# destination name; a tuple lists alternatives, any one of which will do).
# --selftest needs none of them.
JOBS: dict[str, tuple[Callable[[dict], None], tuple]] = {
    "conjugate": (_run_conjugate, ()),
    "biconjugate": (_run_biconjugate, ()),
    "infconv": (_run_infconv, (("atom2", "infile2"),)),
    "envelope": (_run_envelope, ()),
    "prox": (_run_prox, ("x",)),
    "project": (_run_project, ("box", "x")),
    "fitzpatrick": (_run_fitzpatrick, ("graph", "x", "xstar")),
    "resolvent": (_run_resolvent, ("z",)),
    "renorm": (_run_renorm, ()),
    "coupon": (_run_coupon, ("x",)),
    "volume": (_run_volume, ("dim", "p")),
    "gamma": (_run_gamma, ("x", "n")),
    "duality": (_run_duality, ("f_atom", "g_atom", "grid")),
}
SUBCOMMANDS = tuple(JOBS)


def run(job: JobSpec) -> int:
    """Execute a job; returns the exit code (0 ok, 1 computation error)."""
    opts = job.options
    if opts.get("selftest"):
        npass, nfail = _selftest(job.subcommand)
        print(f"{job.subcommand} selftest: {npass} passed, {nfail} failed")
        return 0 if nfail == 0 else 1
    JOBS[job.subcommand][0](opts)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        job = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) if exc.code != 2 else 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(job)
    except (ValueError, KeyError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConvexDeskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


# ---- golden-example selftests ----------------------------------------------


def _check(label: str, ok: bool, counts: list[int]) -> None:
    counts[0 if ok else 1] += 1
    print(f"{'PASS' if ok else 'FAIL'}: {label}")


def _selftest(sub: str) -> tuple[int, int]:
    c = [0, 0]
    if sub in ("conjugate", "biconjugate"):
        f = sample(FnAtom("power", (2.0,)), Grid.line(-5, 5, 1001))
        res = conjugate(f, Grid.line(-3, 3, 601))
        v1 = res.dual.values[res.dual.grid.nearest_index(1.0)]
        _check("conjugate of x^2/2 at y=1 is ~0.5", abs(v1 - 0.5) <= 1e-4, c)
        fe = sample(FnAtom("exp"), Grid.line(-10, 3, 2001))
        re_ = conjugate(fe, Grid.line(-1, 5, 601))
        ve = re_.dual.values[re_.dual.grid.nearest_index(1.0)]
        _check("conjugate of exp at y=1 is ~-1", abs(ve + 1.0) <= 1e-3, c)
        fa = sample(FnAtom("abs"), Grid.line(-2, 2, 401))
        bb = biconjugate(fa, Grid.line(-2, 2, 401))
        _check("abs biconjugate fixpoint", float(np.max(np.abs(bb.values - fa.values))) <= 1e-9, c)
    elif sub == "infconv":
        g = Grid.line(-2, 2, 4001)
        res = inf_convolution(sample(FnAtom("negsqrt_circle"), g), sample(FnAtom("abs"), g))
        v = res.out.values[g.nearest_index(1.0)]
        _check("circle box abs at x=1 is ~1-sqrt2", abs(v - (1 - math.sqrt(2))) <= 2e-3, c)
    elif sub == "envelope":
        f = sample(FnAtom("abs"), Grid.line(-3, 3, 601))
        env = moreau_envelope(f, 1.0)
        v = env.values[f.grid.nearest_index(0.5)]
        _check("Huber at 0.5 is 0.125", abs(v - 0.125) <= 1e-6, c)
        v2 = env.values[f.grid.nearest_index(2.0)]
        _check("Huber at 2 is 1.5", abs(v2 - 1.5) <= 1e-6, c)
    elif sub == "prox":
        f = sample(FnAtom("indicator", (-1.0, 1.0)), Grid.line(-4, 4, 801))
        r = prox(f, 1.0, 3.0)
        _check("prox of indicator clamps 3 -> 1", abs(r.point[0] - 1.0) <= 1e-9, c)
        fa = sample(FnAtom("abs"), Grid.line(-4, 4, 801))
        r2 = prox(fa, 1.0, 0.4)
        _check("soft-threshold dead zone 0.4 -> 0", abs(r2.point[0]) <= 1e-9, c)
        r3 = prox(fa, 1.0, 3.0)
        _check("soft-threshold 3 -> 2", abs(r3.point[0] - 2.0) <= 1e-9, c)
    elif sub == "project":
        _check("clamp 3 into [-1,1]", float(project((-1, 1), 3.0)[0]) == 1.0, c)
        p = project(((-1, 1), (-1, 1)), (3.0, 0.5))
        _check("box clamp (3,0.5)", tuple(p) == (1.0, 0.5), c)
        _check("singleton box", float(project((0, 0), 7.0)[0]) == 0.0, c)
    elif sub == "fitzpatrick":
        xs = np.linspace(-2, 2, 401)
        G = OperatorGraph(xs[:, None], xs[:, None])
        r = fitzpatrick(G, (1.0, 1.0))
        _check("identity graph point value 1", abs(r.value - 1.0) <= 1e-9, c)
        r2 = fitzpatrick(G, (1.0, -1.0))
        _check("off-graph value 0 >= -1", abs(r2.value) <= 1e-9, c)
    elif sub == "resolvent":
        f = sample(FnAtom("power", (2.0,)), Grid.line(-6, 6, 1201))
        r = resolvent(f, 1.0, 2.0)
        _check("J(2) = 1 for A = Id", abs(r.x[0] - 1.0) <= 1e-6, c)
        _check("y = 1", abs(r.y[0] - 1.0) <= 1e-6, c)
    elif sub == "renorm":
        grid = Grid.box((-2, 2, 41), (-2, 2, 41))
        pair = init_pair(FnAtom("l1norm"), FnAtom("l2norm"), grid)
        _check("l1/l2 constant C = 1", abs(pair.C - 1.0) <= 1e-9, c)
        nxt = asplund_step(pair)
        _check("after 1 step r <= C/4 + slack",
               measured_ratio(nxt) <= 0.25 + 10 * grid.spacing[0], c)
    elif sub == "coupon":
        _check("p_1(2) = 1/2", float(coupon_pn_perm((2.0,))) == 0.5, c)
        _check("p_2(1,1) = 3/2", abs(float(coupon_pn_ie((1.0, 1.0))) - 1.5) <= 1e-12, c)
        _check("integral matches ie at (1,2,3)",
               abs(coupon_pn_integral((1.0, 2.0, 3.0)) - float(coupon_pn_ie((1.0, 2.0, 3.0)))) <= 1e-8, c)
    elif sub == "volume":
        _check("V_2(2) = pi", abs(ball_volume(2, 2.0) - math.pi) <= 1e-12, c)
        _check("V_3(1) = 4/3", abs(ball_volume(3, 1.0) - 4.0 / 3.0) <= 1e-12, c)
        _check("V_5(inf) = 32", ball_volume(5, math.inf) == 32.0, c)
    elif sub == "gamma":
        _check("gamma_limit(1, n) = n/(n+1)", abs(gamma_limit(1.0, 1000) - 1000.0 / 1001.0) <= 1e-12, c)
        _check("gamma_limit(3, 1e6) ~ 2", abs(gamma_limit(3.0, 1_000_000) - 2.0) <= 1e-4, c)
    elif sub == "duality":
        f = sample(FnAtom("power", (2.0,)), Grid.line(-6, 6, 1201))
        g = sample(FnAtom("power", (2.0,)), Grid.line(-6, 6, 1201))
        res = fenchel_duality_gap(f, g, [[1.0]], Grid.line(-4, 4, 801), Grid.line(-4, 4, 801))
        _check("quadratic pair gap ~ 0", abs(res.gap) <= 1e-6, c)
        _check("weak duality", res.gap >= -1e-9, c)
    return c[0], c[1]


if __name__ == "__main__":
    entry()
