"""Command-line surface.

Grid syntax is "lo:hi:count" per axis, two axes joined by "x"
(e.g. "-4:4:321x-4:4:321").  A job's result is a report, and for
conjugate, biconjugate, infconv and envelope a grid function too.  A grid
function at a .csv --out path is CSV plot data; at any other path it is
the grid-function JSON with the report's fields beside it; with no --out,
its values and the fields print as JSON.  A report alone is JSON at any
path or on stdout.  Exit codes: 0 success, 1 computation error, 2 usage
error.  The environment variable CONVEXDESK_TOL overrides the default
tolerance of the checks a job runs, renorm's sandwich slack included;
any set value counts, 0 too.
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
from .monotone import _certificate, fitzpatrick, resolvent
from .moreau import moreau_envelope, project, prox
from .renorm import (asplund_step, init_pair, measured_ratio, valid_region_halfwidth,
                     window_node_count)
from .special import (
    _probe_work,
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


def default_tol(unset: Optional[float] = None) -> Optional[float]:
    """CONVEXDESK_TOL as a float, any set value (0 too), else `unset`."""
    v = os.environ.get("CONVEXDESK_TOL")
    if v and math.isnan(float(v)):  # a NaN tolerance would pass every check
        raise ValueError(f"CONVEXDESK_TOL must be a number, got {v!r}")
    return float(v) if v else unset


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


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `parse_args` returns a fresh
    namespace on every call, and every default is immutable."""
    ap = argparse.ArgumentParser(prog="convexdesk", description=__doc__, allow_abbrev=False)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    # let grid specs and vectors like "-10:3:2001" or "-3,0.5" pass as values
    value_like = re.compile(r"^-\d[\d.:,x;eE+-]*$")

    def add(name: str, *flags: str, fn: bool = False, lam: bool = False) -> argparse.ArgumentParser:
        """Subparser with --out and the options `flags`, parsed by
        _NUMBER_OPTIONS where listed there; `fn` adds the options naming the
        input function, `lam` --lambda."""
        p = sub.add_parser(name, allow_abbrev=False)  # no option prefixes: --lam is not --lambda
        p._negative_number_matcher = value_like
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
        if name:
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


def _emit(doc: dict, out: Optional[str], fn: Optional[GridFn] = None) -> None:
    """The one writer of a job's result: the report `doc`, and the grid
    function `fn` where the job computed one.

    - fn at a .csv path: fileio.write_gridfn_csv, without doc;
    - fn at any other path: the grid-function JSON (dim, axes, flat values)
      with doc's fields beside it, flattened row-major;
    - fn with no path: {"values": ..., **doc} on stdout;
    - doc alone: JSON at any path, or on stdout.
    """
    if fn is not None and out and out.endswith(".csv"):
        fileio.write_gridfn_csv(fn, out)
        return
    if fn is not None:
        doc = ({**fileio._gridfn_doc(fn), **{k: np.ravel(v) for k, v in doc.items()}} if out
               else {"values": fn.values, **doc})
    if out:
        fileio.write_json_report(doc, out)
    else:
        print(json.dumps(fileio._jsonable(doc), sort_keys=True))


def _fn_and_dual(opts: dict) -> tuple[GridFn, Grid]:
    f = _load_fn(opts)
    return f, parse_grid_spec(opts["dual"]) if opts.get("dual") else default_dual_grid(f)


def _run_conjugate(opts: dict) -> tuple[dict, GridFn]:
    res = conjugate(*_fn_and_dual(opts))
    return {"argmax": res.argmax}, res.dual


def _run_biconjugate(opts: dict) -> tuple[dict, GridFn]:
    return {}, biconjugate(*_fn_and_dual(opts))


def _run_infconv(opts: dict) -> tuple[dict, GridFn]:
    f = _load_fn(opts)
    if opts.get("infile2"):
        g = fileio.read_gridfn_json(opts["infile2"])
    else:
        g = sample(make_atom(opts["atom2"], opts.get("params2")), f.grid)
    return {}, inf_convolution(f, g).out


def _run_envelope(opts: dict) -> tuple[dict, GridFn]:
    return {}, moreau_envelope(_load_fn(opts), opts["lam"], convexity_tol=default_tol(1e-9))


def _run_prox(opts: dict) -> dict:
    f = _load_fn(opts)
    x = np.asarray(opts["x"])
    res = prox(f, opts["lam"], x, convexity_tol=default_tol(1e-9))
    return {"x": list(x), "prox": list(res.point), "envelope": res.envelope,
            "lambda": res.lam, "certificate_eps": _certificate(f, opts["lam"], x, res)[2]}


def _run_project(opts: dict) -> dict:
    return {"x": list(opts["x"]), "projection": list(project(opts["box"], opts["x"]))}


def _run_fitzpatrick(opts: dict) -> dict:
    res = fitzpatrick(fileio.read_graph_json(opts["graph"]), (opts["x"], opts["xstar"]))
    return {"x": list(res.query[0]), "xstar": list(res.query[1]),
            "value": res.value, "attaining_index": res.attaining_index}


def _run_resolvent(opts: dict) -> dict:
    z = np.asarray(opts["z"])
    res = resolvent(_load_fn(opts), opts["lam"], z, convexity_tol=default_tol(1e-9))
    return {"z": list(z), "x": list(res.x), "y": list(res.y),
            "lambda": opts["lam"], "certificate_eps": res.certificate_eps}


def _step_record(pair) -> dict:
    grid = pair.p.grid
    return {"n": pair.n, "r_n": measured_ratio(pair),
            "region": valid_region_halfwidth(grid, pair.n),
            "window_nodes": window_node_count(grid, pair.n)}


def _run_renorm(opts: dict) -> dict:
    grid = parse_grid_spec(opts["grid"])
    steps, h = opts["steps"], grid.spacing[0]
    hw = valid_region_halfwidth(grid, steps)
    if hw < h:
        raise ParameterError(f"--steps {steps} leaves a valid window of half-width {hw:g}, "
                             f"below the grid spacing {h:g}; use fewer steps or a finer grid")
    pair = init_pair(FnAtom(opts["norm1"]), FnAtom(opts["norm2"]), grid)
    records, prefix = [], opts["out_prefix"]
    for k in range(steps + 1):
        if k:
            pair = asplund_step(pair, sandwich_slack=default_tol())
        records.append(_step_record(pair))
        if prefix:  # each iterate's pair as grid-function JSON
            _emit({}, f"{prefix}_p{pair.n}.json", pair.p)
            _emit({}, f"{prefix}_q{pair.n}.json", pair.q)
    return {"C": pair.C, "swapped": pair.swapped, "iterations": records}


def _run_coupon(opts: dict) -> dict:
    x, trials = opts["x"], opts["probe_trials"]
    if trials < 0:
        raise ValueError(f"--probe-trials must be >= 0 (0: no probe), got {trials}")
    if opts.get("n") and opts["n"] != len(x):
        raise ValueError(f"--n {opts['n']} does not match len(x) = {len(x)}")
    if trials:
        _probe_work(len(x), trials)  # the probe's refusals come before any form runs
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
    if trials:
        rep = coupon_convexity_probe(len(x), trials, opts["seed"])
        doc["probe"] = {
            "trials": rep.trials, "seed": rep.seed,
            "min_hessian_eig": rep.min_hessian_eig,
            "max_inv_hessian_eig": rep.max_inv_hessian_eig,
            "min_log_hessian_eig": rep.min_log_hessian_eig,
        }
    return doc


def _run_volume(opts: dict) -> dict:
    return {"n": opts["dim"], "p": opts["p"], "volume": ball_volume(opts["dim"], opts["p"])}


def _run_gamma(opts: dict) -> dict:
    return {"x": opts["x"], "n": opts["n"], "value": gamma_limit(opts["x"], opts["n"])}


def _run_duality(opts: dict) -> dict:
    f = sample(make_atom(opts["f_atom"], opts.get("f_params")), parse_grid_spec(opts["grid"]))
    g_grid = parse_grid_spec(opts["g_grid"]) if opts.get("g_grid") else f.grid
    g = sample(make_atom(opts["g_atom"], opts.get("g_params")), g_grid)
    fd = parse_grid_spec(opts["dual"]) if opts.get("dual") else default_dual_grid(f)
    gd = parse_grid_spec(opts["g_dual"]) if opts.get("g_dual") else default_dual_grid(g)
    res = fenchel_duality_gap(f, g, opts["T"], fd, gd)
    return {"primal": res.primal, "dual": res.dual, "gap": res.gap}


# subcommand -> (its runner, the options a job cannot run without, by
# destination name; a tuple lists alternatives, any one of which will do).
# A runner returns its report, or (report fields, grid function); main
# hands either to _emit.
JOBS: dict[str, tuple[Callable[[dict], dict | tuple[dict, GridFn]], tuple]] = {
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


def main(argv: Optional[list[str]] = None) -> int:
    """Run one job; returns the exit code (0 ok, 1 computation error, 2 usage error)."""
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
        result = JOBS[job.subcommand][0](job.options)
        doc, fn = result if isinstance(result, tuple) else (result, None)
        _emit(doc, job.options["out"], fn)
        return 0
    except (ValueError, KeyError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConvexDeskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
