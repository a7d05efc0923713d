import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from convexdesk import cli
from convexdesk.atoms import FnAtom, sample
from convexdesk.cli import SUBCOMMANDS, main, parse_args, parse_grid_spec
from convexdesk.errors import TruncationWarning
from convexdesk.fileio import (read_gridfn_json, write_graph_json, write_gridfn_csv,
                               write_gridfn_json)
from convexdesk.grids import Grid, GridFn
from convexdesk.monotone import OperatorGraph


def test_parse_grid_spec():
    g = parse_grid_spec("-10:3:2001")
    assert g.axes == ((-10.0, 3.0, 2001),)
    b = parse_grid_spec("-4:4:321x-4:4:321")
    assert b.dim == 2 and b.shape == (321, 321)


def test_parse_args_conjugate():
    job = parse_args(
        ["conjugate", "--atom", "exp", "--grid", "-10:3:2001", "--dual", "-1:5:601",
         "--out", "f.csv"]
    )
    assert job.subcommand == "conjugate"
    assert job.options["atom"] == "exp"


def test_parse_args_coupon():
    job = parse_args(["coupon", "--n", "3", "--x", "1,2,3", "--forms", "all"])
    assert job.subcommand == "coupon" and job.options["forms"] == "all"


def test_unknown_atom_is_usage_error(capsys):
    rc = main(["conjugate", "--atom", "nosuch"])
    assert rc == 2
    assert "catalog" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    rc = main(["conjugate", "--in", "/nonexistent/f.json"])
    assert rc == 2


@pytest.mark.parametrize("make", [None, "dir"])
def test_an_unwritable_out_names_the_path_given(capsys, tmp_path, make):
    # a missing directory, or a directory where the file should go: the
    # message names f.json, the same on every run, and no temp file is left
    out = tmp_path / "nonexistent" / "f.json"
    if make:
        out.mkdir(parents=True)
    errs = []
    for _ in range(2):
        assert main(["conjugate", "--atom", "abs", "--grid=-1:1:5", "--out", str(out)]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and repr(str(out)) in errs[0] and ".tmp" not in errs[0]
    assert sorted(p.name for p in tmp_path.rglob("*")) == (["f.json", "nonexistent"] if make else [])


def test_malformed_number_is_usage_error():
    assert main(["gamma", "--x", "abc", "--n", "10"]) == 2


ABS5 = ["--atom", "abs", "--grid=-1:1:5"]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["volume", "--dim", "3", "--p", "nan"], "--p"),
        (["gamma", "--x", "nan", "--n", "3"], "--x"),
        (["project", "--box", "nan:1", "--x", "0.5"], "--box"),
        (["project", "--box", "-1:1", "--x", "nan"], "--x"),
        (["prox", *ABS5, "--lambda", "nan", "--x", "0.5"], "--lambda"),
        (["prox", *ABS5, "--x", "nan"], "--x"),
        (["resolvent", *ABS5, "--lambda", "nan", "--z", "0.5"], "--lambda"),
        (["resolvent", *ABS5, "--z", "NaN"], "--z"),
        (["envelope", *ABS5, "--lambda", "nan"], "--lambda"),
        (["duality", "--f-atom", "quad", "--f-params", "1,0", "--g-atom", "abs",
          "--grid=-4:4:41", "--T", "nan"], "--T"),
        (["duality", "--f-atom", "quad", "--f-params", "1,nan", "--g-atom", "abs",
          "--grid=-4:4:41"], "--f-params"),
        (["duality", "--f-atom", "abs", "--g-atom", "power", "--g-params", "nan",
          "--grid=-4:4:41"], "--g-params"),
        (["conjugate", "--atom", "power", "--params", "nan", "--grid=-1:1:5"], "--params"),
        (["infconv", *ABS5, "--atom2", "power", "--params2", "nan"], "--params2"),
        (["coupon", "--x", "nan,1"], "--x"),
        (["fitzpatrick", "--graph", "GRAPH", "--x", "1", "--xstar", "nan"], "--xstar"),
    ],
)
def test_nan_option_is_usage_error(argv, option, tmp_path, capsys):
    """NaN in any float option is refused before any work: exit 2, the option
    named, nothing on stdout (these wrote NaN into the report or ended in a
    traceback)."""
    graph = str(tmp_path / "g.json")
    write_graph_json(OperatorGraph(np.zeros((1, 1)), np.zeros((1, 1))), graph)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([graph if a == "GRAPH" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"error: argument {option}: " in err and "is not a number" in err


@pytest.mark.parametrize(
    "argv, key, want",
    [
        (["prox", *ABS5, "--lambda", "inf", "--x", "0.5"], "lambda", "+inf"),
        (["resolvent", *ABS5, "--lambda", "inf", "--z", "0.5"], "lambda", "+inf"),
        (["volume", "--dim", "3", "--p", "inf"], "volume", 8.0),
        (["volume", "--dim", "3", "--p", "oo"], "p", "+inf"),
    ],
)
def test_infinite_options_still_run(argv, key, want, capsys):
    assert main(argv) == 0
    assert _strict_json(capsys.readouterr().out)[key] == want


def test_power_atom_refuses_an_infinite_p(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["conjugate", "--atom", "power", "--params", "inf", "--grid=-2:2:5"])
    out = capsys.readouterr()
    assert (rc, out.out) == (1, "")
    assert out.err == "error: power atom requires 1 < p < inf, got inf\n"


def test_power_atom_at_a_huge_p_is_inf_past_one(capsys):
    # |x|^p / p overflows to +inf where |x| > 1, silently: the p -> inf limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["conjugate", "--atom", "power", "--params", "1e308", "--grid=-2:2:5"])
        f = sample(FnAtom("power", (1e308,)), Grid.line(-2, 2, 5))
    out = capsys.readouterr()
    assert (rc, out.err) == (0, "")
    assert _strict_json(out.out) == {"argmax": [1, 2, 2, 2, 2], "values": [0.0, -0.0, 0.0, 0.0, 0.0]}
    assert f.values.tolist() == [np.inf, 1e-308, 0.0, 1e-308, np.inf]


def test_query_outside_the_grid_is_named_in_plain_floats(capsys):
    assert main(["prox", *ABS5, "--x", "9"]) == 1
    assert capsys.readouterr().err == "error: query (9.0,) is outside the grid box\n"


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["prox", "--atom", "abs", "--grid", "-1:1:11"], "--x"),
        (["project", "--x", "1"], "--box"),
        (["project", "--box", "-1:1"], "--x"),
        (["coupon", "--n", "2"], "--x"),
        (["volume", "--dim", "2"], "--p"),
        (["volume", "--p", "2"], "--dim"),
        (["gamma", "--n", "3"], "--x"),
        (["gamma", "--x", "1"], "--n"),
        (["duality", "--f-atom", "abs", "--g-atom", "abs"], "--grid"),
        (["duality", "--grid", "-1:1:11", "--g-atom", "abs"], "--f-atom"),
        (["duality", "--grid", "-1:1:11", "--f-atom", "abs"], "--g-atom"),
        (["fitzpatrick", "--x", "1", "--xstar", "1"], "--graph"),
        (["fitzpatrick", "--graph", "GRAPH", "--x", "1"], "--xstar"),
        (["resolvent", "--atom", "abs", "--grid", "-1:1:11"], "--z"),
        (["infconv", "--atom", "abs", "--grid", "-1:1:11"], "--atom2 or --in2"),
    ],
)
def test_missing_required_option_is_usage_error(argv, missing, tmp_path, capsys):
    graph = str(tmp_path / "g.json")
    xs = np.linspace(-1, 1, 5)[:, None]
    write_graph_json(OperatorGraph(xs, xs), graph)
    assert main([graph if a == "GRAPH" else a for a in argv]) == 2
    assert capsys.readouterr().err.strip() == f"usage error: {argv[0]} needs {missing}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["conjugate", "--dual=-1:1:5"], "need --atom or --in"),
        (["conjugate", "--atom", "abs"], "need --grid with --atom"),
        (["conjugate", "--atom", "abs", "--grid=-1:1"], "grid axis must be lo:hi:count, got '-1:1'"),
        (["coupon", "--n", "3", "--x", "1,2"], "--n 3 does not match len(x) = 2"),
    ],
)
def test_incomplete_input_is_usage_error(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_renorm_out_prefix_writes_every_iterate(tmp_path, monkeypatch, capsys):
    from convexdesk.renorm import asplund_step, init_pair

    monkeypatch.delenv("CONVEXDESK_TOL", raising=False)
    prefix = str(tmp_path / "P")
    assert main(["renorm", "--grid=-2:2:21x-2:2:21", "--steps", "2", "--out-prefix", prefix]) == 0
    assert capsys.readouterr().err == ""
    pair = init_pair(FnAtom("l1norm"), FnAtom("l2norm"), parse_grid_spec("-2:2:21x-2:2:21"))
    for n in range(3):
        for name, f in (("p", pair.p), ("q", pair.q)):
            got = read_gridfn_json(f"{prefix}_{name}{n}.json")
            assert got.grid == f.grid and got.values.tobytes() == f.values.tobytes()
        pair = asplund_step(pair)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"P_{s}{n}.json" for s in "pq" for n in range(3)]


def test_a_nan_sample_exits_1_naming_the_atom(capsys):
    # -inf * 0 at x = 0 warned, and "GridFn values cannot contain NaN" exited 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["conjugate", "--atom", "support", "--params=-inf,1", "--grid=-1:1:3"])
    assert (rc, capsys.readouterr()) == (
        1, ("", "error: atom 'support' with parameters (-inf, 1.0) is NaN at [0.0]\n"))


def test_conjugate_job_csv(tmp_path):
    out = str(tmp_path / "f.csv")
    rc = main(["conjugate", "--atom", "exp", "--grid", "-10:3:2001",
               "--dual", "-1:5:601", "--out", out])
    assert rc == 0
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    vals = {float(a): float(b) for a, b in rows}
    y = min(vals, key=lambda v: abs(v - 1.0))
    assert abs(vals[y] - (-1.0)) <= 1e-3  # y log y - y at 1


def test_conjugate_json_includes_argmax(tmp_path):
    out = str(tmp_path / "f.json")
    rc = main(["conjugate", "--atom", "abs", "--grid", "-2:2:41",
               "--dual", "-1:1:21", "--out", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["schema"] == 1 and len(doc["argmax"]) == 21


def test_coupon_all_forms_agree(tmp_path):
    out = str(tmp_path / "c.json")
    rc = main(["coupon", "--n", "3", "--x", "1,2,3", "--forms", "all", "--out", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["max_discrepancy"] <= 1e-8


def test_coupon_integral_at_a_subnormal_rate_is_inf_never_negative(capsys):
    assert main(["coupon", "--n", "2", "--x", "5e-324,1", "--forms", "integral"]) == 0
    assert json.loads(capsys.readouterr().out)["integral"] == "+inf"


def _strict_json(text: str) -> dict:
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_coupon_discrepancy_is_zero_between_equal_infinities(capsys):
    assert main(["coupon", "--n", "2", "--x", "5e-324,1", "--forms", "all"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["perm"] == doc["ie"] == doc["integral"] == "+inf"
    assert doc["max_discrepancy"] == 0.0


def test_coupon_discrepancy_of_a_finite_and_an_infinite_form_is_inf(monkeypatch, capsys):
    monkeypatch.setattr(cli, "coupon_pn_integral", lambda x: float("inf"))
    assert main(["coupon", "--x", "1,2,3", "--forms", "all"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["ie"] == pytest.approx(1.2166666666666666) and doc["integral"] == "+inf"
    assert doc["max_discrepancy"] == "+inf"


@pytest.mark.parametrize("x", ["3.99168061906944e+292,5e-324", "1,3.99168061906944e+292,5e-324"])
def test_coupon_ie_past_its_range_is_refused(x, capsys):
    # once a traceback from math.ldexp, once "ie": NaN
    assert main(["coupon", "--x", x, "--forms", "ie"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: max(x)/min(x) is about 1e616;") and "Traceback" not in err


@pytest.mark.parametrize("forms", ["perm", "all"])
def test_coupon_nan_form_is_refused(forms, capsys):
    # the float permutation form is inf / inf here; this once printed "perm": NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["coupon", "--x", "5e-324,5e-324,1e+200", "--forms", forms]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the perm form is NaN in floats at this x\n"


def test_coupon_negative_probe_trials_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "c.json")
    assert main(["coupon", "--x", "1,2", "--probe-trials", "-3", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == "usage error: --probe-trials must be >= 0 (0: no probe), got -3\n"
    assert main(["coupon", "--x", "1,2", "--probe-trials", "0", "--out", out]) == 0
    assert "probe" not in json.load(open(out))


@pytest.mark.parametrize("x, trials, cap, message", [
    (",".join(map(str, range(1, 25))), "1", None, "error: probe supports 2 <= N <= 10\n"),
    ("1,2", "3", 3095, "error: coupon_convexity_probe needs 3096 subset terms, cap is 3095\n"),
], ids=["n-past-the-probe-range", "work-past-the-cap"])
def test_coupon_probe_is_refused_before_any_form_runs(x, trials, cap, message, monkeypatch, capsys):
    # the probe's range and work count are checked first: at N = 24 the
    # inclusion-exclusion form's 2^24 terms ran and were discarded before
    for form in ("coupon_pn_perm", "coupon_pn_ie", "coupon_pn_integral"):
        monkeypatch.setattr(cli, form, _no_form)
    if cap is not None:
        monkeypatch.setattr("convexdesk.fenchel.MAX_DIRECT_PAIRS", cap)
    assert main(["coupon", "--x", x, "--forms", "all", "--probe-trials", trials]) == 1
    assert capsys.readouterr() == ("", message)


def _no_form(x):
    raise AssertionError("a coupon form ran before the probe was refused")


def test_envelope_job_matches_huber(tmp_path):
    out = str(tmp_path / "e.csv")
    rc = main(["envelope", "--atom", "abs", "--grid", "-3:3:601", "--lambda", "1",
               "--out", out])
    assert rc == 0
    vals = {float(l.split(",")[0]): float(l.split(",")[1])
            for l in open(out).read().splitlines()[1:]}
    assert vals[0.5] == pytest.approx(0.125, abs=1e-6)
    assert vals[2.0] == pytest.approx(1.5, abs=1e-6)


def test_reports_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["coupon", "--x", "1,2,3", "--forms", "all", "--probe-trials", "5",
            "--seed", "42"]
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_prox_job_report(tmp_path):
    out = str(tmp_path / "p.json")
    rc = main(["prox", "--atom", "abs", "--grid", "-4:4:801", "--lambda", "1",
               "--x", "3.0", "--out", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["prox"] == [2.0]
    assert doc["certificate_eps"] <= 1e-6
    assert set(doc) >= {"x", "prox", "envelope", "lambda", "certificate_eps"}


def test_project_and_volume_and_gamma(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["project", "--box", "-1:1,-1:1", "--x", "3,0.5", "--out", out]) == 0
    assert json.load(open(out))["projection"] == [1.0, 0.5]
    assert main(["volume", "--dim", "5", "--p", "inf", "--out", out]) == 0
    assert json.load(open(out))["volume"] == 32.0
    assert main(["gamma", "--x", "1.0", "--n", "1000", "--out", out]) == 0
    assert json.load(open(out))["value"] == pytest.approx(1000 / 1001, rel=1e-12)


def test_fitzpatrick_job(tmp_path):
    xs = np.linspace(-2, 2, 401)[:, None]
    gpath = str(tmp_path / "g.json")
    write_graph_json(OperatorGraph(xs, xs), gpath)
    out = str(tmp_path / "fz.json")
    rc = main(["fitzpatrick", "--graph", gpath, "--x", "1.0", "--xstar", "1.0",
               "--out", out])
    assert rc == 0
    assert json.load(open(out))["value"] == pytest.approx(1.0, abs=1e-12)


def test_fitzpatrick_job_refuses_a_nan_term(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    pts = np.array([[1e200], [-1e200], [0.0]])
    write_graph_json(OperatorGraph(pts, pts), gpath)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fitzpatrick", "--graph", gpath, "--x", "1e200", "--xstar", "-1e200"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: stored pair 0 gives a NaN Fitzpatrick term")


@pytest.mark.parametrize("dim, x", [(1, "1,2"), (2, "1")])
def test_fitzpatrick_job_refuses_a_query_of_the_wrong_dimension(tmp_path, capsys, dim, x):
    gpath = str(tmp_path / "g.json")
    write_graph_json(OperatorGraph(np.zeros((2, dim)), np.ones((2, dim))), gpath)
    assert main(["fitzpatrick", "--graph", gpath, "--x", x, "--xstar", x]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: inner product of vectors of")


@pytest.mark.parametrize("grid", ["-2:2:41", "-1:1:1001"])
def test_conjugate_job_of_an_affine_function_takes_the_default_dual_grid(tmp_path, grid):
    # the slopes spread over a few ulps of 0.5, too narrow for distinct dual nodes
    out = str(tmp_path / "c.json")
    assert main(["conjugate", "--atom", "linear", "--params", "0.5", f"--grid={grid}", "--out", out]) == 0
    assert read_gridfn_json(out).grid.axes[0][2] == int(grid.split(":")[2])


def test_resolvent_job(tmp_path):
    out = str(tmp_path / "rv.json")
    rc = main(["resolvent", "--atom", "power", "--params", "2", "--grid",
               "-6:6:1201", "--lambda", "1", "--z", "2.0", "--out", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["x"][0] == pytest.approx(1.0, abs=1e-6)


def test_renorm_job(tmp_path):
    out = str(tmp_path / "rn.json")
    rc = main(["renorm", "--grid", "-2:2:41x-2:2:41", "--steps", "2", "--out", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["C"] == pytest.approx(1.0, abs=1e-9)
    assert [rec["n"] for rec in doc["iterations"]] == [0, 1, 2]
    assert [rec["window_nodes"] for rec in doc["iterations"]] == [41 ** 2, 21 ** 2, 11 ** 2]


def test_renorm_grid_too_coarse_for_its_steps_is_refused_before_any_work(monkeypatch, capsys):
    monkeypatch.setattr("convexdesk.cli.init_pair", None)  # any work fails
    assert main(["renorm", "--grid", "-4:4:81x-4:4:81", "--steps", "6"]) == 1
    assert capsys.readouterr().err == (
        "error: --steps 6 leaves a valid window of half-width 0.0625, below the grid "
        "spacing 0.1; use fewer steps or a finer grid\n"
    )


def test_renorm_past_the_merge_cap_exits_1_without_a_traceback(monkeypatch, capsys):
    # at 21², the first step merges the 21 even output rows: 221 row pairs
    # of 40 increments
    monkeypatch.setattr("convexdesk.fenchel.MAX_DIRECT_PAIRS", 8839)
    assert main(["renorm", "--grid", "-2:2:21x-2:2:21", "--steps", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: Minkowski merge needs 8840 sorted increments, cap is 8839\n"
    monkeypatch.setattr("convexdesk.fenchel.MAX_DIRECT_PAIRS", 8840)
    assert main(["renorm", "--grid", "-2:2:21x-2:2:21", "--steps", "1"]) == 0


def test_duality_job(tmp_path):
    out = str(tmp_path / "d.json")
    rc = main(["duality", "--f-atom", "power", "--f-params", "2", "--g-atom", "power",
               "--g-params", "2", "--T", "1", "--grid", "-6:6:1201",
               "--dual", "-4:4:801", "--g-dual", "-4:4:801", "--out", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["gap"] >= -1e-9 and doc["gap"] <= 1e-6


def test_infconv_job_from_files(tmp_path):
    from convexdesk.atoms import FnAtom, sample

    g = Grid.line(-2, 2, 401)
    f1, f2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
    write_gridfn_json(sample(FnAtom("abs"), g), f1)
    write_gridfn_json(sample(FnAtom("indicator", (-1.0, 1.0)), g), f2)
    out = str(tmp_path / "ic.json")
    rc = main(["infconv", "--in", f1, "--in2", f2, "--out", out])
    assert rc == 0
    got = read_gridfn_json(out)
    xs = g.coords(0)
    ref = np.maximum.reduce([-1.0 - xs, np.zeros_like(xs), xs - 1.0])
    assert np.max(np.abs(got.values - ref)) <= 1e-9  # distance to [-1, 1]


# Golden runs through `main`: (label, argv, key path into the stdout report,
# expected, tolerance on the largest absolute error).  Each is a closed form
# that no other test here pins as tightly; "GRAPH" stands for the identity
# graph on 401 nodes of [-2, 2].
GOLDEN = [
    ("conjugate-of-half-square-at-1", ["conjugate", "--atom", "power", "--params", "2",
     "--grid=-5:5:1001", "--dual=-3:3:601"], ("values", 400), 0.5, 1e-4),
    ("conjugate-of-exp-at-1", ["conjugate", "--atom", "exp", "--grid=-10:3:2001",
     "--dual=-1:5:601"], ("values", 200), -1.0, 1e-3),
    ("abs-is-its-biconjugate", ["biconjugate", "--atom", "abs", "--grid=-2:2:401",
     "--dual=-2:2:401"], ("values",), np.abs(np.linspace(-2, 2, 401)), 1e-9),
    ("half-circle-box-abs-at-1", ["infconv", "--atom", "negsqrt_circle", "--atom2", "abs",
     "--grid=-2:2:4001"], ("values", 3000), 1 - np.sqrt(2), 2e-3),
    ("indicator-envelope-at-3", ["envelope", "--atom", "indicator", "--params=-1,1",
     "--grid=-4:4:801"], ("values", 700), 2.0, 1e-12),
    ("prox-of-indicator-clamps-3", ["prox", "--atom", "indicator", "--params=-1,1",
     "--grid=-4:4:801", "--x", "3"], ("prox", 0), 1.0, 1e-9),
    ("soft-threshold-dead-zone", ["prox", "--atom", "abs", "--grid=-4:4:801", "--x", "0.4"],
     ("prox", 0), 0.0, 1e-9),
    ("clamp-3-into-unit-interval", ["project", "--box=-1:1", "--x", "3"], ("projection",),
     [1.0], 0.0),
    ("singleton-box", ["project", "--box", "0:0", "--x", "7"], ("projection",), [0.0], 0.0),
    ("identity-graph-off-graph-point", ["fitzpatrick", "--graph", "GRAPH", "--x", "1",
     "--xstar=-1"], ("value",), 0.0, 1e-9),
    ("resolvent-of-identity-y", ["resolvent", "--atom", "power", "--params", "2",
     "--grid=-6:6:1201", "--z", "2"], ("y", 0), 1.0, 1e-6),
    # one step contracts C = 1 to C / 4, up to the slack 10 h
    ("renorm-one-step-contracts", ["renorm", "--grid=-2:2:41x-2:2:41", "--steps", "1"],
     ("iterations", 1, "r_n"), 0.25, 10 * 0.1),
    ("coupon-p1-of-2", ["coupon", "--x", "2", "--forms", "perm"], ("perm",), 0.5, 0.0),
    ("coupon-p2-of-1-1", ["coupon", "--x", "1,1", "--forms", "ie"], ("ie",), 1.5, 1e-12),
    ("volume-disc", ["volume", "--dim", "2", "--p", "2"], ("volume",), np.pi, 1e-12),
    ("volume-cross-polytope", ["volume", "--dim", "3", "--p", "1"], ("volume",), 4 / 3, 1e-12),
    ("gamma-limit-at-3", ["gamma", "--x", "3", "--n", "1000000"], ("value",), 2.0, 1e-4),
    ("duality-of-half-squares", ["duality", "--f-atom", "power", "--f-params", "2",
     "--g-atom", "power", "--g-params", "2", "--grid=-6:6:1201", "--dual=-4:4:801",
     "--g-dual=-4:4:801"], ("dual",), 0.0, 0.0),
]


@pytest.mark.parametrize("argv, key, want, tol", [row[1:] for row in GOLDEN],
                         ids=[row[0] for row in GOLDEN])
def test_golden_run(argv, key, want, tol, tmp_path, capsys):
    if "GRAPH" in argv:
        xs = np.linspace(-2, 2, 401)[:, None]
        write_graph_json(OperatorGraph(xs, xs), str(tmp_path / "g.json"))
        argv = [str(tmp_path / "g.json") if a == "GRAPH" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv)
    out = capsys.readouterr()
    assert (rc, out.err) == (0, "")
    got = _strict_json(out.out)
    for k in key:
        got = got[k]
    assert np.max(np.abs(np.asarray(got, dtype=float) - want)) <= tol


def test_every_subcommand_has_a_golden_run():
    assert {row[1][0] for row in GOLDEN} == set(SUBCOMMANDS)


# one job per subcommand for the output rule; the first four compute a grid
# function, the rest a report alone
OUTPUT_JOBS = {
    "conjugate": ["--atom", "power", "--params", "2", "--grid=-2:2:9", "--dual=-3:3:7"],
    "biconjugate": ["--atom", "sqnorm2", "--grid=-2:2:5x-1:1:3"],
    "infconv": ["--atom", "abs", "--grid=-2:2:9", "--atom2", "power", "--params2", "3"],
    "envelope": ["--atom", "l1norm", "--grid=-2:2:5x-1:1:3"],
    "prox": ["--atom", "abs", "--grid=-2:2:9", "--x", "0.3"],
    "project": ["--box", "0:1", "--x", "2"],
    "fitzpatrick": ["--graph", "GRAPH", "--x", "0.5", "--xstar", "1"],
    "resolvent": ["--atom", "abs", "--grid=-2:2:9", "--z", "0.7"],
    "renorm": ["--grid=-2:2:21x-2:2:21", "--steps", "1"],
    "coupon": ["--x", "1,2,3", "--probe-trials", "3"],
    "volume": ["--dim", "2", "--p", "2"],
    "gamma": ["--x", "1.5", "--n", "50"],
    "duality": ["--f-atom", "power", "--f-params", "2", "--g-atom", "abs", "--grid=-3:3:31"],
}
GRID_JOBS = ("conjugate", "biconjugate", "infconv", "envelope")


@pytest.mark.parametrize("ext", [None, "json", "csv", "txt"])
@pytest.mark.parametrize("sub", list(OUTPUT_JOBS))
def test_output_rule(sub, ext, tmp_path, capsys):
    """A grid function at a .csv path is write_gridfn_csv's bytes; at any
    other path it is the grid-function JSON with the report's fields beside
    it; with no --out, {"values": ..., **fields} on stdout.  A report is
    JSON at any path, or on stdout."""
    graph = str(tmp_path / "g.json")
    write_graph_json(OperatorGraph([[0.0], [1.0]], [[0.0], [2.0]]), graph)
    argv = [sub] + [graph if a == "GRAPH" else a for a in OUTPUT_JOBS[sub]]
    out = None if ext is None else str(tmp_path / f"r.{ext}")
    assert main(argv + ([] if out is None else ["--out", out])) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    if out is None:
        doc = _strict_json(printed.out)
    else:
        assert printed.out == ""
        text = Path(out).read_text()
        if sub in GRID_JOBS and ext == "csv":
            assert main(argv + ["--out", str(tmp_path / "f.json")]) == 0
            f = read_gridfn_json(str(tmp_path / "f.json"))
            write_gridfn_csv(f, str(tmp_path / "f.csv"))
            assert text == Path(tmp_path / "f.csv").read_text()
            return
        doc = _strict_json(text)
        assert doc["schema"] == 1
    if sub in GRID_JOBS:
        values = np.asarray(doc["values"], dtype=float)
        if out is not None:  # the grid-function JSON: flat values, read back bit for bit
            assert doc["dim"] == len(doc["axes"]) and values.ndim == 1
            assert read_gridfn_json(out).values.ravel().tobytes() == values.tobytes()
        if sub == "conjugate":
            assert np.asarray(doc["argmax"]).shape == values.shape
    assert ("argmax" in doc) == (sub == "conjugate")


def test_every_subcommand_has_an_output_rule_row():
    assert set(OUTPUT_JOBS) == set(SUBCOMMANDS)


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) >= 7 and all(line.startswith("convexdesk ") for line in lines)
    for line in lines:
        parse_args(shlex.split(line)[1:])


@pytest.mark.parametrize("b", ["1e11", "1e12", "inf"])
def test_prox_onto_an_indicator_with_one_huge_bound(b, capsys):
    # a slack from the huge bound widened [1, b]: prox 0.9, then 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["prox", "--atom", "indicator", "--params", f"1,{b}", "--grid=-4:4:801",
                   "--x", "0"])
    out = capsys.readouterr()
    assert (rc, out.err) == (0, "")
    assert _strict_json(out.out)["prox"] == [1.0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["conjugate", "--atom", "point", "--params", "inf", "--grid=-2:2:5"],
         "error: point atom requires a finite a, got inf\n"),
        (["conjugate", "--atom", "linear", "--params", "inf", "--grid=-2:2:5"],
         "error: linear atom requires a finite a, got inf\n"),
        (["renorm", "--grid=-1e-200:1e-200:5x-1e-200:1e-200:5", "--steps", "1"],
         "error: half-squared norms vanish at every node of the grid "
         "((-1e-200, 1e-200, 5), (-1e-200, 1e-200, 5))\n"),
        (["renorm", "--grid=-1e160:1e160:5x-1e160:1e160:5", "--steps", "1"],
         "error: half-squared norms overflow on the grid "
         "((-1e+160, 1e+160, 5), (-1e+160, 1e+160, 5))\n"),
    ],
    ids=["point", "linear", "renorm-underflow", "renorm-overflow"],
)
def test_non_finite_atoms_and_norms_are_refused(argv, message, capsys):
    # point(inf) ran as the zero function; linear(inf), and norms that
    # underflow or overflow, warned and ended as usage errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert (rc, capsys.readouterr()) == (1, ("", message))


@pytest.mark.parametrize("extra", [["--T", "1e300"], ["--g-grid=-1e-10:1e-10:5"]])
def test_duality_past_the_float_range_warns_only_of_truncation(extra, capsys):
    # T x, and T x's cell index on a tiny g grid, overflowed with RuntimeWarnings
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = main(["duality", "--f-atom", "abs", "--g-atom", "abs", "--grid=-1e300:1e300:5",
                   *extra])
    assert [w.category for w in seen] == [TruncationWarning]
    assert (rc, capsys.readouterr().out) == (0, '{"dual": -0.0, "gap": 0.0, "primal": 0.0}\n')


def test_computation_error_exit_code(tmp_path):
    # improper input: all +inf
    g = Grid.line(-1, 1, 5)
    from convexdesk.grids import GridFn

    p = str(tmp_path / "bad.json")
    write_gridfn_json(GridFn(g, [np.inf] * 5), p)
    rc = main(["conjugate", "--in", p, "--dual", "-1:1:5", "--out", str(tmp_path / "o.csv")])
    assert rc == 1


def test_conjugate_at_the_float_limit_scans_dom_f_only(tmp_path, capsys):
    # y x - f at the +inf node was 1e310 - inf = nan: two RuntimeWarnings
    # and a usage error; a node off dom f gives -inf
    p = str(tmp_path / "f.json")
    write_gridfn_json(GridFn(Grid.line(-1e300, 1e300, 3), [0.0, 0.0, np.inf]), p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["conjugate", "--in", p, "--dual=-1e10:1e10:3"])
    out = capsys.readouterr()
    assert (rc, out.err) == (0, "")
    assert out.out == '{"argmax": [0, 0, 1], "values": ["+inf", -0.0, 0.0]}\n'


@pytest.mark.parametrize("argv", [
    ["envelope", "--atom", "const", "--params", "1.7e308", "--grid=-1:1:5"],
    ["prox", "--atom", "const", "--params", "1e308", "--grid=-1:1:5", "--x", "0.3"],
])
def test_a_constant_near_the_float_limit_passes_the_convexity_check(argv, capsys):
    # its second difference a - 2b + c overflowed at 2b: "violation at (1,)"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_conjugate_refuses_inf_minus_inf_in_dom_f(tmp_path, capsys):
    # x1 y1 = +inf and x2 y2 = -inf at a node of dom f: the term was nan,
    # and the job ended as a usage error ("GridFn values cannot contain NaN")
    p = str(tmp_path / "f.json")
    write_gridfn_json(GridFn(Grid.box((-1e300, 1e300, 3), (-1e300, 1e300, 3)), np.zeros((3, 3))), p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["conjugate", "--in", p, "--dual=-1e10:1e10:3x-1e10:1e10:3"])
    out = capsys.readouterr()
    assert (rc, out.out) == (1, "")
    assert "dual node y = [-10000000000.0, -10000000000.0]" in out.err
    assert "primal node x = [-1e+300, 1e+300]" in out.err
    assert "Traceback" not in out.err and "NaN" not in out.err


@pytest.mark.parametrize(
    "argv, want",
    [
        (["prox", "--x", "1e299", "--lambda", "1"],
         {"prox": [0.0], "envelope": "+inf", "certificate_eps": 0.0}),
        (["resolvent", "--z", "1e299", "--lambda", "1e-10"],
         {"x": [0.0], "y": ["+inf"], "certificate_eps": "+inf"}),
    ],
)
def test_prox_and_resolvent_stay_in_dom_f_where_every_objective_overflows(argv, want, capsys):
    # on [-1e300, 1e300] both prox rules overflow at every node: node 0,
    # off dom f, was the prox, and the certificates were NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([argv[0], "--atom", "indicator", "--params", "-1,1", "--grid=-1e300:1e300:3",
                   *argv[1:]])
    out = capsys.readouterr()
    assert (rc, out.err) == (0, "")
    doc = _strict_json(out.out)
    assert {k: doc[k] for k in want} == want


@pytest.mark.parametrize(
    "grid, message",
    [
        ("1:-1:3", "axis needs hi > lo, got [1.0, -1.0]"),
        ("-inf:1:3", "axis 0 needs finite bounds, got lo = -inf"),
        ("-1:inf:3x-1:1:3", "axis 0 needs finite bounds, got hi = inf"),
        ("-1e308:1e308:3", "axis 0 spacing overflows: hi - lo of [-1e+308, 1e+308]"),
        ("-1:1:3x-1e308:1e308:3", "axis 1 spacing overflows"),
    ],
)
def test_bad_grid_bounds_are_computation_errors(grid, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns
        assert main(["conjugate", "--atom", "abs", f"--grid={grid}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("opt", ["--in", "--in2"])
def test_grid_function_file_with_an_infinite_bound_is_a_computation_error(opt, tmp_path, capsys):
    bad, good = str(tmp_path / "bad.json"), str(tmp_path / "good.json")
    with open(bad, "w") as fh:
        json.dump({**GRID3, "axes": [{"lo": "-inf", "hi": 1.0, "n": 3}], "values": [0.0] * 3}, fh)
    write_gridfn_json(GridFn(Grid.line(-1, 1, 3), [1.0, 0.0, 1.0]), good)
    argv = ["conjugate", "--in", bad] if opt == "--in" else ["infconv", "--in", good, "--in2", bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == "error: axis 0 needs finite bounds, got lo = -inf\n"


def test_subcommand_table_matches_the_parser_and_runs_both_conjugates(tmp_path):
    from convexdesk import cli
    from convexdesk.atoms import FnAtom, sample
    from convexdesk.fenchel import biconjugate, conjugate

    choices = cli._build_parser()._subparsers._group_actions[0].choices
    assert SUBCOMMANDS == tuple(cli.JOBS) and set(SUBCOMMANDS) == set(choices)
    f = sample(FnAtom("abs"), Grid.line(-2, 2, 41))
    dual = Grid.line(-1.5, 1.5, 31)
    once, twice = str(tmp_path / "c.json"), str(tmp_path / "b.json")
    fn = ["--atom", "abs", "--grid", "-2:2:41", "--dual", "-1.5:1.5:31"]
    assert main(["conjugate", *fn, "--out", once]) == 0
    assert main(["biconjugate", *fn, "--out", twice]) == 0
    res = conjugate(f, dual)
    doc = json.load(open(once))
    assert doc["values"] == res.dual.values.tolist() and doc["argmax"] == res.argmax.tolist()
    assert read_gridfn_json(twice).values.tobytes() == biconjugate(f, dual).values.tobytes()


def test_infconv_over_the_pair_cap_is_computation_error(capsys):
    # 0 must be a node, so an odd count: 3999999 nodes is the largest grid
    rc = main(["infconv", "--atom", "abs", "--grid", "-1:1:3999999", "--atom2", "abs"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: direct inf-convolution needs 11999994000001 (x, y) pairs, cap is 2000000000\n"


def test_tolerance_env_override(monkeypatch):
    from convexdesk.cli import default_tol

    monkeypatch.setenv("CONVEXDESK_TOL", "1e-5")
    assert default_tol() == 1e-5
    monkeypatch.delenv("CONVEXDESK_TOL")
    assert default_tol() is None


@pytest.mark.parametrize("argv", [["envelope", "--in", "F"], ["renorm", "--grid=-2:2:21x-2:2:21", "--steps", "1"]])
def test_nan_tolerance_env_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # a NaN tolerance passed every check: the envelope of a nonconvex f exited 0
    path = str(tmp_path / "f.json")
    write_gridfn_json(GridFn(Grid.line(-1, 1, 5), [0.0, 0.0, 1.0, 0.0, 0.0]), path)
    monkeypatch.setenv("CONVEXDESK_TOL", "nan")
    assert main([path if a == "F" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: CONVEXDESK_TOL must be a number, got 'nan'\n"


def test_tolerance_env_override_covers_prox_envelope_and_resolvent(tmp_path, monkeypatch, capsys):
    # one node 1e-6 above zero: a second difference of -2e-6
    vals = np.zeros(41)
    vals[20] = 1e-6
    path = str(tmp_path / "f.json")
    write_gridfn_json(GridFn(Grid.line(-1, 1, 41), vals), path)
    jobs = [["prox", "--in", path, "--x", "0.3"], ["envelope", "--in", path],
            ["resolvent", "--in", path, "--z", "0.3"]]
    monkeypatch.delenv("CONVEXDESK_TOL", raising=False)
    for argv in jobs:
        assert main(argv) == 1
        assert "requires convex f" in capsys.readouterr().err
    monkeypatch.setenv("CONVEXDESK_TOL", "1e-5")
    out = str(tmp_path / "r.json")
    for argv in jobs:
        assert main(argv + ["--out", out]) == 0, argv
    doc = json.load(open(out))
    assert doc["z"][0] == pytest.approx(doc["x"][0] + doc["lambda"] * doc["y"][0], abs=1e-12)


def test_a_zero_tolerance_env_is_zero_for_the_convexity_check(tmp_path, monkeypatch, capsys):
    # one second difference of -1e-12 (relative to max(1, |f|)): within the
    # default 1e-9, and a violation at CONVEXDESK_TOL=0, which read as unset
    vals = np.zeros(41)
    vals[20] = 5e-13
    path = str(tmp_path / "f.json")
    write_gridfn_json(GridFn(Grid.line(-1, 1, 41), vals), path)
    argv = ["prox", "--in", path, "--x", "0.3"]
    monkeypatch.delenv("CONVEXDESK_TOL", raising=False)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("CONVEXDESK_TOL", "0")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "requires convex f" in err and "(20,)" in err


GRID3 = {"schema": 1, "dim": 1, "axes": [{"lo": -1.0, "hi": 1.0, "n": 3}]}
GRID4 = {"schema": 1, "dim": 1, "axes": [{"lo": -1.0, "hi": 1.0, "n": 4}]}


@pytest.mark.parametrize(
    "doc, rc, message",
    [
        ({**GRID3, "values": [0.0, None, 1.0]}, 2, "value at index [1] is null or NaN"),
        ({**GRID3, "values": [0.0, "NaN", 1.0]}, 2, "value at index [1] is null or NaN"),
        ({**GRID4, "values": [[0.0, 1.0], [2.0, 3.0]]}, 2, "flat list of 4 numbers, got shape (2, 2)"),
        ({**GRID3, "values": [0.0, [1.0], 2.0]}, 2, "malformed grid function"),
        ({**GRID3, "values": [0.0, "abc", 1.0]}, 2, "could not convert string to float: 'abc'"),
        ({**GRID3, "values": [0.0, {}, 1.0]}, 2, "malformed grid function (TypeError"),
        ({**GRID3, "values": [0.0, 1.0]}, 2, "flat list of 3 numbers, got shape (2,)"),
        ({**GRID3, "values": 7}, 2, "flat list of 3 numbers, got shape ()"),
        ({**GRID3}, 2, "malformed grid function (KeyError: 'values')"),
        ({**GRID3, "axes": [{"lo": None, "hi": 1.0, "n": 3}], "values": [0.0] * 3}, 2,
         "malformed grid function (TypeError"),
        ({**GRID3, "axes": [{"lo": -1.0, "hi": 1.0, "n": 1e400}], "values": [0.0] * 3}, 2,
         "malformed grid function (OverflowError"),
        ([0.0, 1.0], 1, "unsupported schema None"),
        ({**GRID3, "values": [0.0, True, 1.0]}, 2, "value at index [1] is true, not a number"),
        ({**GRID3, "values": ["+inf", "1e3", 1.0]}, 2, 'value at index [1] is "1e3", not a number'),
        ({**GRID3, "values": ["+inf", "-inf", "inf"]}, 2, 'value at index [2] is "inf", not a number'),
        ({**GRID3, "axes": [{"lo": "-1", "hi": 1.0, "n": 3}], "values": [0.0] * 3}, 2,
         'axis lo/hi at index [0, 0] is "-1", not a number'),
        ({**GRID3, "axes": [{"lo": -1.0, "hi": True, "n": 3}], "values": [0.0] * 3}, 2,
         "axis lo/hi at index [0, 1] is true, not a number"),
        ({**GRID3, "axes": [{"lo": -1.0, "hi": 1.0, "n": "3"}], "values": [0.0] * 3}, 2,
         'node counts n must be integers: [{"lo": -1.0, "hi": 1.0, "n": "3"}]'),
        ({**GRID3, "axes": [{"lo": -1.0, "hi": 1.0, "n": 3.0}], "values": [0.0] * 3}, 2,
         'node counts n must be integers: [{"lo": -1.0, "hi": 1.0, "n": 3.0}]'),
    ],
)
@pytest.mark.parametrize("opt", ["--in", "--in2"])
def test_malformed_grid_function_file_is_refused(doc, rc, message, opt, tmp_path, capsys):
    bad, good = str(tmp_path / "bad.json"), str(tmp_path / "good.json")
    with open(bad, "w") as fh:
        fh.write(json.dumps(doc).replace("Infinity", "1e400"))
    write_gridfn_json(GridFn(Grid.line(-1, 1, 3), [1.0, 0.0, 1.0]), good)
    if opt == "--in":
        argv = ["conjugate", "--in", bad, "--dual", "-1:1:5"]
    else:
        argv = ["infconv", "--in", good, "--in2", bad]
    assert main(argv) == rc
    err = capsys.readouterr().err
    assert err.startswith("usage error: " if rc == 2 else "error: ")
    assert message in err


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([[[0.0], [0.0]], [[1.0], [None]]], "coordinate at index [1, 1, 0] is null or NaN"),
        ([[[0.0], [0.0]], [[1.0], ["abc"]]], "could not convert string to float: 'abc'"),
        ([[[[0.0]], [[0.0]]]], "pairs must be a nonempty list of [x, x*] coordinate-list pairs"),
        ([[[0.0], [0.0]], [[1.0, 2.0], [1.0]]], "malformed operator graph (ValueError"),
        ([[[0.0], [0.0], [1.0]]], "got shape (1, 3, 1)"),
        ([], "got shape (0,)"),
        ("abc", "could not convert string to float"),
        ([[[0.0], [0.0]], [[1.0], [False]]], "coordinate at index [1, 1, 0] is false, not a number"),
        ([[[0.0], ["2"]], [[1.0], [1.0]]], 'coordinate at index [0, 1, 0] is "2", not a number'),
    ],
)
def test_malformed_graph_file_is_refused(pairs, message, tmp_path, capsys):
    bad = str(tmp_path / "g.json")
    with open(bad, "w") as fh:
        json.dump({"schema": 1, "dim": 1, "pairs": pairs}, fh)
    assert main(["fitzpatrick", "--graph", bad, "--x", "1", "--xstar", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err


def test_unreadable_input_files_are_usage_errors(tmp_path, capsys):
    deep = str(tmp_path / "deep.json")
    with open(deep, "w") as fh:
        fh.write("[" * 100000 + "]" * 100000)
    assert main(["conjugate", "--in", deep]) == 2
    assert "nested too deeply" in capsys.readouterr().err
    assert main(["conjugate", "--in", str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err.startswith("usage error: ")


def test_cached_parser_gives_each_call_fresh_options_and_defaults(tmp_path, capsys):
    from convexdesk import cli

    def fresh(argv):
        opts = vars(cli._build_parser.__wrapped__().parse_args(argv))
        opts.pop("subcommand")
        return opts

    fn = ["--atom", "abs", "--grid", "-4:4:801", "--x", "3.0"]
    out = str(tmp_path / "r.json")
    runs = [
        (["prox", *fn, "--lambda", "2"], "lambda", 2.0),
        (["prox", *fn], "lambda", 1.0),
        (["coupon", "--x", "1,2", "--probe-trials", "2", "--seed", "5"], "probe", 5),
        (["coupon", "--x", "1,2", "--probe-trials", "2"], "probe", 0),
        (["renorm", "--grid", "-2:2:21x-2:2:21", "--steps", "1", "--norm1", "l2norm",
          "--norm2", "l1norm"], "C", None),
        (["renorm", "--grid", "-2:2:21x-2:2:21", "--steps", "1"], "C", None),
    ]
    for argv, key, want in runs:
        assert parse_args(argv).options == fresh(argv)
        assert main(argv + ["--out", out]) == 0
        got = json.load(open(out))[key]
        if key == "probe":
            got = got["seed"]
        assert want is None or got == want
    assert parse_args(["renorm"]).options == fresh(["renorm"])
    assert parse_args(["renorm"]).options["steps"] == 6
    assert cli._build_parser() is cli._build_parser()
    capsys.readouterr()
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert "usage: convexdesk" in capsys.readouterr().out
    assert main(["nosuch"]) == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err
    assert main(["prox", "--help"]) == 0
    assert main(["prox", *fn, "--lambda", "2", "--out", out]) == 0
    assert json.load(open(out))["lambda"] == 2.0


@pytest.mark.parametrize(
    "argv, want",
    [
        (["prox", "--x", "1e300"], {"prox": [0.0], "envelope": -5e299}),
        (["resolvent", "--z", "1e300"], {"x": [0.0], "y": [1.0], "certificate_eps": 0.0}),
    ],
)
def test_prox_and_resolvent_take_the_exact_node_where_the_squares_overflow(tmp_path, capsys, argv,
                                                                           want):
    # (x - y)^2 overflows at two of three nodes: the report was prox 1e300
    # with envelope 0.0, and resolvent x = 1e300, y = 0, eps = 1e300
    p = str(tmp_path / "f.json")
    write_gridfn_json(GridFn(Grid.line(0, 1e300, 3), [-1e300, -5e299, 0.0]), p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([argv[0], "--in", p, "--lambda", "1e300", *argv[1:]])
    out = capsys.readouterr()
    assert (rc, out.err) == (0, "")
    doc = _strict_json(out.out)
    assert {k: doc[k] for k in want} == want


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["prox", "--atom", "abs", "--grid=-4:4:801", "--lam", "2", "--x", "3"], "--lam 2"),
        (["prox", "--atom", "abs", "--gri=-4:4:801", "--x", "3"], "--gri=-4:4:801"),
        (["conjugate", "--atom", "abs", "--grid=-4:4:801", "--dua=-1:1:3"], "--dua=-1:1:3"),
    ],
    ids=["lam", "gri", "dua"],
)
def test_option_prefixes_are_usage_errors(argv, bad, capsys):
    # argparse took any unambiguous prefix: --lam ran as --lambda 2
    assert main(argv) == 2
    assert f"unrecognized arguments: {bad}\n" in capsys.readouterr().err
