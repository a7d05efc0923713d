import json
import warnings

import numpy as np
import pytest

from convexdesk import cli
from convexdesk.cli import SUBCOMMANDS, main, parse_args, parse_grid_spec
from convexdesk.fileio import read_gridfn_json, write_graph_json, write_gridfn_json
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


def test_every_subcommand_selftests_green(capsys):
    for sub in SUBCOMMANDS:
        rc = main([sub, "--selftest"])
        captured = capsys.readouterr()
        assert rc == 0, f"{sub}: {captured.out}"
        assert "FAIL" not in captured.out


def test_computation_error_exit_code(tmp_path):
    # improper input: all +inf
    g = Grid.line(-1, 1, 5)
    from convexdesk.grids import GridFn

    p = str(tmp_path / "bad.json")
    write_gridfn_json(GridFn(g, [np.inf] * 5), p)
    rc = main(["conjugate", "--in", p, "--dual", "-1:1:5", "--out", str(tmp_path / "o.csv")])
    assert rc == 1


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
