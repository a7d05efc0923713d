import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return res


def test_coupon_probe_script_runs():
    res = _run_script("coupon_probe.py", "4", "20", "42")
    forms, spot, probe = (json.loads(line) for line in res.stdout.splitlines())
    assert forms["forms_equal"] is True
    assert spot["discrepancy"] <= 1e-8
    assert probe["trials"] == 20 and probe["seed"] == 42 and len(probe["worst_point"]) == 4
    assert probe["min_hessian_eig"] >= -1e-5 and probe["max_inv_hessian_eig"] <= 1e-5


def test_asplund_run_script_reports_the_contracted_ratio():
    res = _run_script("asplund_run.py", "2", "41")
    head, *steps, tail = (json.loads(line) for line in res.stdout.splitlines())
    assert head["C"] > 0 and head["h"] == 0.2
    assert [s["n"] for s in steps] == [1, 2]
    for s in steps:
        assert s["bound"] == 4.0 ** -s["n"] * head["C"]
        assert s["r_n"] <= s["bound"] + 10 * head["h"]
    assert tail["elapsed_s"] >= 0


def test_infconv_figure_script_writes_three_csvs(tmp_path):
    res = _run_script("infconv_figure.py", str(tmp_path))
    for name in ("half_circle.csv", "abs.csv", "infconv.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "x,value" and len(lines) == 4002
    assert "max deviation from the piecewise formula" in res.stdout
