import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_coupon_probe_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "coupon_probe.py"), "4", "20", "42"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    forms, spot, probe = (json.loads(line) for line in res.stdout.splitlines())
    assert forms["forms_equal"] is True
    assert spot["discrepancy"] <= 1e-8
    assert probe["trials"] == 20 and probe["seed"] == 42 and len(probe["worst_point"]) == 4
    assert probe["min_hessian_eig"] >= -1e-5 and probe["max_inv_hessian_eig"] <= 1e-5
