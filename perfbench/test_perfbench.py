"""Tests of the benchmark itself (run: python -m pytest perfbench).

Tiny versions of the workloads keep these fast; they check the metric
names and units against BENCHMARK.json, the self-time arithmetic, and
that the output checks catch corrupted results.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import convexdesk  # noqa: E402
import convexdesk.cli  # noqa: E402,F401

import harness  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Recorder, Span, patched, self_times  # noqa: E402
import layers  # noqa: E402

ERR = convexdesk.errors.ConvexDeskError


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](workloads.Context(convexdesk, seed, str(tmp_path), tiny=True))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, spec, tmp_path):
    assert name in {w["name"] for w in spec["workloads"]}
    wl = tiny(name, tmp_path)
    clock = harness.Clock(str(tmp_path))
    passes = harness.run_passes(wl.jobs, ERR, 0.0, clock)
    e2e, info = harness.end_to_end(passes, 0.5, 1.0)
    assert {k: v["unit"] for k, v in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e.values())
    assert 0 <= info["fail_ratio"] < 1

    per_layer, traced = harness.traced_run(wl, Recorder(), [], ERR, 0.0, harness.Clock(str(tmp_path)))
    assert {k: v["unit"] for k, v in per_layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer["trace.overhead"]["value"] > 0
    # no failure other than the known conjugate defect
    assert all(defect for p in traced for _, _, defect in p.failures)


def test_workload_reaches_its_layers(tmp_path):
    reached = {
        "line-1d": ["fenchel.conjugate.calls", "moreau.moreau_envelope.peak_mb", "cli.main.calls",
                    "fileio.read.bytes", "monotone.resolvent.calls"],
        "grid-2d": ["fenchel.conjugate.exponent_2d", "grids.discrete_convexity_check.repeat_ratio",
                    "fenchel.inf_convolution.exponent", "moreau.prox.calls"],
        "renorm": ["renorm.asplund_step.peak_mb", "fenchel.minkowski_infconv_convex.calls"],
        "coupon": ["special.coupon_pn_ie.calls", "special.coupon_convexity_probe.self_s"],
    }
    for name, metrics in reached.items():
        wl = tiny(name, tmp_path)
        per_layer, _ = harness.traced_run(wl, Recorder(), [], ERR, 0.0, harness.Clock(str(tmp_path)))
        for m in metrics:
            assert per_layer[m]["value"] != 0, (name, m)


def test_coupon_ie_calls_repeat_exactly(tmp_path):
    counts = set()
    for _ in range(2):
        wl = tiny("coupon", tmp_path)
        per_layer, _ = harness.traced_run(wl, Recorder(), [], ERR, 0.0, harness.Clock(str(tmp_path)))
        counts.add(per_layer["special.coupon_pn_ie.calls"]["value"])
    assert len(counts) == 1


def test_self_time_of_nested_spans():
    # parent [0, 10] with children [1, 3] and [4, 7]; grandchild [1.5, 2.5]
    # inside the first child; a second top-level span [11, 12]
    spans = [
        Span("a", 0.0, 10.0, -1, 0),
        Span("b", 1.0, 3.0, 0, 0),
        Span("c", 1.5, 2.5, 1, 0),
        Span("b", 4.0, 7.0, 0, 0),
        Span("d", 11.0, 12.0, -1, 0),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 2.0 - 3.0)
    assert st[1] == pytest.approx(2.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)


def test_recorder_links_parents_and_restores_originals():
    rec = Recorder()
    mod = convexdesk.fenchel
    orig_conj, orig_bi = mod.conjugate, mod.biconjugate
    with patched(layers.wrappers(rec)):
        assert mod.conjugate is not orig_conj
        assert convexdesk.moreau.conjugate is mod.conjugate
        f = convexdesk.sample(convexdesk.FnAtom("abs"), convexdesk.Grid.line(-1, 1, 21))
        rec.start_job(7)
        rec.active = True
        mod.biconjugate(f, convexdesk.Grid.line(-2, 2, 41))
        rec.active = False
    assert mod.conjugate is orig_conj and mod.biconjugate is orig_bi
    assert convexdesk.cli.conjugate is orig_conj
    layers_seen = [s.layer for s in rec.spans]
    assert layers_seen == ["fenchel.biconjugate", "fenchel.conjugate", "fenchel.conjugate"]
    assert [s.parent for s in rec.spans] == [-1, 0, 0]
    assert all(s.job == 7 for s in rec.spans)


def _corrupt(job, path_of, edit):
    """Replace a CLI job's run so it rewrites its output file with `edit`."""
    run = job.run

    def corrupted():
        out = run()
        path = path_of(job)
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return out

    job.run = corrupted


def _out_path(job):
    return job.argv[job.argv.index("--out") + 1]


def _corrupt_result(job, edit):
    """Replace a library job's run so it returns `edit` of its result."""
    run = job.run
    job.run = lambda: edit(run())


def _kind(kind, flag=None):
    return lambda j: j.kind == kind and (flag is None or flag in j.argv)


def _shift_argmax(d):
    d.update(argmax=[a + 1 for a in d["argmax"]])


@pytest.mark.parametrize("name,pick,edit,known", [
    ("line-1d", _kind("conjugate", "--atom"), _shift_argmax, False),
    ("line-1d", _kind("conjugate", "--in"), _shift_argmax, False),
    ("line-1d", _kind("conjugate-adversarial"), _shift_argmax, True),
    ("line-1d", _kind("envelope"), lambda d: d.update(values=[v + 1e-9 for v in d["values"]]), False),
    ("line-1d", _kind("prox"), lambda d: d.update(envelope=d["envelope"] - 1e-6), False),
    ("coupon", _kind("coupon"), lambda d: d.update(ie=d["ie"] * (1 + 1e-9)), False),
])
def test_gate_counts_corrupted_outputs_as_failed(name, pick, edit, known, tmp_path):
    wl = tiny(name, tmp_path)
    # the first such job that passes (some adversarial lines fail as they are)
    job = next(j for j in wl.jobs if pick(j) and not harness.run_pass([j], ERR).failures)
    _corrupt(job, _out_path, edit)
    bad = harness.run_pass([job], ERR, harness.Clock(str(tmp_path)))
    assert len(bad.failures) == 1 and bad.passed == 0
    # only the adversarial lines' oracle mismatch is the known defect: it is
    # counted apart from `failed` and leaves `correct` true
    assert harness.summarize_failures([bad], [job]) == (
        1, 0 if known else 1, known, {job.kind: 1}, 1 if known else 0)


@pytest.mark.parametrize("kind,edit", [
    ("conjugate", lambda r: dataclasses.replace(r, argmax=r.argmax + 1)),
    ("prox-batch", lambda rs: [dataclasses.replace(rs[0], point=tuple(v + 0.05 for v in rs[0].point))]
                              + rs[1:]),
])
def test_gate_flags_corrupted_2d_results(kind, edit, tmp_path):
    wl = tiny("grid-2d", tmp_path)
    job = next(j for j in wl.jobs if j.kind == kind)
    assert harness.run_pass([job], ERR).failures == []
    _corrupt_result(job, edit)
    bad = harness.run_pass([job], ERR)
    assert harness.summarize_failures([bad], [job])[:3] == (1, 1, False)


def test_prox_node_minimum_is_tighter_than_the_certificate():
    import numpy as np

    xs = np.linspace(-6.0, 6.0, 1201)
    fv = xs ** 2
    lam, x = 0.5, np.array([1.234])
    h = xs[1] - xs[0]
    k = int(np.argmin(fv + (x[0] - xs) ** 2 / (2 * lam)))
    for steps, ok in ((0, True), (1, False), (5, False)):
        p = np.array([xs[k + steps]])
        fx = float(fv[k + steps])
        why = oracles.prox_node_min(xs[:, None], fv, fx, x, p, lam, h)
        assert (why is None) == ok, (steps, why)
        # the Fenchel-Young bound alone lets the five-step error through
        tol = oracles.prox_tolerance(h, 12.0, 1, lam)
        assert oracles.fenchel_young(xs[:, None], fv, fx, p, (x - p) / lam, tol)[1] is None


def test_huber_and_fenchel_young_checks_reject_wrong_values():
    import numpy as np

    xs = np.linspace(-3, 3, 61)
    fv = np.abs(xs)
    huber = np.where(np.abs(xs) <= 1, xs ** 2 / 2, np.abs(xs) - 0.5)
    smp = np.arange(61)
    assert oracles.envelope_1d(xs, fv, 1.0, huber, smp, True) is None
    wrong = huber.copy()
    wrong[30] -= 1e-3  # below brute force is allowed there, but not off the closed form
    assert oracles.envelope_1d(xs, fv, 1.0, wrong, smp, True) is not None
    _, why = oracles.fenchel_young(xs[:, None], fv, 1.0, np.array([1.0]), np.array([0.5]), 1e-6)
    assert why is not None


def test_exit_code_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupon", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
