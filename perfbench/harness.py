"""Closed loop with one client: jobs run one after another in this process.

A pass runs the workload's fixed job list once and checks every output.
A run repeats passes until its time budget is spent.  Job latency is the
wall time of the job's call into the library; the benchmark's own output
checks run between jobs and are not part of it.

The host's speed drifts by tens of percent within seconds on a shared
machine.  Between jobs, every CALIBRATE_EVERY seconds at most, the harness
times a fixed calibration kernel that does not touch the library.  Each
job's latency is scaled by REFERENCE_S over the kernel's time around that
job (the median of the nearest samples), so it reads in seconds at the
speed the kernel has on the reference machine; a job's latency in the run
is the median of its scaled latencies over the passes.  The unscaled
figures are printed beside the scaled ones.  Workloads whose jobs are
long array computations (`renorm`) are not scaled: the host's slow phases
slow the kernel's kind of work by other factors than theirs.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import tempfile
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field

import layers
from oracles import ORACLE_MISMATCH
from tracer import Recorder, patched
from workloads import CliResult, Job, Workload

# median time of `Clock.kernel` on the reference machine, an Intel Xeon VM
# with 2 vCPUs, Python 3.11, numpy 2.4 and one BLAS thread, when quiet
REFERENCE_S = 4.6e-3
CALIBRATE_EVERY = 0.1
NEAREST = 2  # kernel samples taken on each side of a job


class Clock:
    """Calibration samples (time taken, kernel seconds) taken between jobs.

    The kernel does the kinds of work a CLI job does, without calling the
    library: it builds an argparse parser, does a JSON round trip, a numpy
    sort, interpreted arithmetic and an atomic file write in the work
    directory.
    """

    def __init__(self, workdir: str) -> None:
        import numpy as np

        self.workdir = workdir
        self.arr = np.random.default_rng(0).normal(size=40000)
        self.vals = [float(v) for v in self.arr[:2000]]
        self.times: list[float] = []
        self.samples: list[float] = []

    def kernel(self) -> float:
        t0 = time.perf_counter()
        ap = argparse.ArgumentParser()
        sub = ap.add_subparsers(dest="cmd")
        for i in range(6):
            p = sub.add_parser(f"s{i}")
            for j in range(6):
                p.add_argument(f"--o{j}")
        ap.parse_args(["s3", "--o2", "x"])
        text = json.dumps(self.vals)
        json.loads(text)
        a = self.arr.copy()
        a.sort()
        a.cumsum()
        acc = 0.0
        for i in range(5000):
            acc += i * 0.5
        fd, tmp = tempfile.mkstemp(dir=self.workdir)
        with os.fdopen(fd, "w") as fh:
            fh.write(text[:200])
        os.replace(tmp, os.path.join(self.workdir, "calibration.json"))
        return time.perf_counter() - t0

    def sample(self) -> None:
        seconds = self.kernel()
        self.times.append(time.perf_counter())
        self.samples.append(seconds)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY:
            self.sample()

    def scale_at(self, t: float) -> float:
        """Reference seconds per measured second around time t."""
        i = bisect.bisect_left(self.times, t)
        near = self.samples[max(0, i - NEAREST):i + NEAREST]
        return REFERENCE_S / statistics.median(near)

    def scale(self) -> float:
        """Reference seconds per measured second over all samples so far."""
        return REFERENCE_S / statistics.median(self.samples)


@dataclass
class PassResult:
    starts: list[float]  # perf_counter at each job's start
    raw: list[float]  # wall seconds per job
    failures: list[tuple[int, str, bool]]  # (job index, reason, known defect)
    stats: Counter
    spans: list = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # raw, scaled by the clock

    @property
    def attempted(self) -> int:
        return len(self.raw)

    @property
    def passed(self) -> int:
        return self.attempted - len(self.failures)


def run_job(job: Job, stats: Counter, rec: Recorder | None, index: int, error_type):
    """Run and check one job: (latency, failure reason or None)."""
    if rec is not None:
        rec.start_job(index)
        rec.active = True
    why = None
    t0 = time.perf_counter()
    try:
        out = job.run()
    except error_type as exc:
        why = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # any other exception is a failed job, not a crash
        why = f"uncaught {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if rec is not None:
        rec.active = False
    if why is None and isinstance(out, CliResult) and out.rc != 0:
        why = f"exit code {out.rc}"
    if why is None:
        try:
            why = job.check(out, stats)
        except Exception as exc:  # unreadable or malformed output
            why = f"check raised {type(exc).__name__}: {exc}"
    return latency, why


def run_pass(jobs: list[Job], error_type, clock: Clock | None = None,
             rec: Recorder | None = None) -> PassResult:
    res = PassResult([], [], [], Counter())
    for i, job in enumerate(jobs):
        if clock is not None:
            clock.maybe_sample()
        res.starts.append(time.perf_counter())
        latency, why = run_job(job, res.stats, rec, i, error_type)
        res.raw.append(latency)
        if why is not None:
            defect = job.known_defect and why.startswith(ORACLE_MISMATCH)
            res.failures.append((i, why, defect))
    if rec is not None:
        res.spans, rec.spans = rec.spans, []
    return res


def run_passes(jobs, error_type, seconds: float, clock: Clock | None,
               rec: Recorder | None = None) -> list[PassResult]:
    """Whole passes until the next one would overrun `seconds` (at least one),
    then scale every latency by the calibration around it (if `clock`).

    Garbage left by set-up is frozen first, so collections scan only what
    the jobs allocate, as in a fresh CLI process."""
    gc.collect()
    gc.freeze()
    passes = []
    t0 = time.perf_counter()
    try:
        while True:
            passes.append(run_pass(jobs, error_type, clock, rec))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(passes) > seconds:
                break
    finally:
        gc.unfreeze()
    if clock is None:
        for p in passes:
            p.latencies = list(p.raw)
        return passes
    clock.sample()  # so the last jobs have samples after them too
    for p in passes:
        p.latencies = [x * clock.scale_at(t) for t, x in zip(p.starts, p.raw)]
    return passes


def job_latencies(passes: list[PassResult], scaled: bool = True) -> list[float]:
    """Each job's median latency over the passes of a run."""
    return [statistics.median(col)
            for col in zip(*((p.latencies if scaled else p.raw) for p in passes))]


def jobs_per_s(passes: list[PassResult], scaled: bool = True) -> float:
    """Jobs that passed their check in a pass per second of job time."""
    passed = sum(p.passed for p in passes) / len(passes)
    return passed / sum(job_latencies(passes, scaled))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile that leaves at least ten jobs
    beyond it (the 11th largest), that percentile, and the job count.
    A list of ten jobs or fewer gives its slowest job."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def p50(latencies: list[float]) -> float:
    """Nearest-rank median (the lower middle value)."""
    xs = sorted(latencies)
    return xs[(len(xs) - 1) // 2]


def end_to_end(passes: list[PassResult], setup_s: float, setup_scale: float) -> tuple[dict, dict]:
    """End-to-end metrics from scaled times; unscaled ones go to the info dict."""
    lat = job_latencies(passes)
    raw = job_latencies(passes, scaled=False)
    attempted = sum(p.attempted for p in passes)
    passed = sum(p.passed for p in passes)
    tail_s, tail_pct, n = tail(lat)
    metrics = {
        "setup_s": (setup_s * setup_scale, "s"),
        "jobs_per_s": (jobs_per_s(passes), "1/s"),
        "job_p50_s": (p50(lat), "s"),
        "job_tail_s": (tail_s, "s"),
        "pass_ratio": (passed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "fail_ratio": 1.0 - passed / attempted,
        "job_tail_percentile": tail_pct,
        "jobs_in_list": n,
        "passes": len(passes),
        "unscaled_setup_s": setup_s,
        "unscaled_jobs_per_s": jobs_per_s(passes, scaled=False),
        "unscaled_job_p50_s": p50(raw),
        "unscaled_job_tail_s": tail(raw)[0],
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def memory_pass(wl: Workload, error_type) -> dict:
    """tracemalloc-only pass over the jobs that reach the measured layers."""
    peaks: dict = {}
    jobs = [j for j in wl.jobs if j.kind in wl.memory_kinds]
    if not jobs:
        return peaks
    tracemalloc.start()
    try:
        with patched(layers.memory_wrappers(peaks)):
            run_pass(jobs, error_type)
    finally:
        tracemalloc.stop()
    return peaks


def traced_run(wl: Workload, rec: Recorder, setup_spans, error_type, seconds: float,
               clock: Clock | None):
    """Untraced passes, then traced passes, then the memory pass.

    Returns (per-layer metrics, all passes for the attempted counts)."""
    plain = run_passes(wl.jobs, error_type, seconds / 2, clock)
    with patched(layers.wrappers(rec)):
        traced = run_passes(wl.jobs, error_type, seconds / 2, clock, rec)
    peaks = memory_pass(wl, error_type)
    overhead = jobs_per_s(traced) / jobs_per_s(plain) if plain[0].passed else 0.0
    mismatch = traced[0].stats["conjugate_mismatch"]
    metrics = layers.layer_metrics([p.spans for p in traced], setup_spans, wl, peaks,
                                   mismatch, overhead)
    return metrics, plain + traced


def summarize_failures(passes: list[PassResult], jobs: list[Job]) -> tuple[int, int, bool, dict, int]:
    """(attempted, failed, correct, failures per pass by job kind, known).

    `failed` counts the jobs that failed for a reason other than the known
    conjugate defect, and `correct` is true when there are none.  `known`
    counts the known-defect failures: they are wrong outputs all the same
    and stay in `pass_ratio`, but their number grows with the passes a run
    fits into its time, so the run-level failure count leaves them out."""
    attempted = sum(p.attempted for p in passes)
    known = sum(d for p in passes for _, _, d in p.failures)
    failed = sum(len(p.failures) for p in passes) - known
    kinds = Counter(jobs[i].kind for i, _, _ in passes[0].failures) if passes else Counter()
    return attempted, failed, failed == 0, dict(kinds), known
