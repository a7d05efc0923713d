"""convexdesk benchmark.

    python3 perfbench/run.py --workload line-1d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It imports `convexdesk` from the
checkout's `src/`, builds the workload's inputs from the seed, runs its
job list as a closed loop with one client for about `--seconds`, checks
every output, and prints one JSON object as the last line of stdout:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
Work files and span files go to `.perfbench_out/` in the checkout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# One BLAS thread: the benchmark is a single client in a single process.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3


def blas_threads() -> int:
    """Thread count numpy's bundled OpenBLAS reports, -1 if unknown."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    for lib in libs:
        try:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return -1


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads()}


def import_library():
    if not os.path.isfile(os.path.join(SRC, "convexdesk", "__init__.py")):
        sys.exit(f"error: {SRC}/convexdesk not found; run from the root of a convexdesk checkout")
    sys.path.insert(0, SRC)
    import convexdesk
    import convexdesk.cli  # noqa: F401  (the CLI jobs call it)

    if os.path.dirname(os.path.dirname(os.path.abspath(convexdesk.__file__))) != SRC:
        sys.exit(f"error: convexdesk was imported from {convexdesk.__file__}, not {SRC}")
    return convexdesk


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cd = import_library()
    import_s = time.perf_counter() - _T0

    import harness
    from tracer import Recorder, patched, write_jsonl
    import layers

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        build = workloads.WORKLOADS[args.workload]
        ctx = workloads.Context(cd, args.seed, workdir)
        if args.trace:
            # one traced set-up: atoms.sample counts its set-up calls
            rec = Recorder()
            rec.active = True
            with patched(layers.wrappers(rec)):
                wl = build(ctx)
            rec.active = False
            setup_spans, rec.spans = rec.spans, []
            clock = harness.Clock(workdir) if wl.calibrated else None
            metrics, passes = harness.traced_run(wl, rec, setup_spans, cd.errors.ConvexDeskError,
                                                 args.seconds, clock)
            info = {}
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            if os.path.exists(spans_path):
                os.remove(spans_path)
            for i, p in enumerate(passes):
                write_jsonl(p.spans, spans_path, i)
        else:
            setup_clock = harness.Clock(workdir)
            for _ in range(3):
                setup_clock.sample()
            gen = []
            for _ in range(SETUP_REPEATS):
                t = time.perf_counter()
                wl = build(ctx)
                gen.append(time.perf_counter() - t)
                setup_clock.sample()
            setup_s = import_s + statistics.median(gen)
            clock = harness.Clock(workdir) if wl.calibrated else None
            passes = harness.run_passes(wl.jobs, cd.errors.ConvexDeskError, args.seconds, clock)
            metrics, info = harness.end_to_end(passes, setup_s, setup_clock.scale())
        attempted, failed, correct, by_kind, known = harness.summarize_failures(passes, wl.jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update({"workload": args.workload, "seed": args.seed, "jobs_per_pass": len(wl.jobs),
                 "failed_per_pass_by_kind": by_kind, "known_defect_failures": known,
                 "machine": machine()})
    print(json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:45s} {fmt(m['value']):>14s} {m['unit']}")
    units = {"fail_ratio": "ratio", "job_tail_percentile": "%", "jobs_in_list": "count",
             "passes": "count", "known_defect_failures": "count", "unscaled_setup_s": "s",
             "unscaled_jobs_per_s": "1/s", "unscaled_job_p50_s": "s", "unscaled_job_tail_s": "s"}
    for key, unit in units.items():
        if key in info:
            print(f"{key:45s} {fmt(info[key]):>14s} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
