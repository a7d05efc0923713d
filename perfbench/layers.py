"""Per-layer metrics: which library functions the traced run wraps, what
each span records, and how spans become the per-layer numbers.

Layers are the modules of `convexdesk`; `extreal` and `errors` are
helpers, not layers.  Every metric is per pass of the workload's job
list: counts from one pass (they repeat exactly), times as the median
over traced passes.  A layer the workload does not reach reads 0.
"""

from __future__ import annotations

import math
import os
import statistics
import tracemalloc
from collections import defaultdict

from tracer import Recorder, self_times

# (metric name, unit) in report order; BENCHMARK.json lists the same
METRICS = [
    ("fenchel.conjugate.calls", "count"),
    ("fenchel.conjugate.s", "s"),
    ("fenchel.conjugate.self_s", "s"),
    ("fenchel.conjugate.lines", "count"),
    ("fenchel.conjugate.mismatch", "count"),
    ("fenchel.conjugate.exponent_1d", "1"),
    ("fenchel.conjugate.exponent_2d", "1"),
    ("fenchel.biconjugate.s", "s"),
    ("fenchel.inf_convolution.calls", "count"),
    ("fenchel.inf_convolution.s", "s"),
    ("fenchel.inf_convolution.exponent", "1"),
    ("fenchel.minkowski_infconv_convex.calls", "count"),
    ("fenchel.minkowski_infconv_convex.s", "s"),
    ("fenchel.fenchel_duality_gap.s", "s"),
    ("grids.discrete_convexity_check.calls", "count"),
    ("grids.discrete_convexity_check.s", "s"),
    ("grids.discrete_convexity_check.repeat_ratio", "ratio"),
    ("moreau.moreau_envelope.calls", "count"),
    ("moreau.moreau_envelope.s", "s"),
    ("moreau.moreau_envelope.self_s", "s"),
    ("moreau.moreau_envelope.exponent", "1"),
    ("moreau.moreau_envelope.peak_mb", "MB"),
    ("moreau.prox.calls", "count"),
    ("moreau.prox.s", "s"),
    ("moreau.prox.self_s", "s"),
    ("moreau.prox.refined_ratio", "ratio"),
    ("monotone.resolvent.calls", "count"),
    ("monotone.resolvent.s", "s"),
    ("renorm.asplund_step.calls", "count"),
    ("renorm.asplund_step.s", "s"),
    ("renorm.asplund_step.self_s", "s"),
    ("renorm.asplund_step.exponent", "1"),
    ("renorm.asplund_step.peak_mb", "MB"),
    ("renorm.measured_ratio.s", "s"),
    ("special.coupon_pn_ie.calls", "count"),
    ("special.coupon_pn_ie.s", "s"),
    ("special.coupon_pn_ie.exponent", "1"),
    ("special.coupon_pn_perm.s", "s"),
    ("special.coupon_pn_integral.s", "s"),
    ("special.coupon_convexity_probe.s", "s"),
    ("special.coupon_convexity_probe.self_s", "s"),
    ("atoms.sample.calls", "count"),
    ("atoms.sample.s", "s"),
    ("fileio.write.s", "s"),
    ("fileio.write.bytes", "bytes"),
    ("fileio.read.s", "s"),
    ("fileio.read.bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.nonzero_exit", "count"),
    ("trace.overhead", "ratio"),
]

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(args, kwargs, out):
    return {"size": _arg(args, kwargs, 0, "f").grid.node_count}


def _conjugate_attrs(args, kwargs, out):
    f, dual = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "dual_grid")
    lines = 1 if f.grid.dim == 1 else f.grid.shape[0] + dual.shape[1]
    return {"size": f.grid.node_count, "lines": lines}


def _prox_attrs(args, kwargs, out):
    f = _arg(args, kwargs, 0, "f")
    if out is None:
        return {}
    on_node = all(bool((f.grid.coords(ax) == v).any()) for ax, v in enumerate(out.point))
    return {"refined": not on_node}


def _file_bytes(pos, name):
    def attrs(args, kwargs, out):
        path = _arg(args, kwargs, pos, name)
        return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}
    return attrs


def _coupon_attrs(args, kwargs, out):
    return {"size": 2 ** len(_arg(args, kwargs, 0, "x")) - 1}


def _step_attrs(args, kwargs, out):
    return {"size": _arg(args, kwargs, 0, "pair").p.grid.node_count}


def wrappers(rec: Recorder) -> dict:
    """(module, function) -> factory of the traced replacement."""
    seen = rec.job_objects

    def convexity_attrs(args, kwargs, out):
        f = _arg(args, kwargs, 0, "f")
        repeat = seen.get(id(f)) is f
        seen[id(f)] = f  # hold the object so its id is not reused within the job
        return {"repeat": repeat}

    table = {
        ("convexdesk.fenchel", "conjugate"): ("fenchel.conjugate", _conjugate_attrs),
        ("convexdesk.fenchel", "biconjugate"): ("fenchel.biconjugate", _size),
        ("convexdesk.fenchel", "inf_convolution"): ("fenchel.inf_convolution", _size),
        ("convexdesk.fenchel", "minkowski_infconv_convex"):
            ("fenchel.minkowski_infconv_convex", None),
        ("convexdesk.fenchel", "fenchel_duality_gap"): ("fenchel.fenchel_duality_gap", None),
        ("convexdesk.grids", "discrete_convexity_check"):
            ("grids.discrete_convexity_check", convexity_attrs),
        ("convexdesk.moreau", "moreau_envelope"): ("moreau.moreau_envelope", _size),
        ("convexdesk.moreau", "prox"): ("moreau.prox", _prox_attrs),
        ("convexdesk.monotone", "resolvent"): ("monotone.resolvent", None),
        ("convexdesk.renorm", "asplund_step"): ("renorm.asplund_step", _step_attrs),
        ("convexdesk.renorm", "measured_ratio"): ("renorm.measured_ratio", None),
        ("convexdesk.special", "coupon_pn_ie"): ("special.coupon_pn_ie", _coupon_attrs),
        ("convexdesk.special", "coupon_pn_perm"): ("special.coupon_pn_perm", None),
        ("convexdesk.special", "coupon_pn_integral"): ("special.coupon_pn_integral", None),
        ("convexdesk.special", "coupon_convexity_probe"):
            ("special.coupon_convexity_probe", None),
        ("convexdesk.atoms", "sample"): ("atoms.sample", None),
        ("convexdesk.fileio", "write_gridfn_json"): ("fileio.write", _file_bytes(1, "path")),
        ("convexdesk.fileio", "write_gridfn_csv"): ("fileio.write", _file_bytes(1, "path")),
        ("convexdesk.fileio", "write_graph_json"): ("fileio.write", _file_bytes(1, "path")),
        ("convexdesk.fileio", "write_json_report"): ("fileio.write", _file_bytes(1, "path")),
        ("convexdesk.fileio", "read_gridfn_json"): ("fileio.read", _file_bytes(0, "path")),
        ("convexdesk.fileio", "read_graph_json"): ("fileio.read", _file_bytes(0, "path")),
        ("convexdesk.cli", "main"): ("cli.main", lambda a, k, out: {"rc": out}),
    }
    return {key: (lambda orig, layer=layer, fn=fn: rec.wrap(layer, orig, fn))
            for key, (layer, fn) in table.items()}


def memory_wrappers(peaks: dict) -> dict:
    """Wrappers for the tracemalloc pass: the peak traced allocation of
    each call above what was live when it started, kept as a maximum."""

    def make(layer):
        def factory(orig):
            def measured(*args, **kwargs):
                base, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                try:
                    return orig(*args, **kwargs)
                finally:
                    _, peak = tracemalloc.get_traced_memory()
                    peaks[layer] = max(peaks.get(layer, 0), peak - base)
            return measured
        return factory

    return {("convexdesk.moreau", "moreau_envelope"): make("moreau.moreau_envelope"),
            ("convexdesk.renorm", "asplund_step"): make("renorm.asplund_step")}


def pass_summary(spans) -> dict:
    """Totals of one traced pass, keyed by layer."""
    selfs = self_times(spans)
    out: dict = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(spans, selfs):
        d = out[s.layer]
        d["calls"] += 1
        d["s"] += s.duration
        d["self_s"] += self_s
        for key in ("lines", "bytes"):
            d[key] += s.attrs.get(key, 0)
        d["repeat"] += bool(s.attrs.get("repeat"))
        d["refined"] += bool(s.attrs.get("refined"))
        d["nonzero_exit"] += s.attrs.get("rc", 0) not in (0, None)
    return out


def exponent(spans, layer: str, small: int, large: int) -> float:
    """log(t_large / t_small) / log(large / small) from the fastest call at
    each size (the one least disturbed by other load on the machine); 0
    when the workload does not run the layer at both sizes."""
    times = {small: [], large: []}
    for s in spans:
        if s.layer == layer and s.attrs.get("size") in times:
            times[s.attrs["size"]].append(s.duration)
    if not (times[small] and times[large]):
        return 0.0
    ratio = min(times[large]) / min(times[small])
    return math.log(ratio) / math.log(large / small)


def layer_metrics(traced_passes, setup_spans, workload, peaks, mismatch: int,
                  overhead: float) -> dict:
    """All per-layer metrics from the traced passes' spans."""
    sums = [pass_summary(p) for p in traced_passes]
    setup = pass_summary(setup_spans)
    all_spans = [s for p in traced_passes for s in p]

    def med(layer, key):
        return statistics.median(s[layer][key] if layer in s else 0.0 for s in sums)

    values = {}
    for name, unit in METRICS:
        layer, _, key = name.rpartition(".")
        if name in workload.exponents:
            values[name] = exponent(all_spans, *workload.exponents[name])
        elif key.startswith("exponent"):
            values[name] = 0.0
        elif key == "peak_mb":
            values[name] = peaks.get(layer, 0) / 2 ** 20
        elif key == "mismatch":
            values[name] = mismatch
        elif key == "repeat_ratio":
            calls = med(layer, "calls")
            values[name] = med(layer, "repeat") / calls if calls else 0.0
        elif key == "refined_ratio":
            calls = med(layer, "calls")
            values[name] = med(layer, "refined") / calls if calls else 0.0
        elif name == "trace.overhead":
            values[name] = overhead
        elif layer == "atoms.sample":
            # inputs are sampled during set-up too, so set-up calls count here
            values[name] = med(layer, key) + setup.get(layer, {}).get(key, 0.0)
        else:
            values[name] = med(layer, key)
        if unit == "count" or unit == "bytes":
            values[name] = int(round(values[name]))
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
