"""Run one workload: repeated set-up, a closed timed loop, checks, metrics.

One caller runs ops back to back on the main thread. With tracing off,
every op is timed bare. With tracing on, ops alternate between bare and
traced, so the traced run also measures its own overhead.
"""

import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from seedmark.errors import SeedmarkError

from tracing import Tracer

# Set-up runs at least SETUP_REPEATS times before the first op, and a cheap
# one is repeated until SETUP_BUDGET_S has passed; setup_s is the median.
# Only the last set-up's state is used. A sub-millisecond set-up's median
# over one second still moves by about 20% from one second to the next on
# a shared 2-vCPU VM, hence two seconds.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
TAIL_MAX_PERCENTILE = 90  # higher percentiles of short ops track host scheduling

END_TO_END_UNITS = {"op_s": "s", "op_s.tail": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "auc": "ratio"}

# Per-op figures read straight off one span: "<span>.<field>".
SPAN_METRICS = (
    "nnet.train.calls", "nnet.train.steps", "nnet.train.s",
    "nnet.forward.calls", "nnet.forward.rows", "nnet.forward.s",
    "nnet.input_gradient.calls", "nnet.input_gradient.s",
    "bim.bim_batch.calls", "bim.bim_batch.rows", "bim.bim_batch.s",
    "attacks.extract.calls", "attacks.extract.s", "attacks.extract.self_s",
    "attacks.blur.calls", "attacks.blur.s",
    "harness.train_fresh.calls", "harness.train_fresh.s",
    *(f"harness.build_attacked_model.{token}.s"
      for token in ("RET", "DIS", "TRL", "CAR", "WP-RET", "WQ-RET")),
    "harness.run_repetition.s", "harness.run_repetition.self_s",
    "watermark.generate_keyset.s", "watermark.generate_keyset.self_s",
    "watermark.build_verifier.s", "watermark.verify.calls", "watermark.verify.s",
    "watermark.load_keyset.s", "watermark.load_verifier.s",
    "serialize.model_digest.calls", "serialize.model_digest.s",
    "serialize.load_model.calls", "serialize.load_model.s",
    "cli.main.s", "cli.main.self_s",
)

# The blur layer is its two methods; `attacks.blur` itself only dispatches.
SPAN_GROUPS = {"attacks.blur": ("attacks.blur_prune", "attacks.blur_quantize")}

DERIVED_UNITS = {
    "nnet.train.us_per_step": "us", "bim.ms_per_row": "ms", "watermark.keep_ratio": "ratio",
    "serialize.bytes_read": "bytes", "metrics.roc_auc.s": "s", "datasets.generate.s": "s",
    "trace_overhead": "ratio",
}


def per_layer_units():
    units = {}
    for name in SPAN_METRICS:
        field_name = name.rsplit(".", 1)[1]
        units[name] = "s" if field_name in ("s", "self_s") else "count"
    units.update(DERIVED_UNITS)
    return units


@dataclass
class Run:
    workload: object
    setup_s: list = field(default_factory=list)
    bare: list = field(default_factory=list)  # wall seconds of untraced ops
    traced: list = field(default_factory=list)  # wall seconds of traced ops
    failures: list = field(default_factory=list)
    auc: float = None
    problems: list = field(default_factory=list)
    tracer: Tracer = None
    expected: dict = None
    peak_rss_mb: float = None

    @property
    def attempted(self):
        return len(self.bare) + len(self.traced)

    @property
    def correct(self):
        return not self.failures and not self.problems


def _with_tracer(tracer, phase, fn, *args):
    if tracer is None:
        return fn(*args)
    tracer.phase = phase
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.remove()


def run_workload(workload, seed, seconds, trace, workdir) -> Run:
    run = Run(workload, tracer=Tracer() if trace else None)

    setup_start = perf_counter()
    while len(run.setup_s) < SETUP_REPEATS or perf_counter() - setup_start < SETUP_BUDGET_S:
        t0 = perf_counter()
        state = _with_tracer(run.tracer, "setup", workload.setup, seed, workdir)
        run.setup_s.append(perf_counter() - t0)

    min_ops = workload.min_ops + (1 if trace else 0)
    deadline = perf_counter() + seconds
    i = 0
    while i < min_ops or perf_counter() < deadline:
        traced = trace and i % 2 == 1
        if traced:
            run.tracer.phase = "op"
            run.tracer.install()
        t0 = perf_counter()
        try:
            out, error = workload.op(state, i), None
        except SeedmarkError as exc:
            out, error = None, f"op {i}: {type(exc).__name__}: {exc}"
        finally:
            dt = perf_counter() - t0
            if traced:
                run.tracer.remove()
        (run.traced if traced else run.bare).append(dt)
        if error is None:
            error = workload.check_op(state, i, out)
        if error is not None:
            run.failures.append(error)
        i += 1

    try:
        run.auc, run.problems = _with_tracer(run.tracer, "check", workload.finish, state)
    except SeedmarkError as exc:
        run.problems.append(f"final checks: {type(exc).__name__}: {exc}")
    run.expected = workload.expected_counts(state)
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run


def tail(samples):
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile, up to TAIL_MAX_PERCENTILE, with at least TAIL_BEYOND
    samples beyond it; the median when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    k = min(n - 1 - TAIL_BEYOND, math.ceil(TAIL_MAX_PERCENTILE * n / 100) - 1)
    if k < n // 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end_metrics(run: Run) -> dict:
    values = {
        # The mean, not the median: the host's speed switches between two
        # states about 1.6x apart for seconds to minutes at a time, so the
        # median jumps to whichever state held longer, while the mean moves
        # in proportion to the time spent in each (see README).
        "op_s": statistics.fmean(run.bare),
        "op_s.tail": tail(run.bare)[0],
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": run.peak_rss_mb,
        "auc": 0.0 if run.auc is None else run.auc,  # failed runs: worst AUC, correct=false
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _ratio(num, den):
    return num / den if den else 0.0


def span_value(tracer, phase, span, field_name):
    stats = [tracer.stat(phase, s) for s in SPAN_GROUPS.get(span, (span,))]
    if field_name in ("calls", "s", "self_s"):
        return sum(getattr(st, field_name) for st in stats)
    return sum(st.counts[field_name] for st in stats)


def per_op_counts(run: Run) -> dict:
    """Every traced span's per-op figures: {'<span>.<field>': value}."""
    n = len(run.traced)
    out = {}
    for (phase, span), st in run.tracer.stats.items():
        if phase == "op":
            out[f"{span}.calls"] = st.calls / n
            out[f"{span}.s"] = st.s / n
            out[f"{span}.self_s"] = st.self_s / n
            for key, val in st.counts.items():
                out[f"{span}.{key}"] = val / n
    return out


def per_layer_metrics(run: Run) -> dict:
    t, n = run.tracer, len(run.traced)

    def op(span, field_name):
        return span_value(t, "op", span, field_name) / n

    values = {}
    for name in SPAN_METRICS:
        span, field_name = name.rsplit(".", 1)
        values[name] = op(span, field_name)
    values["nnet.train.us_per_step"] = 1e6 * _ratio(op("nnet.train", "s"), op("nnet.train", "steps"))
    values["bim.ms_per_row"] = 1e3 * _ratio(op("bim.bim_batch", "s"), op("bim.bim_batch", "rows"))
    values["watermark.keep_ratio"] = _ratio(op("watermark.generate_keyset", "kept"),
                                            op("bim.bim_batch", "rows"))
    values["serialize.bytes_read"] = op("serialize.load_model", "bytes")
    values["datasets.generate.s"] = span_value(t, "setup", "datasets.generate", "s") / len(run.setup_s)
    roc = t.stat("check", "metrics.roc_auc")
    values["metrics.roc_auc.s"] = _ratio(roc.s, roc.calls)
    values["trace_overhead"] = statistics.median(run.traced) / statistics.median(run.bare) - 1.0
    units = per_layer_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def layer_table(run: Run):
    """Rows (layer, calls/op, self s/op, share of traced op time), largest first."""
    n = len(run.traced)
    op_s = sum(run.traced) / n
    layers = {}
    for (phase, span), st in run.tracer.stats.items():
        if phase != "op" or span.count(".") != 1:  # skip per-argument labels
            continue
        calls, self_s = layers.get(span.split(".")[0], (0, 0.0))
        layers[span.split(".")[0]] = (calls + st.calls, self_s + st.self_s)
    rows = [(layer, calls / n, self_s / n, self_s / n / op_s)
            for layer, (calls, self_s) in layers.items()]
    outside = op_s - sum(r[2] for r in rows)
    rows.append(("(outside spans)", 0.0, outside, outside / op_s))
    return sorted(rows, key=lambda r: -r[2]), op_s
