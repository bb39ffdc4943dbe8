"""The benchmark's workloads, passes, metrics and correctness gate.

A run of one workload makes its inputs from the seed (a BIMD dataset
and, for the probe, a checkpoint of the seed's initial weights), then
drives the same entry points as the CLI: `runner.run_pretrain` for
`blockmae pretrain` and `runner.run_probe` for `blockmae probe`.

Passes of one run:
    timed   the entry call repeated `timed_calls` times.  Only the unit
            of work is timed (the runner's step functions, or the probe's
            feature chunks); these give the end-to-end metrics.
    heap    one entry call under tracemalloc and nothing else (2 steps
            on pretrain workloads).
    traced  with --trace 1 only, in place of the timed pass: one plain
            entry call with nothing wrapped, then one with every layer
            wrapped in spans; these give the per-layer metrics.
Every pass restores what it patched, and the gate checks that it did.
"""

import csv
import dataclasses
import math
import os
import resource
import statistics
import time
import traceback
import tracemalloc

import numpy as np

from blockmae import checkpoint, config, data, engine, memory, ofa, optim, runner, tape

from . import spans
from .speed import SpeedProbe

CLOCK = time.perf_counter
MIN_CALLS = 3
TAIL_ABOVE = 10            # the tail percentile keeps this many samples above it
# The process's first two steps ran 10-50% slower (fresh heap, lazy
# set-up); first steps of later calls did not.
WARMUP_UNITS = 2
MIN_COVERAGE = 0.9         # share of traced wall time that spans must cover
PATCHED_MODULES = (tape, engine, runner, optim, data, ofa)


@dataclasses.dataclass(frozen=True)
class Scale:
    """Model size and the work one entry call does."""

    model_lines: str       # config lines overriding the default ModelSpec
    batch: int
    train_images: int      # fewer than batch * steps_per_call: one epoch ends
    steps_per_call: int
    heap_steps: int
    probe_images: int


DESK = Scale(model_lines="", batch=64, train_images=512, steps_per_call=10,
             heap_steps=2, probe_images=384)
# Only for the benchmark's own tests: the same workloads at toy size.
TINY = Scale(model_lines=("image_size = 16\npatch_size = 4\nembed_dim = 16\n"
                          "depth = 4\nheads = 2\nmlp_ratio = 2\n"
                          "decoder_dim = 8\n"),
             batch=8, train_images=32, steps_per_call=5, heap_steps=2,
             probe_images=160)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "pretrain" or "probe"
    preset: str
    extra: str             # config lines applied after the preset
    nominal_call_s: float  # one desk-scale entry call on a 2-core x86 VM
    reference: str         # speed.py kernel that loads the machine like a unit
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("pretrain-blockwise", "pretrain", "desk-blockwise", "", 6.5, "compute",
             "the paper's method at desk scale: 4 isolated blocks at ratio "
             "0.75, balanced blocks, incremental drop is a no-op"),
    Workload("pretrain-grow", "pretrain", "desk-blockwise",
             "mask_schedule = 0.5,0.625,0.75,0.875\n", 8.0, "compute",
             "growing mask ratio (32/24/16/8 visible tokens): the only "
             "workload where incremental drop gathers tokens"),
    Workload("pretrain-mae", "pretrain", "desk-mae", "", 4.5, "compute",
             "end-to-end MAE baseline: one block, one long backward, the "
             "largest real-versus-metered memory gap"),
    Workload("probe", "probe", "desk-blockwise", "", 5.5, "memory",
             "linear probe at k=4 on initial weights: f64 forward-only "
             "tape plus many tiny AdamW steps"),
)}

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("step_ms_p50", "ms"),
    ("images_per_s", "1/s"), ("activation_peak_bytes", "bytes"),
    ("heap_peak_bytes", "bytes"), ("rss_peak_bytes", "bytes"),
)

PRIMITIVES = ("matmul", "add", "scale", "transpose", "gather_rows",
              "concat_rows", "layernorm", "softmax", "gelu", "mse_masked",
              "boundary", "leaf")
BLOCKS = range(4)
# Spans named after the functions that engine and ofa import from model.
MODEL_SPANS = (("embed_visible", "model.embed"),
               ("encoder_block_layer", "model.encoder_layer"),
               ("local_decoder_forward", "model.decoder"),
               ("reconstruction_loss", "model.loss"),
               ("mask_indices", "model.mask"))

PER_LAYER = (
    *((f"tape.fwd_ms.{k}", "ms") for k in PRIMITIVES),
    *((f"tape.calls.{k}", "count") for k in PRIMITIVES),
    ("tape.bwd_ms", "ms"), *((f"tape.bwd_ms.block{i}", "ms") for i in BLOCKS),
    ("tape.bwd_calls", "count"), ("tape.release_ms", "ms"),
    *((f"{name}_ms", "ms") for _, name in MODEL_SPANS),
    ("engine.steps", "count"), ("engine.step_self_ms", "ms"),
    *((f"engine.fwd_ms.block{i}", "ms") for i in BLOCKS),
    ("engine.drop_ms", "ms"), ("engine.drops", "count"),
    ("optim.step_ms", "ms"), ("optim.calls", "count"),
    ("data.batch_ms", "ms"), ("data.load_s", "s"),
    ("checkpoint.save_ms", "ms"), ("checkpoint.bytes", "bytes"),
    ("checkpoint.load_ms", "ms"),
    ("ofa.features_s", "s"), ("ofa.fit_s", "s"),
    ("memory.analytic_peak_bytes", "bytes"),
    ("memory.heap_over_metered", "ratio"),
    ("runner.report_s", "s"),
    ("trace.overhead_s", "s"), ("trace.coverage", "share"),
)


# ----- set-up -------------------------------------------------------------------

def prepare(workload, scale, seed, work_dir):
    """Write the seed's inputs under work_dir; returns (cfg, checkpoint path)."""
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, "inputs.bimd")
    if "#" in path:
        raise ValueError(f"work directory path may not contain '#': {path}")
    probe = workload.kind == "probe"
    count = scale.probe_images if probe else scale.train_images
    cfg = config.parse_config(
        config.PRESETS[workload.preset] + workload.extra + scale.model_lines
        + f"batch_size = {scale.batch}\ndataset = {path}\n"
        f"dataset_size = {count}\nseed = {seed}\n")
    spec = cfg.model
    ds = data.gen_synthetic_dataset(
        spec.image_size, count, seed, channels=spec.channels,
        num_classes=cfg.train.num_classes,
        # At the default phase range raw pixels are linearly separable and
        # the probe scores 1.0 whatever the backbone; a full-period phase
        # makes orientation a nonlinear readout.
        **({"phase_range": 1.0} if probe else {}))
    data.save_dataset(ds, path)
    ckpt = None
    if probe:
        model = engine.build_model(spec, cfg.train.num_blocks, seed,
                                   cfg.train.np_dtype)
        ckpt = os.path.join(work_dir, "init.bimc")
        checkpoint.save_checkpoint(dict(model.params), ckpt)
    return cfg, ckpt


def plan_of(cfg):
    t = cfg.train
    return engine.BlockPlan(num_blocks=t.num_blocks,
                            mask_schedule=t.mask_schedule, mode=t.mode)


# ----- one entry call -------------------------------------------------------------

@dataclasses.dataclass
class Call:
    """What one entry call did and produced."""

    t0: float = 0.0
    wall_s: float = 0.0
    ref_before: float = 0.0    # speed-reference time just before the call
    ref_s: float = 0.0         # speed-reference time spent inside the call
    setup_s: float = None
    units: list = dataclasses.field(default_factory=list)  # (start, end, images, ref)
    attempted: int = 0
    failed: int = 0
    error: str = None
    rows: list = None          # metrics.csv data rows (pretrain)
    header: str = None
    quality: str = None        # repr of loss_final / probe_val_accuracy
    metered_peak: int = 0
    heap_peak: int = 0
    spans: object = None       # Recorder of a traced call


def _entry(workload, cfg, ckpt, out_dir, steps):
    if workload.kind == "pretrain":
        return runner.run_pretrain(cfg, out_dir, max_steps=steps)
    return runner.run_probe(cfg, ckpt, cfg.train.num_blocks, out_dir)


def _unit_timer(call, speed, fn):
    def timed(*args, **kwargs):
        entered = CLOCK()
        if call.setup_s is None:
            call.setup_s = entered - call.t0
        ref = speed.sample()
        call.ref_s += ref
        start = CLOCK()
        try:
            return fn(*args, **kwargs)
        finally:
            # Both the step functions and ofa.forward_tokens take the image
            # batch as their second argument.
            call.units.append((start, CLOCK(), args[1].shape[0], ref))
    return timed


def _start_marker(call, fn):
    def marked(*args, **kwargs):
        if call.setup_s is None:
            call.setup_s = CLOCK() - call.t0
        return fn(*args, **kwargs)
    return marked


def _meter_keeping_tape(meters):
    """A Tape that leaves its meter in `meters`; the tape itself is not kept."""
    class MeterKeepingTape(tape.Tape):
        def __init__(self):
            super().__init__()
            meters.append(self.meter)
    return MeterKeepingTape


def run_call(workload, cfg, ckpt, out_dir, steps, mode, speed=None):
    """One entry call; mode is "timed", "plain", "heap" or "traced".

    Timed calls sample `speed` just before the call and before every unit
    of work, and time the unit; plain calls wrap nothing.
    """
    call = Call()
    meters = []
    rec = spans.Recorder(CLOCK) if mode == "traced" else None
    pretrain = workload.kind == "pretrain"
    with spans.Patcher() as patch:
        if mode == "timed" and pretrain:
            for attr in ("blockwise_train_step", "mae_train_step"):
                patch.wrap(runner, attr, lambda fn: _unit_timer(call, speed, fn))
        elif mode == "timed":
            patch.wrap(ofa, "extract_features", lambda fn: _start_marker(call, fn))
            patch.wrap(ofa, "forward_tokens", lambda fn: _unit_timer(call, speed, fn))
        if mode == "traced":
            instrument(patch, rec)
        if mode in ("timed", "traced") and not pretrain:
            patch.set(ofa, "Tape", _meter_keeping_tape(meters))
        if mode == "heap":
            tracemalloc.start()
        elif mode == "timed":
            call.ref_before = speed.sample()
        call.t0 = CLOCK()
        root = rec.open(f"runner.run_{workload.kind}") if rec else None
        try:
            result = _entry(workload, cfg, ckpt, out_dir, steps)
        except Exception:  # counted as a failed operation and reported by the gate
            call.error = traceback.format_exc()
            result = None
        finally:
            if root is not None:
                rec.close(root)
            call.wall_s = CLOCK() - call.t0
            if mode == "heap":
                call.heap_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
    call.spans = rec
    # Operations are training steps on pretrain workloads and probe calls on
    # the probe.  A call that raised failed the operation it was in.
    if pretrain:
        _read_metrics(call, out_dir)
    elif result is not None:
        acc = result[1].val_accuracy
        call.quality = repr(acc)
        call.attempted, call.failed = 1, int(not math.isfinite(acc))
        call.metered_peak = max((m.peak_activation_bytes for m in meters), default=0)
    if call.error is not None:
        call.attempted += 1
        call.failed += 1
    return call


def _read_metrics(call, out_dir):
    path = os.path.join(out_dir, "metrics.csv")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8", newline="") as fh:
        call.header = fh.readline().rstrip("\n")
        call.rows = list(csv.reader(fh))
    totals = [r for r in call.rows if r[2] == "-1"]
    call.attempted = len(totals)
    call.failed = sum(not math.isfinite(float(r[3])) for r in totals)
    if totals:
        call.quality = totals[-1][3]
        call.metered_peak = max(int(r[6]) for r in totals)


# ----- tracing ------------------------------------------------------------------

class _ScopeSpan:
    """Context manager opening a span around another context manager."""

    def __init__(self, rec, name, inner):
        self.rec, self.name, self.inner = rec, name, inner

    def __enter__(self):
        self.idx = self.rec.open(self.name)
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.rec.close(self.idx)


def instrument(patch, rec):
    """Wrap every traced layer; `patch` restores all of it."""
    def span(name, after=None):
        return lambda fn: rec.wrap(name, fn, after)

    for kind in PRIMITIVES:
        patch.wrap(tape.Tape, kind, span(f"tape.fwd.{kind}"))

    def backward(fn):
        def traced(self, loss, *args, **kwargs):
            block = 0 if loss.block is None else loss.block
            return rec.wrap(f"tape.bwd.block{block}", fn)(self, loss, *args, **kwargs)
        return traced
    patch.wrap(tape.Tape, "backward", backward)
    patch.wrap(tape.Tape, "release_block_activations", span("tape.release"))
    patch.wrap(tape.Tape, "dispose", span("tape.release"))
    patch.wrap(tape.Tape, "block", lambda fn: (
        lambda self, tag: _ScopeSpan(rec, f"engine.fwd.block{tag}", fn(self, tag))))

    for attr, name in MODEL_SPANS:
        patch.wrap(engine, attr, span(name))
    for attr, name in MODEL_SPANS[:2]:
        patch.wrap(ofa, attr, span(name))

    def count_drop(args, kwargs, result):
        if rec.step is not None and result[0].shape[-2] < args[1].shape[-2]:
            rec.count("engine.drops")
    patch.wrap(engine, "incremental_drop", span("engine.drop", count_drop))

    def step(fn):
        def traced(*args, **kwargs):
            rec.step = rec.counts.get("engine.steps", 0)
            rec.count("engine.steps")
            try:
                return rec.wrap("engine.step", fn)(*args, **kwargs)
            finally:
                rec.step = None
        return traced
    for attr in ("blockwise_train_step", "mae_train_step"):
        patch.wrap(runner, attr, step)

    def count_bytes(args, kwargs, result):
        rec.count("checkpoint.bytes", os.path.getsize(args[1]))
    for attr, name, after in (
            ("build_model", "engine.build", None),
            ("partition_encoder", "engine.build", None),
            ("load_dataset", "data.load", None),
            ("gen_synthetic_dataset", "data.load", None),
            ("save_checkpoint", "checkpoint.save", count_bytes),
            ("load_checkpoint", "checkpoint.load", None),
            ("write_mem_report", "runner.report", None),
            ("write_flop_report", "runner.report", None),
            ("linear_probe", "ofa.probe", None)):
        patch.wrap(runner, attr, span(name, after))
    patch.wrap(data.Dataset, "images", span("data.batch"))
    patch.wrap(ofa, "extract_features", span("ofa.features"))
    patch.wrap(ofa, "fit_linear_classifier", span("ofa.fit"))
    patch.wrap(optim.AdamW, "step", span("optim.step"))


def layer_metrics(workload, traced, reference, heap_peak, analytic):
    """Per-layer metrics of one traced call.

    On pretrain workloads the step-level layers are per training step and
    leave out the memory report, whose two extra steps at batch 8 are not
    training steps; on the probe they are per probe call.  Layers that act
    once per call (loading, checkpoints, reports, probe phases) are totals.
    """
    rec = traced.spans
    selfs = spans.self_times(rec.spans)
    pretrain = workload.kind == "pretrain"
    steps = rec.counts.get("engine.steps", 0)
    units = steps if pretrain else 1
    in_report = []
    for sp in rec.spans:   # parents precede their children
        in_report.append(sp.name == "runner.report"
                         or (sp.parent is not None and in_report[sp.parent]))
    step_self, step_calls, call_total = {}, {}, {}
    for sp, own, report in zip(rec.spans, selfs, in_report):
        call_total[sp.name] = call_total.get(sp.name, 0.0) + sp.duration
        if report:
            continue
        # Block forward spans are reported inclusive, every other step-level
        # layer as self time, so the step-level layers add up without overlap.
        t = sp.duration if sp.name.startswith("engine.fwd.") else own
        step_self[sp.name] = step_self.get(sp.name, 0.0) + t
        step_calls[sp.name] = step_calls.get(sp.name, 0) + 1

    def per_step_ms(name):
        return 1000.0 * step_self.get(name, 0.0) / max(units, 1)

    def per_step_calls(name):
        return step_calls.get(name, 0) / max(units, 1)

    m = {}
    for k in PRIMITIVES:
        m[f"tape.fwd_ms.{k}"] = per_step_ms(f"tape.fwd.{k}")
        m[f"tape.calls.{k}"] = per_step_calls(f"tape.fwd.{k}")
    m["tape.bwd_ms"] = sum(per_step_ms(f"tape.bwd.block{i}") for i in BLOCKS)
    for i in BLOCKS:
        m[f"tape.bwd_ms.block{i}"] = per_step_ms(f"tape.bwd.block{i}")
    m["tape.bwd_calls"] = sum(per_step_calls(f"tape.bwd.block{i}") for i in BLOCKS)
    m["tape.release_ms"] = per_step_ms("tape.release")
    for _, name in MODEL_SPANS:
        m[f"{name}_ms"] = per_step_ms(name)
    m["engine.steps"] = steps
    m["engine.step_self_ms"] = per_step_ms("engine.step")
    for i in BLOCKS:
        m[f"engine.fwd_ms.block{i}"] = per_step_ms(f"engine.fwd.block{i}")
    m["engine.drop_ms"] = per_step_ms("engine.drop")
    m["engine.drops"] = rec.counts.get("engine.drops", 0) / max(units, 1)
    m["optim.step_ms"] = per_step_ms("optim.step")
    m["optim.calls"] = per_step_calls("optim.step")
    m["data.batch_ms"] = per_step_ms("data.batch")
    m["data.load_s"] = call_total.get("data.load", 0.0)
    m["checkpoint.save_ms"] = 1000.0 * call_total.get("checkpoint.save", 0.0)
    m["checkpoint.bytes"] = rec.counts.get("checkpoint.bytes", 0)
    m["checkpoint.load_ms"] = 1000.0 * call_total.get("checkpoint.load", 0.0)
    m["ofa.features_s"] = call_total.get("ofa.features", 0.0)
    m["ofa.fit_s"] = call_total.get("ofa.fit", 0.0)
    m["memory.analytic_peak_bytes"] = analytic
    m["memory.heap_over_metered"] = heap_peak / traced.metered_peak
    m["runner.report_s"] = call_total.get("runner.report", 0.0)
    m["trace.overhead_s"] = traced.wall_s - reference.wall_s
    root = rec.spans[0]
    m["trace.coverage"] = 1.0 - selfs[0] / root.duration
    return {name: m[name] for name, _ in PER_LAYER}


# ----- end-to-end metrics -----------------------------------------------------------

def tail(samples):
    """(value, percentile): the sample with TAIL_ABOVE samples above it."""
    n = len(samples)
    if n <= TAIL_ABOVE:
        return None, None
    ordered = sorted(samples)
    return ordered[n - TAIL_ABOVE - 1], math.floor(100.0 * (n - TAIL_ABOVE) / n)


def end_to_end(workload, calls, heap, rss_bytes, speed):
    """End-to-end metrics of the timed calls.

    Times read as at the reference machine speed (see speed.py): a unit
    of work is scaled by the reference time measured just before it, set-up
    by the one just before its call, and a call's wall time, less the
    reference runs inside it, by the mean reference time of that call.
    The first WARMUP_UNITS units of the run are left out of the step
    statistics.
    """
    scaled = speed.scaled

    def call_ref(c):
        return (c.ref_before + c.ref_s) / (1 + len(c.units))

    warm = [u for c in calls for u in c.units][WARMUP_UNITS:]
    raw = [end - start for start, end, _, _ in warm]
    times = [scaled(end - start, ref) for start, end, _, ref in warm]
    value, pct = tail(times)
    m = {
        "setup_s": statistics.median(scaled(c.setup_s, c.ref_before) for c in calls),
        "run_s": statistics.median(scaled(c.wall_s - c.ref_s, call_ref(c)) for c in calls),
        "step_ms_p50": 1000.0 * statistics.median(times),
        "images_per_s": sum(n for _, _, n, _ in warm) / sum(times),
        "activation_peak_bytes": max(c.metered_peak for c in calls),
        "heap_peak_bytes": heap.heap_peak,
        "rss_peak_bytes": rss_bytes,
    }
    extra = {"speed_factor": speed.factor(),
             "raw_step_ms_p50": 1000.0 * statistics.median(raw),
             "warm_units": len(times),
             "step_ms_tail": None if value is None else 1000.0 * value,
             "tail_percentile": pct}
    if workload.kind == "probe":
        extra["probe_s"] = statistics.median(
            scaled(c.wall_s - c.ref_s - c.setup_s, call_ref(c)) for c in calls)
        extra["probe_val_accuracy"] = float(calls[0].quality)
    else:
        extra["loss_final"] = float(calls[0].quality)
    return m, extra


def rss_peak_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# ----- correctness gate -------------------------------------------------------------

def gate(workload, cfg, analytic, steps, calls, heap, traced=None, layers=None,
         restored=()):
    """List of (check, ok, detail); every check must pass."""
    checks = []
    every = list(calls) + [heap] + ([traced] if traced else [])
    errors = [c.error.strip().splitlines()[-1] for c in every if c.error]
    checks.append(("no operation failed", not errors and all(c.failed == 0 for c in every),
                   "; ".join(errors)))
    checks.append(("wrappers restored", not restored, ", ".join(restored[:5])))
    quality = {c.quality for c in calls + ([traced] if traced else [])}
    checks.append(("bitwise equal loss_final / probe_val_accuracy across passes",
                   len(quality) == 1 and None not in quality, f"{sorted(map(str, quality))}"))
    if workload.kind == "pretrain":
        checks.append(("metrics.csv header is runner.METRICS_HEADER",
                       all(c.header == runner.METRICS_HEADER for c in every), ""))
        losses = [float(r[3]) for c in every for r in (c.rows or ())]
        checks.append(("every loss finite",
                       bool(losses) and all(map(math.isfinite, losses)), ""))
        peaks = {int(r[6]) for c in every for r in (c.rows or ())}
        checks.append(("activation_peak_bytes == memory.analytic_peak",
                       peaks == {analytic}, f"metered {sorted(peaks)} analytic {analytic}"))
        first = calls[0].rows or []
        checks.append(("heap pass rows bitwise equal to the first call's",
                       bool(heap.rows) and heap.rows == first[:len(heap.rows)], ""))
        ran = {len([r for r in (c.rows or ()) if r[2] == "-1"]) for c in calls}
        checks.append(("every untraced call ran its steps", ran == {steps}, f"{sorted(ran)}"))
    else:
        checks.append(("heap pass accuracy bitwise equal",
                       heap.quality == calls[0].quality, f"{heap.quality} {calls[0].quality}"))
    if layers is not None:
        checks.extend(exercise_checks(workload, cfg, layers))
    return checks


def exercise_checks(workload, cfg, m):
    """Exact counts from the traced pass: each workload does what it claims."""
    checks = [("spans cover the traced wall time",
               m["trace.coverage"] >= MIN_COVERAGE, f"{m['trace.coverage']:.4f}")]
    if workload.kind == "probe":
        checks.append(("probe runs no backward and no training step",
                       m["tape.bwd_calls"] == 0 and m["engine.steps"] == 0,
                       f"bwd {m['tape.bwd_calls']} steps {m['engine.steps']}"))
        return checks
    blocks = plan_of(cfg).num_blocks
    checks.append((f"Tape.backward runs {blocks}x per step",
                   m["tape.bwd_calls"] == blocks, f"{m['tape.bwd_calls']}"))
    grows = any(b > a for a, b in zip(cfg.train.mask_schedule, cfg.train.mask_schedule[1:]))
    drops = m["engine.drops"]
    checks.append(("incremental drop gathers only when the ratio grows",
                   (drops > 0) if grows and blocks > 1 else (drops == 0), f"{drops}"))
    return checks


# ----- one run ----------------------------------------------------------------------

@dataclasses.dataclass
class Result:
    metrics: dict            # end-to-end (trace 0) or per-layer (trace 1)
    extra: dict              # further end-to-end figures, printed only
    checks: list
    calls: list              # every call of the run, all passes
    traced: Call = None


def timed_calls(workload, seconds):
    """Entry calls per timed pass: as many as fit in `seconds` at the
    workload's nominal call time, so every commit does the same work."""
    return max(MIN_CALLS, round(seconds / workload.nominal_call_s))


def run_workload(workload, scale, seed, seconds, trace, work_dir):
    cfg, ckpt = prepare(workload, scale, seed, os.path.join(work_dir, "inputs"))
    pretrain = workload.kind == "pretrain"
    steps = scale.steps_per_call if pretrain else None

    def out(tag):
        return os.path.join(work_dir, f"out-{tag}")

    def heap_pass():
        return run_call(workload, cfg, ckpt, out("heap"),
                        scale.heap_steps if pretrain else None, "heap")

    speed = SpeedProbe(workload.reference, CLOCK)
    before = spans.namespace_snapshot(PATCHED_MODULES)
    # With tracing, the heap pass goes first and warms the process up, and
    # one plain call (no timers, no kernel runs between steps) is the
    # untraced wall time the traced call is compared with.
    heap = heap_pass() if trace else None
    calls = []
    for i in range(1 if trace else timed_calls(workload, seconds)):
        calls.append(run_call(workload, cfg, ckpt, out(i), steps,
                              "plain" if trace else "timed", speed))
        if calls[-1].failed:
            break
    rss = rss_peak_bytes()   # before tracemalloc adds its own bookkeeping
    heap = heap or heap_pass()
    traced = run_call(workload, cfg, ckpt, out("traced"), steps, "traced") if trace else None
    every = calls + [heap] + ([traced] if traced else [])
    ok = all(c.failed == 0 for c in every)
    # The probe has no analytic model of its forward-only tape.
    analytic = memory.analytic_peak(
        cfg.model, plan_of(cfg), cfg.train.batch_size,
        dtype_size=np.dtype(cfg.train.np_dtype).itemsize) if pretrain else 0
    layers = None
    if trace and ok:
        layers = layer_metrics(workload, traced, calls[0], heap.heap_peak, analytic)
    restored = spans.changed_names(before, PATCHED_MODULES)
    checks = gate(workload, cfg, analytic, steps, calls, heap, traced, layers, restored)
    metrics, extra = {}, {}
    if ok and not trace:
        metrics, extra = end_to_end(workload, calls, heap, rss, speed)
    elif ok:
        metrics = layers
    return Result(metrics=metrics, extra=extra, checks=checks, calls=every,
                  traced=traced)
