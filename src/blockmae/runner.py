"""Run pipelines: pretraining, baselines, probes, exports, reports.

Every training run, block-wise or the end-to-end MAE baseline (the
one-block plan), calls the one step, `blockwise_train_step`.

Each pipeline writes into its own output directory:
    metrics.csv          one row per (step, block) plus an aggregate row
                         per step (block_id = -1), schema below
    ckpt_epoch<N>.bimc   parameters + optimizer state + run counters
    mem_report.csv / flop_report.csv / probe_results.csv

Metrics CSV header (bit-exact): step,epoch,block_id,loss,lr,live_bytes,peak_bytes
Block rows carry that block's loss and the live bytes right after its
release; aggregate rows carry the mean loss and the step's peak.  A
non-finite loss aborts the run before anything is written for that step.

A training run sets two process-wide glibc allocator thresholds when it
starts (`_keep_freed_heap`).  Every step frees and reallocates the same
buffers; by default glibc gives the freed heap back to the OS after each
step and the next step faults it in again, in system time.  After the
call the process keeps its peak heap mapped, as a long run does anyway.
The arithmetic, and so every output, is the same with or without them.
"""

import ctypes
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError
from .data import gen_synthetic_dataset, load_dataset
from .engine import blockwise_train_step, build_model, partition_encoder
from .memory import compare_peak, flop_estimate
from .ofa import ProbeConfig, linear_probe, truncate_backbone
from .optim import AdamW, lr_at_step
from .tape import NumericError

METRICS_HEADER = "step,epoch,block_id,loss,lr,live_bytes,peak_bytes"
MEM_HEADER = ("mode,batch,config,analytic_peak_bytes,measured_peak_bytes,"
              "ratio_vs_mae")
FLOP_HEADER = ("schedule,visible_fractions,encoder_linear_units,"
               "encoder_quad_units,decoder_units,baseline_linear_units,"
               "baseline_quad_units,baseline_decoder_units,"
               "savings_vs_baseline")
PROBE_HEADER = "depth_k,train_accuracy,val_accuracy,epochs,config_hash"

# The one step, under the second name the benchmark wraps it by
# (perfbench's `run_call` and `instrument`); it goes when the benchmark
# skips names the tree lacks (ROADMAP item 1 part A).
mae_train_step = blockwise_train_step

# glibc `mallopt` parameters (malloc.h) and their values for a training run.
# M_TRIM_THRESHOLD: a freed heap top below 1 GiB stays in the process, so
# the next step does not fault the same pages in again.
_TRIM_THRESHOLD = (-1, 1 << 30)
# M_MMAP_THRESHOLD: glibc's own ceiling for its dynamic threshold, which
# setting the trim threshold turns off.  A step's 0.25-2 MB buffers then
# come from the heap, not from a fresh mmap each time.
_MMAP_THRESHOLD = (-3, 32 << 20)


@dataclass
class RunArtifacts:
    metrics_path: str = None
    checkpoint_paths: list = field(default_factory=list)
    memory_report_path: str = None
    flop_report_path: str = None
    probe_results_path: str = None
    backbone_path: str = None


def _fmt(x):
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def _dataset_for(cfg):
    """The config's dataset; ConfigError if its images are not the
    model's (H, W, C)."""
    t, spec = cfg.train, cfg.model
    if t.dataset == "synthetic":
        return gen_synthetic_dataset(spec.image_size, t.dataset_size,
                                     t.seed, channels=spec.channels,
                                     num_classes=t.num_classes)
    ds = load_dataset(t.dataset)
    want = (spec.image_size, spec.image_size, spec.channels)
    if ds.pixels.shape[1:] != want:
        raise ConfigError(
            f"dataset {t.dataset} holds images of (H, W, C) = "
            f"{ds.pixels.shape[1:]}, the config gives {want}")
    return ds


def _metric_rows_before(path, step):
    """Complete data rows of an existing metrics file with step below `step`.

    A row is complete when it ends in a newline and has the header's
    fields; a line torn by a kill is dropped.  Every step below `step`
    must still have its aggregate row, the last one written for a step,
    or the file cannot be continued and ConfigError is raised.
    """
    if not os.path.exists(path):
        return []
    fields = METRICS_HEADER.count(",") + 1
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in fh.readlines()[1:]
                if r.endswith("\n") and r.count(",") + 1 == fields]
    rows = [r for r in rows if int(r.split(",", 1)[0]) < step]
    done = {int(r.split(",", 1)[0]) for r in rows if r.split(",")[2] == "-1"}
    missing = [s for s in range(step) if s not in done]
    if missing:
        raise ConfigError(
            f"{path} lacks complete rows for step {missing[0]} (of {step} "
            f"before the checkpoint); resume from an earlier checkpoint")
    return rows


def _replace_durably(path, lines):
    """Make `lines` the contents of `path`: written to a temporary file
    beside it and synced to disk, then renamed over it."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _check_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite {what}: {values}")


def _keep_freed_heap():
    """Set the process-wide allocator thresholds a training run wants.

    Returns True when libc took both; a libc without `mallopt` (one that
    is not glibc) is left as it is and gives False.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    took = [mallopt(param, value)
            for param, value in (_TRIM_THRESHOLD, _MMAP_THRESHOLD)]
    return took == [1, 1]


def _counter(tensors, key):
    """The checkpoint counter `key` as an int.  It must hold one finite,
    non-negative whole number, or ConfigError names the key."""
    arr = tensors[key]
    value = arr.reshape(-1)[0] if arr.size == 1 else None
    if value is None or not np.isfinite(value) or value < 0 or \
            value != np.floor(value):
        raise ConfigError(
            f"checkpoint counter {key!r} must be one finite, non-negative "
            f"whole number, got {arr.tolist()}")
    return int(value)


def _resume_step(tensors, names):
    """The step a checkpoint's run continues from.

    A resume needs `meta.step` and the whole optimizer state: the
    `opt.m.`, `opt.v.` and `opt.t.` entries of every parameter in `names`,
    since every step updates every parameter.  ConfigError names the first
    missing key, or the first counter (`meta.step`, then each `opt.t.`
    entry) that is not one finite, non-negative whole number.
    """
    need = ["meta.step"] + [f"opt.{s}.{name}" for name in names
                            for s in "mvt"]
    missing = [key for key in need if key not in tensors]
    if missing:
        raise ConfigError(f"checkpoint lacks {missing[0]!r}, which a resume "
                          f"needs")
    step = _counter(tensors, "meta.step")
    for name in names:
        _counter(tensors, f"opt.t.{name}")
    return step


def run_pretrain(cfg, out_dir, resume_from=None, max_steps=None):
    """Train per the config; returns paths of everything written.

    max_steps caps the steps executed by this invocation (the schedule
    itself is unchanged), so an interrupted run can be simulated and then
    resumed from its last epoch checkpoint.

    The call first sets glibc's trim and mmap thresholds for the whole
    process, so a step's freed buffers stay in the heap for the next step
    instead of being unmapped and faulted in again.  The process then
    keeps its peak heap mapped after the call, as a long run does anyway.
    """
    _keep_freed_heap()
    os.makedirs(out_dir, exist_ok=True)
    t = cfg.train
    dtype = t.np_dtype
    plan = cfg.plan
    model = build_model(cfg.model, plan.num_blocks, t.seed, dtype)
    units = partition_encoder(model)
    opt = AdamW(beta1=t.beta1, beta2=t.beta2, weight_decay=t.weight_decay)

    start_step = 0
    if resume_from is not None:
        tensors = load_checkpoint(resume_from)
        missing = _load_params(model, tensors, dtype)
        if missing:
            raise ConfigError(f"checkpoint lacks parameter {missing[0]!r}")
        start_step = _resume_step(tensors, model.params)
        opt.load_state_tensors(tensors, dtype)

    ds = _dataset_for(cfg)
    if len(ds) < t.batch_size:
        raise ConfigError(
            f"dataset of {len(ds)} samples cannot fill batches of "
            f"{t.batch_size}")
    steps_per_epoch = len(ds) // t.batch_size
    total_steps = t.total_epochs * steps_per_epoch
    if start_step > total_steps:
        raise ConfigError(
            f"checkpoint is at step {start_step}, past the schedule's end "
            f"at step {total_steps}")

    artifacts = RunArtifacts(metrics_path=os.path.join(out_dir, "metrics.csv"))
    if resume_from is not None:
        # A resumed run keeps the rows before its checkpoint and replays
        # the rest.  The kept rows replace the file only once they are on
        # disk, so a kill at any point leaves a file the same checkpoint
        # can resume from again.
        _replace_durably(artifacts.metrics_path, [METRICS_HEADER + "\n"]
                         + _metric_rows_before(artifacts.metrics_path,
                                               start_step))
    stop = total_steps if max_steps is None else min(total_steps,
                                                     start_step + max_steps)
    with open(artifacts.metrics_path, "w" if resume_from is None else "a",
              encoding="utf-8") as fh:
        if resume_from is None:
            fh.write(METRICS_HEADER + "\n")
        for gstep in range(start_step, stop):
            epoch, step = divmod(gstep, steps_per_epoch)
            order = rng.permutation(rng.split(t.seed, "order", epoch),
                                    len(ds))
            idx = order[step * t.batch_size:(step + 1) * t.batch_size]
            images = ds.images(idx, dtype=dtype)
            lr = lr_at_step(gstep, steps_per_epoch, t)
            step_seed = rng.split(t.seed, "step", epoch, step)
            rep = blockwise_train_step(units, images, plan, opt, lr,
                                       step_seed)
            _check_finite(rep.losses, "loss")
            for i, (loss, live) in enumerate(zip(rep.losses,
                                                 rep.live_after_release)):
                fh.write(f"{gstep},{epoch},{i},{_fmt(loss)},{_fmt(lr)},"
                         f"{live},{rep.peak_activation_bytes}\n")
            fh.write(f"{gstep},{epoch},-1,{_fmt(rep.mean_loss)},{_fmt(lr)},"
                     f"0,{rep.peak_activation_bytes}\n")
            if (gstep + 1) % steps_per_epoch == 0:
                # The rows up to this step reach the disk before the
                # checkpoint that a resume would continue them from.
                fh.flush()
                os.fsync(fh.fileno())
                path = os.path.join(out_dir, f"ckpt_epoch{epoch}.bimc")
                tensors = dict(model.params)
                tensors.update(opt.state_tensors())
                tensors["meta.step"] = np.array([gstep + 1], dtype=np.float64)
                tensors["meta.num_blocks"] = _num_blocks_record(model)
                save_checkpoint(tensors, path)
                artifacts.checkpoint_paths.append(path)

    artifacts.memory_report_path = write_mem_report(cfg, out_dir)
    artifacts.flop_report_path = write_flop_report(cfg, out_dir)
    for p in artifacts.checkpoint_paths + [artifacts.metrics_path,
                                           artifacts.memory_report_path,
                                           artifacts.flop_report_path]:
        if not os.path.exists(p):
            raise ConfigError(f"expected artifact missing: {p}")
    return artifacts


def write_mem_report(cfg, out_dir, batch=None):
    """Write `mem_report.csv`: each mode's analytic and measured peak
    activation bytes for one step at `batch`, and block-wise / MAE.

    `batch` defaults to min(batch_size, 8), not the batch the run trains
    at.  The ratio moves with batch: each block's decoder-loss node
    charges its decoder's parameter gradients, which do not grow with
    batch, so on desk-blockwise it reads 0.365 at batch 8 and 0.318 at the
    training batch of 64.  `run_pretrain` writes this report after every
    run, so the default keeps its two metered steps small; pass the
    training batch to price that.
    """
    if batch is None:
        batch = min(cfg.train.batch_size, 8)
    elif batch < 1:
        raise ConfigError(f"mem-report batch must be >= 1, got {batch}")
    os.makedirs(out_dir, exist_ok=True)
    rows = compare_peak(cfg.model, cfg.plan, batch, seed=cfg.train.seed,
                        dtype=cfg.train.np_dtype)
    path = os.path.join(out_dir, "mem_report.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MEM_HEADER + "\n")
        for r in rows:
            fh.write(f"{r.mode},{r.batch},\"{r.config}\","
                     f"{r.analytic_peak_bytes},{r.measured_peak_bytes},"
                     f"{_fmt(r.ratio_vs_mae)}\n")
    return path


def write_flop_report(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    rep = flop_estimate(cfg.model, cfg.plan)
    path = os.path.join(out_dir, "flop_report.csv")
    sched = " ".join(_fmt(r) for r in rep.schedule)
    fracs = " ".join(_fmt(f) for f in rep.visible_fractions)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FLOP_HEADER + "\n")
        fh.write(f"\"{sched}\",\"{fracs}\",{_fmt(rep.encoder_linear_units)},"
                 f"{_fmt(rep.encoder_quad_units)},{_fmt(rep.decoder_units)},"
                 f"{_fmt(rep.baseline_linear_units)},"
                 f"{_fmt(rep.baseline_quad_units)},"
                 f"{_fmt(rep.baseline_decoder_units)},"
                 f"{_fmt(rep.savings_vs_baseline)}\n")
    return path


def _num_blocks_record(model):
    """`meta.num_blocks` of a checkpoint of `model`: the block count its
    bridge norms were trained for."""
    return np.array([model.num_blocks], dtype=np.float64)


def _load_params(model, tensors, dtype):
    """Copy the checkpoint's parameters into `model.params` as `dtype`.

    A file's `meta.num_blocks` must be a whole number (`_counter`) equal
    to the config's block count, or ConfigError names both: a bridge norm
    trained after the last layer of another block count reads other
    features.  It is checked first, since another block count's tensors
    are not the config's.  Every checkpoint tensor must be a parameter of
    the config's model, its `opt.m.`/`opt.v.`/`opt.t.` entry or a `meta.`
    counter, or ConfigError names the first that is not.  A file without
    the record must hold every parameter of the config's model, or
    ConfigError names the first it lacks.  Each parameter's tensor and its
    `opt.m.`/`opt.v.` moments must have the shape the config gives it, or
    ConfigError names the tensor and both shapes.  Returns the names of
    the parameters the checkpoint lacks.
    """
    if "meta.num_blocks" in tensors:
        recorded = _counter(tensors, "meta.num_blocks")
        if recorded != model.num_blocks:
            raise ConfigError(
                f"checkpoint was trained with {recorded} blocks, the config "
                f"gives {model.num_blocks}")
    for key in tensors:
        name = re.sub(r"^opt\.[mvt]\.", "", key)
        if name not in model.params and not key.startswith("meta."):
            raise ConfigError(
                f"checkpoint tensor {key!r} is not a parameter of the "
                f"config's model")
    missing = [name for name in model.params if name not in tensors]
    if "meta.num_blocks" not in tensors and missing:
        raise ConfigError(
            f"checkpoint records no meta.num_blocks and lacks parameter "
            f"{missing[0]!r}; only a file of every parameter may omit the "
            f"record")
    for name, arr in model.params.items():
        for key in (name, f"opt.m.{name}", f"opt.v.{name}"):
            if key in tensors and tensors[key].shape != arr.shape:
                raise ConfigError(
                    f"checkpoint tensor {key!r} has shape "
                    f"{tensors[key].shape}, the config gives {arr.shape}")
    model.params.update({name: tensors[name].astype(dtype)
                         for name in model.params if name in tensors})
    return missing


def _model_from_checkpoint(cfg, checkpoint_path, k):
    """Prefix k of the config's model, every tensor of it read from the
    checkpoint: a full run's or an exported backbone.  The model keeps
    only the prefix's tensors, all that the probe and the export read:
    the decoders, the bridge projections and the other bridge norms are
    dropped once the checkpoint is checked."""
    model = build_model(cfg.model, cfg.plan.num_blocks, cfg.train.seed,
                        np.float64)
    tensors = load_checkpoint(checkpoint_path)
    _load_params(model, tensors, np.float64)
    prefix = truncate_backbone(model, k)
    names = prefix.parameters() + list(prefix.norm_params())
    missing = [n for n in names if n not in tensors]
    if missing:
        raise ConfigError(f"checkpoint lacks backbone tensors: {missing[:3]}")
    model.params = {n: model.params[n] for n in names}
    return prefix


def run_probe(cfg, checkpoint_path, k, out_dir):
    """Probe prefix k of a trained checkpoint on the labeled dataset."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = _model_from_checkpoint(cfg, checkpoint_path, k)
    ds = _dataset_for(cfg)
    # An empty dataset has no top label: linear_probe refuses it by size.
    if (ds.labels is not None and len(ds)
            and ds.labels.max() >= cfg.train.num_classes):
        top = ds.labels.max()
        raise ConfigError(
            f"dataset label {top} needs num_classes > {top}, the config "
            f"gives num_classes = {cfg.train.num_classes}")
    res = linear_probe(prefix, ds,
                       ProbeConfig(seed=cfg.train.seed),
                       num_classes=cfg.train.num_classes)
    path = os.path.join(out_dir, "probe_results.csv")
    _append_row(path, PROBE_HEADER,
                f"{res.depth_index},{_fmt(res.train_accuracy)},"
                f"{_fmt(res.val_accuracy)},{res.epochs},{res.config_hash}")
    return RunArtifacts(probe_results_path=path), res


def _append_row(path, header, row):
    """Append the line `row` to the CSV file `path`.

    A last line without its newline, torn by a kill, is cut off first.
    The header goes first when the file is missing or holds no complete
    line, as one a kill left empty.
    """
    with open(path, "ab+") as fh:
        fh.seek(0)
        kept = fh.read().rfind(b"\n") + 1
        fh.truncate(kept)
        head = b"" if kept else header.encode() + b"\n"
        fh.write(head + row.encode() + b"\n")


def run_export_backbone(cfg, checkpoint_path, k, out_dir):
    """Write prefix k (backbone weights + its norm) as a BIMC file."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = _model_from_checkpoint(cfg, checkpoint_path, k)
    tensors = {n: prefix.model.params[n]
               for n in prefix.parameters() + list(prefix.norm_params())}
    tensors["meta.k"] = np.array([k], dtype=np.float64)
    tensors["meta.num_blocks"] = _num_blocks_record(prefix.model)
    path = os.path.join(out_dir, f"backbone_k{k}.bimc")
    save_checkpoint(tensors, path)
    return RunArtifacts(backbone_path=path)
