"""Run pipelines: pretraining, baselines, probes, exports, reports.

Each pipeline writes into its own output directory:
    metrics.csv          one row per (step, block) plus an aggregate row
                         per step (block_id = -1), schema below
    ckpt_epoch<N>.bimc   parameters + optimizer state + run counters
    mem_report.csv / flop_report.csv / probe_results.csv

Metrics CSV header (bit-exact): step,epoch,block_id,loss,lr,live_bytes,peak_bytes
Block rows carry that block's loss and the live bytes right after its
release; aggregate rows carry the mean loss and the step's peak.  A
non-finite loss aborts the run before anything is written for that step.
"""

import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError
from .data import Dataset, gen_synthetic_dataset, load_dataset
from .engine import (
    BlockPlan, blockwise_train_step, build_model, mae_train_step,
    partition_encoder,
)
from .memory import compare_peak, flop_estimate
from .model import fold_split_qkv
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
    t = cfg.train
    if t.dataset == "synthetic":
        return gen_synthetic_dataset(cfg.model.image_size, t.dataset_size,
                                     t.seed, channels=cfg.model.channels,
                                     num_classes=t.num_classes)
    return load_dataset(t.dataset)


def _plan_for(cfg):
    t = cfg.train
    return BlockPlan(num_blocks=t.num_blocks, mask_schedule=t.mask_schedule,
                     mode=t.mode)


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


def _check_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite {what}: {values}")


def run_pretrain(cfg, out_dir, resume_from=None, max_steps=None):
    """Train per the config; returns paths of everything written.

    max_steps caps the steps executed by this invocation (the schedule
    itself is unchanged), so an interrupted run can be simulated and then
    resumed from its last epoch checkpoint.
    """
    os.makedirs(out_dir, exist_ok=True)
    t = cfg.train
    dtype = t.np_dtype
    plan = _plan_for(cfg)
    model = build_model(cfg.model, plan.num_blocks, t.seed, dtype)
    units = partition_encoder(model, plan.num_blocks)
    opt = AdamW(beta1=t.beta1, beta2=t.beta2, weight_decay=t.weight_decay)

    start_step = 0
    if resume_from is not None:
        tensors = fold_split_qkv(load_checkpoint(resume_from), cfg.model)
        missing = _load_params(model, tensors, dtype)
        if missing:
            raise ConfigError(f"checkpoint lacks parameter {missing[0]!r}")
        opt.load_state_tensors(tensors)
        start_step = int(tensors["meta.step"][0])

    ds = _dataset_for(cfg)
    if len(ds) < t.batch_size:
        raise ConfigError(
            f"dataset of {len(ds)} samples cannot fill batches of "
            f"{t.batch_size}")
    steps_per_epoch = len(ds) // t.batch_size
    total_steps = t.total_epochs * steps_per_epoch

    artifacts = RunArtifacts(metrics_path=os.path.join(out_dir, "metrics.csv"))
    # A resumed run keeps the rows before its checkpoint and replays the rest.
    earlier = ([] if resume_from is None else
               _metric_rows_before(artifacts.metrics_path, start_step))
    stop = total_steps if max_steps is None else min(total_steps,
                                                     start_step + max_steps)
    with open(artifacts.metrics_path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")
        fh.writelines(earlier)
        for gstep in range(start_step, stop):
            epoch, step = divmod(gstep, steps_per_epoch)
            order = rng.permutation(rng.split(t.seed, "order", epoch),
                                    len(ds))
            idx = order[step * t.batch_size:(step + 1) * t.batch_size]
            images = ds.images(idx, dtype=dtype)
            lr = lr_at_step(gstep, steps_per_epoch, t)
            step_seed = rng.split(t.seed, "step", epoch, step)
            if plan.mode == "mae":
                rep = mae_train_step(units, images, plan.mask_schedule[0],
                                     opt, lr, step_seed)
            else:
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
                tensors["meta.epoch"] = np.array([epoch + 1], dtype=np.float64)
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
    if batch is None:
        batch = min(cfg.train.batch_size, 8)
    elif batch < 1:
        raise ConfigError(f"mem-report batch must be >= 1, got {batch}")
    os.makedirs(out_dir, exist_ok=True)
    plan = _plan_for(cfg)
    rows = compare_peak(cfg.model, plan, batch, seed=cfg.train.seed,
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
    rep = flop_estimate(cfg.model, _plan_for(cfg))
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


def _load_params(model, tensors, dtype):
    """Copy the checkpoint's parameters into `model.params` as `dtype`.

    Every checkpoint tensor must be a parameter of the config's model, its
    `opt.m.`/`opt.v.`/`opt.t.` entry or a `meta.` counter, or ConfigError
    names the first that is not.  Each parameter's tensor and its
    `opt.m.`/`opt.v.` moments must have the shape the config gives it, or
    ConfigError names the tensor and both shapes.  Returns the names of the
    parameters the checkpoint lacks.
    """
    for key in tensors:
        name = re.sub(r"^opt\.[mvt]\.", "", key)
        if name not in model.params and not key.startswith("meta."):
            raise ConfigError(
                f"checkpoint tensor {key!r} is not a parameter of the "
                f"config's model")
    for name, arr in model.params.items():
        for key in (name, f"opt.m.{name}", f"opt.v.{name}"):
            if key in tensors and tensors[key].shape != arr.shape:
                raise ConfigError(
                    f"checkpoint tensor {key!r} has shape "
                    f"{tensors[key].shape}, the config gives {arr.shape}")
    model.params.update({name: tensors[name].astype(dtype)
                         for name in model.params if name in tensors})
    return [name for name in model.params if name not in tensors]


def _model_from_checkpoint(cfg, checkpoint_path, k):
    """Prefix k of the config's model, every tensor of it read from the
    checkpoint: a full run's or an exported backbone."""
    plan = _plan_for(cfg)
    model = build_model(cfg.model, plan.num_blocks, cfg.train.seed,
                        np.float64)
    tensors = fold_split_qkv(load_checkpoint(checkpoint_path), cfg.model)
    _load_params(model, tensors, np.float64)
    prefix = truncate_backbone(model, k)
    missing = [n for n in prefix.parameters() + list(prefix.norm_params())
               if n not in tensors]
    if missing:
        raise ConfigError(f"checkpoint lacks backbone tensors: {missing[:3]}")
    return prefix


def run_probe(cfg, checkpoint_path, k, out_dir):
    """Probe prefix k of a trained checkpoint on the labeled dataset."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = _model_from_checkpoint(cfg, checkpoint_path, k)
    ds = _dataset_for(cfg)
    if ds.labels is not None and ds.labels.max() >= cfg.train.num_classes:
        top = ds.labels.max()
        raise ConfigError(
            f"dataset label {top} needs num_classes > {top}, the config "
            f"gives num_classes = {cfg.train.num_classes}")
    res = linear_probe(prefix, ds,
                       ProbeConfig(seed=cfg.train.seed),
                       num_classes=cfg.train.num_classes)
    path = os.path.join(out_dir, "probe_results.csv")
    fresh = not os.path.exists(path)
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(PROBE_HEADER + "\n")
        fh.write(f"{res.depth_index},{_fmt(res.train_accuracy)},"
                 f"{_fmt(res.val_accuracy)},{res.epochs},{res.config_hash}\n")
    return RunArtifacts(probe_results_path=path), res


def run_export_backbone(cfg, checkpoint_path, k, out_dir):
    """Write prefix k (backbone weights + its norm) as a BIMC file."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = _model_from_checkpoint(cfg, checkpoint_path, k)
    tensors = {n: prefix.model.params[n]
               for n in prefix.parameters() + list(prefix.norm_params())}
    tensors["meta.k"] = np.array([k], dtype=np.float64)
    path = os.path.join(out_dir, f"backbone_k{k}.bimc")
    save_checkpoint(tensors, path)
    return RunArtifacts(backbone_path=path)
