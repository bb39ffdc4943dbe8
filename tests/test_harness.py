"""Harness: lr rules, AdamW traces, dataset/checkpoint IO, pipelines, CLI."""

import os
import re
import signal
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from blockmae import memory, rng, runner
from blockmae.checkpoint import load_checkpoint, save_checkpoint
from blockmae.cli import main as cli_main
from blockmae.config import (
    ConfigError, PRESETS, TrainConfig, load_config, parse_config,
)
from blockmae.data import (
    Dataset, FormatError, gen_synthetic_dataset, load_dataset, save_dataset,
)
from blockmae.engine import BlockPlan, build_model
from blockmae.model import ModelSpec
from blockmae.ofa import ProbeConfig, fit_linear_classifier, _accuracy
from blockmae.optim import AdamW, lr_at_step, scale_lr
from blockmae.runner import run_pretrain, run_probe
from blockmae.tape import NumericError

TINY_CONFIG = """
# tiny run for integration tests
image_size = 16
patch_size = 4
embed_dim = 16
depth = 2
heads = 2
mlp_ratio = 2
decoder_dim = 8
decoder_depth = 1
mask_schedule = 0.5,0.5
batch_size = 16
dataset_size = 64
total_epochs = 2
warmup_epochs = 1
base_lr = 1e-2
seed = 5
dtype = f64
"""
# The same run as one block: the end-to-end baseline at the first ratio.
TINY_ONE_BLOCK = TINY_CONFIG.replace("mask_schedule = 0.5,0.5",
                                     "mask_schedule = 0.5")


# ----- lr rules -----------------------------------------------------------------

def test_scale_lr_published_point_exact():
    assert scale_lr(1.5e-4, 4096) == 2.4e-3


def test_scale_lr_identity_at_256():
    assert scale_lr(3.7e-3, 256) == 3.7e-3


def test_scale_lr_simple_arithmetic():
    assert scale_lr(0.1, 512) == pytest.approx(0.2, rel=1e-15)


def _cfg(**over):
    base = dict(base_lr=1e-2, batch_size=256, warmup_epochs=2, total_epochs=10)
    base.update(over)
    return TrainConfig(**base)


def test_lr_schedule_peak_at_warmup_knot():
    cfg = _cfg()
    assert lr_at_step(20, 10, cfg) == scale_lr(cfg.base_lr, cfg.batch_size)
    assert lr_at_step(0, 10, cfg) == 0.0
    assert lr_at_step(10, 10, cfg) == (
        0.5 * scale_lr(cfg.base_lr, cfg.batch_size))


def test_lr_schedule_zero_at_end_and_beyond():
    cfg = _cfg()
    assert abs(lr_at_step(100, 10, cfg)) < 1e-18
    assert lr_at_step(150, 10, cfg) == 0.0


def test_lr_schedule_cosine_midpoint_half_peak():
    cfg = _cfg()
    mid = 20 + (100 - 20) // 2
    assert lr_at_step(mid, 10, cfg) == pytest.approx(
        0.5 * scale_lr(cfg.base_lr, cfg.batch_size), rel=1e-12)


# ----- AdamW ---------------------------------------------------------------------

def test_adamw_zero_gradient_pure_decay():
    opt = AdamW(weight_decay=0.05)
    params = {"w": np.array([2.0, -3.0])}
    opt.step(params, {"w": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(params["w"],
                                  np.array([2.0, -3.0]) * (1 - 0.1 * 0.05))


def test_adamw_constant_gradient_sign_like_updates():
    opt = AdamW(weight_decay=0.0)
    params = {"w": np.array([0.0])}
    lr = 1e-3
    prev = params["w"].copy()
    for _ in range(50):
        opt.step(params, {"w": np.array([0.5])}, lr=lr)
        delta = prev - params["w"]
        # mhat/sqrt(vhat) == 1 exactly for constant gradients
        assert abs(delta[0] - lr) < 1e-9
        prev = params["w"].copy()


def test_adamw_three_step_scalar_trace():
    b1, b2, eps, lr = 0.9, 0.95, 1e-8, 0.01
    opt = AdamW(beta1=b1, beta2=b2, weight_decay=0.0, eps=eps)
    params = {"w": np.array([1.0])}
    gs = [0.3, -0.2, 0.7]
    # independent scalar recursion
    w, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(gs, 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    for g in gs:
        opt.step(params, {"w": np.array([g])}, lr=lr)
    assert params["w"][0] == pytest.approx(w, rel=1e-14)


def test_adamw_rejects_nonfinite_gradient():
    opt = AdamW()
    with pytest.raises(NumericError, match="oops"):
        opt.step({"oops": np.zeros(2)}, {"oops": np.array([1.0, np.nan])},
                 lr=0.1)


def test_adamw_nonfinite_gradient_updates_nothing():
    opt = AdamW()
    params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
    opt.step(params, {"a": np.array([0.1, -0.1]), "b": np.array([0.2])}, lr=0.01)
    before = {k: v.copy() for k, v in params.items()}
    state = {k: (st["t"], st["m"].copy(), st["v"].copy())
             for k, st in opt.state.items()}
    with pytest.raises(NumericError, match="'b'"):
        opt.step(params, {"a": np.array([0.5, 0.5]), "b": np.array([np.nan])},
                 lr=0.01)
    for k in params:
        assert params[k].tobytes() == before[k].tobytes()
        t, m, v = state[k]
        assert opt.state[k]["t"] == t
        assert opt.state[k]["m"].tobytes() == m.tobytes()
        assert opt.state[k]["v"].tobytes() == v.tobytes()


def test_adamw_state_roundtrip():
    opt = AdamW()
    params = {"w": np.array([1.0, 2.0])}
    opt.step(params, {"w": np.array([0.1, -0.1])}, lr=0.01)
    st = opt.state_tensors()
    opt2 = AdamW()
    opt2.load_state_tensors(st, np.float64)
    assert opt2.state["w"]["t"] == 1
    np.testing.assert_array_equal(opt2.state["w"]["m"], opt.state["w"]["m"])


@pytest.mark.parametrize("saved,resumed", [("f32", "f64"), ("f64", "f32")])
def test_resume_under_another_dtype_keeps_the_configs_dtype(tmp_path, saved,
                                                            resumed):
    # The parameters and both moments of every later checkpoint are in
    # the resuming config's dtype, not the one the checkpoint was saved in.
    half = run_pretrain(parse_config(TINY_CONFIG.replace(
        "dtype = f64", f"dtype = {saved}")), str(tmp_path / "half"),
        max_steps=4)
    cfg = parse_config(TINY_CONFIG.replace("dtype = f64",
                                           f"dtype = {resumed}"))
    run = run_pretrain(cfg, str(tmp_path / "resumed"),
                       resume_from=half.checkpoint_paths[0])
    want = np.dtype(cfg.train.np_dtype)
    tensors = load_checkpoint(run.checkpoint_paths[-1])
    wrong = {k: a.dtype.name for k, a in tensors.items()
             if not k.startswith(("meta.", "opt.t.")) and a.dtype != want}
    assert not wrong, wrong


# ----- config --------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    cfg = parse_config(TINY_CONFIG)
    assert cfg.model.depth == 2 and cfg.train.mask_schedule == (0.5, 0.5)
    p = tmp_path / "tiny.txt"
    p.write_text(TINY_CONFIG, encoding="utf-8")
    assert load_config(str(p)) == cfg


def test_config_unknown_key_lists_valid_keys():
    with pytest.raises(ConfigError, match="valid keys.*base_lr"):
        parse_config("not_a_key = 3")
    # The schedule is the whole block plan: its length is the block count
    # and one ratio is the end-to-end baseline, so neither is a key.
    for line in ("mode = mae", "num_blocks = 4"):
        key = line.split(" ")[0]
        with pytest.raises(ConfigError, match=re.escape(
                f"line 1: unknown key {key!r}; valid keys: ")):
            parse_config(line)


def test_config_invariants():
    with pytest.raises(ConfigError):
        parse_config("warmup_epochs = 9\ntotal_epochs = 3")
    with pytest.raises(ConfigError):
        parse_config("beta1 = 1.5")
    with pytest.raises(ConfigError):
        parse_config("image_size = 30")  # not divisible by patch 4
    for line in ("dataset_size = 0", "num_classes = 0", "warmup_epochs = -2",
                 "base_lr = -1", "weight_decay = -0.1", "base_lr = nan",
                 "base_lr = inf", "weight_decay = nan", "weight_decay = inf",
                 "total_epochs = 0", "total_epochs = 0\nwarmup_epochs = 0"):
        key = line.split(" ")[0]
        with pytest.raises(ConfigError, match=f"{key} must be >= "):
            parse_config(line)
    # the edges of the ranges stay valid
    parse_config("warmup_epochs = 0\nbase_lr = 0\nweight_decay = 0\n"
                 "dataset_size = 1\nnum_classes = 1\ntotal_epochs = 1")


@pytest.mark.parametrize("text", [
    "image_size = 16\ndepth = 2\nmask_schedule = 0.99,0.99",
    "image_size = 16\nmask_schedule = 0.99",
    "image_size = 4\npatch_size = 4",
    "image_size = 4\npatch_size = 4\nmask_schedule = 0.75",
])
def test_config_mask_ratio_must_leave_a_visible_token(text):
    ratio = re.search(r"mask_schedule = ([\d.]+)", text)
    ratio = ratio.group(1) if ratio else "0.75"
    patches = (int(re.search(r"image_size = (\d+)", text).group(1)) // 4) ** 2
    with pytest.raises(ConfigError, match=re.escape(
            f"mask ratio {float(ratio)} leaves no visible token "
            f"(num_patches = {patches})")):
        parse_config(text)


@pytest.mark.parametrize("text", [
    "mask_schedule = 0.0,0.75,0.75,0.75",
    "mask_schedule = 0.0",
    "mask_schedule = 1e-17",
])
def test_config_mask_ratio_must_hide_a_patch(text):
    ratio = float(re.search(r"mask_schedule = ([^,\n]+)", text).group(1))
    with pytest.raises(ConfigError, match=re.escape(
            f"mask ratio {ratio} hides no patch (num_patches = 64)")):
        parse_config(text)
    # below 1/N a ratio still hides one patch
    assert parse_config("mask_schedule = 0.01").plan.mask_schedule == (0.01,)


def test_config_mask_ratio_edges():
    # floor(16 * (1 - 0.9375)) = 1 visible token is enough
    parse_config("image_size = 16\ndepth = 2\nmask_schedule = 0.5,0.9375")
    for ratio in ("1.0", "-0.5", "nan"):
        with pytest.raises(ConfigError, match="ratios must lie in"):
            parse_config(f"mask_schedule = {ratio}")


def test_config_blockwise_cross_checks():
    with pytest.raises(ConfigError, match="depth 6 is not divisible into 4"):
        parse_config("depth = 6")
    # the end-to-end baseline is one block, which any depth fills
    parse_config("depth = 6\nmask_schedule = 0.75")


@pytest.mark.parametrize("text, message", [
    ("mask_schedule = 0.75,0.5,0.5,0.5",
     "mask_schedule ratios must be non-decreasing, got (0.75, 0.5, 0.5, 0.5)"),
    ("mask_schedule =", "mask_schedule needs at least one ratio"),
    ("mask_schedule = 0.5,1.0",
     "mask_schedule ratios must lie in [0, 1), got 1.0"),
])
def test_config_schedule_rule_texts(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)


@pytest.mark.parametrize("text, message", [
    ("embed_dim = 18\nheads = 2", "embed_dim 18 not divisible by 4"),
    ("decoder_dim = 18", "decoder_dim 18 not divisible by 4"),
    ("decoder_dim = 100",
     "decoder_dim 100 not divisible by its 3 decoder heads"),
])
def test_config_refuses_widths_the_model_cannot_build(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)


def _config_value(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, tuple):
        return ",".join(repr(r) for r in v)
    return str(v)


def test_config_every_field_round_trips():
    model = dict(image_size=16, patch_size=2, channels=3, embed_dim=32,
                 depth=4, heads=2, mlp_ratio=2, decoder_dim=64,
                 decoder_depth=2, norm_pix=True)
    train = dict(base_lr=1e-3, batch_size=8, beta1=0.8, beta2=0.9,
                 weight_decay=0.1, warmup_epochs=1, total_epochs=3, seed=5,
                 mask_schedule=(0.5, 0.625),
                 dataset="other.bimd", dataset_size=16, num_classes=3,
                 dtype="f64")
    for cls, values in ((ModelSpec, model), (TrainConfig, train)):
        assert set(values) == {f.name for f in fields(cls)}, cls
        default = cls()
        assert all(getattr(default, k) != v for k, v in values.items()), cls
    cfg = parse_config("".join(f"{k} = {_config_value(v)}\n"
                               for k, v in {**model, **train}.items()))
    assert cfg.model == ModelSpec(**model)
    assert cfg.train == TrainConfig(**train)


def test_presets_parse():
    for name, text in PRESETS.items():
        cfg = parse_config(text)
        assert cfg.train.total_epochs > 0, name
        assert (cfg.train.num_blocks == cfg.plan.num_blocks
                == len(cfg.train.mask_schedule)), name
    assert parse_config(PRESETS["desk-mae"]).plan == BlockPlan(
        num_blocks=1, mask_schedule=(0.75,), mode="mae")


def test_config_views_the_benchmark_reads_agree_with_the_run(tmp_path):
    # The benchmark's workloads rebuild the plan from `cfg.train.num_blocks`,
    # `mask_schedule` and `mode`, and size the probe's checkpoint and prefix
    # by `cfg.train.num_blocks`; each must agree with `cfg.plan`.
    texts = dict(PRESETS, grow=PRESETS["desk-blockwise"]
                 + "mask_schedule = 0.5,0.625,0.75,0.875\n")
    for name, text in texts.items():
        cfg = parse_config(text)
        t = cfg.train
        assert BlockPlan(num_blocks=t.num_blocks, mask_schedule=t.mask_schedule,
                         mode=t.mode) == cfg.plan, name
    cfg = parse_config(TINY_ONE_BLOCK)
    t = cfg.train
    ckpt = str(tmp_path / "init.bimc")
    save_checkpoint(dict(build_model(cfg.model, t.num_blocks, t.seed,
                                     t.np_dtype).params), ckpt)
    _, res = run_probe(cfg, ckpt, t.num_blocks, str(tmp_path / "probe"))
    assert res.depth_index == 1


# ----- synthetic data and dataset files --------------------------------------------

def test_dataset_bitwise_reproducible():
    a = gen_synthetic_dataset(16, 8, seed=7)
    b = gen_synthetic_dataset(16, 8, seed=7)
    assert np.array_equal(a.pixels, b.pixels)
    assert np.array_equal(a.labels, b.labels)
    c = gen_synthetic_dataset(16, 8, seed=8)
    assert not np.array_equal(a.pixels, c.pixels)


def test_dataset_pixel_range():
    ds = gen_synthetic_dataset(16, 16, seed=9)
    imgs = ds.images(dtype=np.float64)
    assert imgs.min() >= 0.0 and imgs.max() <= 1.0


def test_raw_pixels_linearly_separable():
    ds = gen_synthetic_dataset(16, 256, seed=10, num_classes=4)
    x = ds.images(dtype=np.float64).reshape(256, -1)
    y = ds.labels.astype(np.int64)
    params = fit_linear_classifier(x, y, 4, ProbeConfig(epochs=60, seed=3))
    assert _accuracy(params, x, y) >= 0.95


def test_dataset_file_roundtrip(tmp_path):
    ds = gen_synthetic_dataset(16, 8, seed=11)
    path = tmp_path / "toy.bimd"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.pixels, ds.pixels)
    assert np.array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.images(dtype=np.float32),
                                  ds.images(dtype=np.float32))


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "bad.bimd"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        load_dataset(path)


def test_dataset_truncation_reports_offset(tmp_path):
    ds = gen_synthetic_dataset(16, 8, seed=12)
    path = tmp_path / "trunc.bimd"
    save_dataset(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(FormatError, match="byte"):
        load_dataset(path)


def test_dataset_count_mismatch(tmp_path):
    ds = gen_synthetic_dataset(16, 8, seed=13)
    path = tmp_path / "extra.bimd"
    save_dataset(ds, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_dataset(path)


# ----- checkpoints -------------------------------------------------------------------

def test_checkpoint_roundtrip_f32_v1_layout(tmp_path):
    tensors = {"a.w": np.arange(6, dtype=np.float32).reshape(2, 3),
               "b": np.array([1.5], dtype=np.float32)}
    path = tmp_path / "c.bimc"
    save_checkpoint(tensors, path)
    blob = path.read_bytes()
    assert blob[:4] == b"BIMC"
    assert int.from_bytes(blob[4:8], "little") == 1  # f32 files stay version 1
    back = load_checkpoint(path)
    assert set(back) == {"a.w", "b"}
    for k in tensors:
        assert back[k].dtype == np.float32
        np.testing.assert_array_equal(back[k], tensors[k])


def test_checkpoint_roundtrip_f64_bitwise(tmp_path):
    tensors = {"w": rng.normals(3, 7), "opt.m.w": rng.normals(4, 7)}
    path = tmp_path / "c64.bimc"
    save_checkpoint(tensors, path)
    back = load_checkpoint(path)
    for k in tensors:
        assert back[k].dtype == np.float64
        assert np.array_equal(back[k], tensors[k])


def test_checkpoint_corruption_names_tensor(tmp_path):
    tensors = {"fine": np.ones(4, dtype=np.float32),
               "broken": np.ones(100, dtype=np.float32)}
    path = tmp_path / "corrupt.bimc"
    save_checkpoint(tensors, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-40])
    with pytest.raises(FormatError, match="broken"):
        load_checkpoint(path)


def test_failed_checkpoint_save_keeps_previous_file(tmp_path):
    path = tmp_path / "c.bimc"
    good = {"w": rng.normals(9, 5)}
    save_checkpoint(good, path)
    before = path.read_bytes()
    with pytest.raises(FormatError, match="unsupported dtype"):
        save_checkpoint({"w": good["w"], "n": np.arange(3, dtype=np.int32)},
                        path)
    assert path.read_bytes() == before
    assert np.array_equal(load_checkpoint(path)["w"], good["w"])
    assert os.listdir(tmp_path) == ["c.bimc"]


def test_checkpoint_dims_past_int64_report_the_truncated_payload(tmp_path):
    # four dims of 65536 hold 2**64 items, which an int64 product wraps to 0
    path = tmp_path / "huge.bimc"
    path.write_bytes(b"BIMC" + struct.pack("<3I", 1, 1, 1) + b"w"
                     + struct.pack("<5I", 4, *(65536,) * 4))
    with pytest.raises(FormatError, match="truncated payload of tensor 'w' "
                       "at byte 37: need 73786976294838206464 more bytes"):
        load_checkpoint(path)


def test_checkpoint_refuses_a_repeated_tensor_name(tmp_path):
    # Two records named 'w': the second used to replace the first in
    # silence.
    def record(name, values):
        nb = name.encode()
        return (struct.pack("<I", len(nb)) + nb + struct.pack("<2I", 1,
                                                                len(values))
                + np.asarray(values, "<f4").tobytes())

    first = record("w", [1.0, 2.0])
    path = tmp_path / "twice.bimc"
    path.write_bytes(b"BIMC" + struct.pack("<2I", 1, 3) + first
                     + record("b", [0.5]) + record("w", [3.0, 4.0]))
    offset = 12 + len(first) + len(record("b", [0.5]))
    with pytest.raises(FormatError, match=rf"tensor 'w' at byte {offset} "
                                          r"repeats a name read before"):
        load_checkpoint(path)


def test_checkpoint_version_gate(tmp_path):
    path = tmp_path / "v9.bimc"
    path.write_bytes(b"BIMC" + (9).to_bytes(4, "little")
                     + (0).to_bytes(4, "little"))
    with pytest.raises(FormatError, match="version 9"):
        load_checkpoint(path)


# ----- pipelines -----------------------------------------------------------------------

def _write_cfg(tmp_path, text=TINY_CONFIG):
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    return str(p)


def test_pretrain_writes_metrics_and_checkpoints(tmp_path):
    cfg = parse_config(TINY_CONFIG)
    art = run_pretrain(cfg, str(tmp_path / "run"))
    lines = Path(art.metrics_path).read_text().splitlines()
    assert lines[0] == "step,epoch,block_id,loss,lr,live_bytes,peak_bytes"
    # 8 steps x (2 block rows + 1 aggregate)
    assert len(lines) == 1 + 8 * 3
    block_ids = {int(l.split(",")[2]) for l in lines[1:]}
    assert block_ids == {-1, 0, 1}
    assert len(art.checkpoint_paths) == 2
    # The reports are their own commands; a run writes its rows and
    # checkpoints only.
    assert sorted(os.listdir(tmp_path / "run")) == [
        "ckpt_epoch0.bimc", "ckpt_epoch1.bimc", "metrics.csv"]


def test_pretrain_runs_no_metered_report_step(tmp_path, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("run_pretrain called compare_peak")

    monkeypatch.setattr(runner, "compare_peak", refused)
    art = run_pretrain(parse_config(TINY_CONFIG), str(tmp_path / "run"))
    assert len(art.checkpoint_paths) == 2


def test_metrics_bytewise_deterministic(tmp_path):
    cfg = parse_config(TINY_CONFIG)
    a = run_pretrain(cfg, str(tmp_path / "a"))
    b = run_pretrain(cfg, str(tmp_path / "b"))
    assert Path(a.metrics_path).read_bytes() == Path(b.metrics_path).read_bytes()


def test_checkpoint_resume_replay_bitwise(tmp_path):
    cfg = parse_config(TINY_CONFIG)
    full = run_pretrain(cfg, str(tmp_path / "full"))
    half = run_pretrain(cfg, str(tmp_path / "half"), max_steps=4)
    assert len(half.checkpoint_paths) == 1
    resumed = run_pretrain(cfg, str(tmp_path / "resumed"),
                           resume_from=half.checkpoint_paths[0])
    t_full = load_checkpoint(full.checkpoint_paths[-1])
    t_res = load_checkpoint(resumed.checkpoint_paths[-1])
    assert set(t_full) == set(t_res)
    for k in t_full:
        assert np.array_equal(t_full[k], t_res[k]), k


def test_resume_reads_no_meta_epoch(tmp_path):
    # Checkpoints no longer record `meta.epoch`, which nothing read; a file
    # that still carries one loads and resumes bitwise as one without.
    cfg = parse_config(TINY_CONFIG)
    ckpt = run_pretrain(cfg, str(tmp_path / "half"),
                        max_steps=4).checkpoint_paths[0]
    tensors = load_checkpoint(ckpt)
    assert "meta.epoch" not in tensors
    old = str(tmp_path / "old.bimc")
    save_checkpoint({**tensors, "meta.epoch": np.array([1.0])}, old)
    runs = [run_pretrain(cfg, str(tmp_path / name), resume_from=path)
            for name, path in (("new", ckpt), ("old", old))]
    assert (Path(runs[0].metrics_path).read_bytes()
            == Path(runs[1].metrics_path).read_bytes())
    assert [Path(p).read_bytes() for p in runs[0].checkpoint_paths] == \
        [Path(p).read_bytes() for p in runs[1].checkpoint_paths]


def test_resume_in_place_metrics_match_uninterrupted(tmp_path):
    cfg = parse_config(TINY_CONFIG + "dataset_size = 16\nbatch_size = 8\n"
                       "total_epochs = 4\n")
    full = run_pretrain(cfg, str(tmp_path / "full"))
    out = str(tmp_path / "inplace")
    run_pretrain(cfg, out, max_steps=5)
    resumed = run_pretrain(cfg, out, resume_from=os.path.join(
        out, "ckpt_epoch1.bimc"))
    want = Path(full.metrics_path).read_bytes()
    assert Path(resumed.metrics_path).read_bytes() == want


def test_resume_killed_in_its_first_step_resumes_again(tmp_path):
    # A resumed run SIGKILLed in its first step, before any of its own
    # rows could reach the disk, still leaves the rows before its
    # checkpoint there: resuming again replays the uninterrupted run.
    text = TINY_CONFIG + "dataset_size = 16\nbatch_size = 8\ntotal_epochs = 4\n"
    cfg = parse_config(text)
    full = run_pretrain(cfg, str(tmp_path / "full"))
    out = str(tmp_path / "inplace")
    run_pretrain(cfg, out, max_steps=5)
    ckpt = os.path.join(out, "ckpt_epoch1.bimc")
    child = (
        "import os, signal\n"
        "from blockmae import config, runner\n"
        "def killed(*args, **kwargs):\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "runner.blockwise_train_step = runner.mae_train_step = killed\n"
        f"runner.run_pretrain(config.parse_config({text!r}), {out!r}, "
        f"resume_from={ckpt!r})\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", child], timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == -signal.SIGKILL
    resumed = run_pretrain(cfg, out, resume_from=ckpt)
    want = Path(full.metrics_path).read_bytes()
    assert Path(resumed.metrics_path).read_bytes() == want


def test_metrics_rows_on_disk_before_each_checkpoint(tmp_path, monkeypatch):
    cfg = parse_config(TINY_CONFIG)
    out = str(tmp_path / "run")
    on_disk = []

    def save_after_reading_metrics(tensors, path):
        with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as fh:
            last = fh.read().splitlines()[-1]
        on_disk.append((int(tensors["meta.step"][0]), last))
        save_checkpoint(tensors, path)

    monkeypatch.setattr(runner, "save_checkpoint", save_after_reading_metrics)
    run_pretrain(cfg, out)
    assert [step for step, _ in on_disk] == [4, 8]
    for step, last in on_disk:
        assert last.startswith(f"{step - 1},{step // 4 - 1},-1,"), last


def _torn_metrics_run(tmp_path, cut_row, cut_at):
    """A 12-step run stopped after 11 steps whose metrics file is then cut
    `cut_at` characters into line `cut_row` (the header is line 0); returns
    (config, output directory, the uninterrupted run's metrics bytes)."""
    cfg = parse_config(TINY_CONFIG + "dataset_size = 16\nbatch_size = 8\n"
                       "total_epochs = 6\n")
    full = run_pretrain(cfg, str(tmp_path / "full"))
    out = str(tmp_path / "torn")
    path = run_pretrain(cfg, out, max_steps=11).metrics_path
    lines = Path(path).read_bytes().splitlines(keepends=True)
    Path(path).write_bytes(b"".join(lines[:cut_row]) + lines[cut_row][:cut_at])
    return cfg, out, Path(full.metrics_path).read_bytes()


@pytest.mark.parametrize("cut_at", [1, 9])
def test_resume_drops_torn_metrics_row(tmp_path, cut_at):
    # 3 rows per step: line 31 is the first row of step 10, after the
    # checkpoint at step 10.  Cut after one character it reads "1", which
    # must not survive to be glued to the next row.
    cfg, out, want = _torn_metrics_run(tmp_path, 31, cut_at)
    resumed = run_pretrain(cfg, out, resume_from=os.path.join(
        out, "ckpt_epoch4.bimc"))
    assert Path(resumed.metrics_path).read_bytes() == want


def test_resume_refuses_metrics_torn_before_checkpoint(tmp_path):
    # line 30 is step 9's aggregate row, before the checkpoint
    cfg, out, _ = _torn_metrics_run(tmp_path, 30, 9)
    with pytest.raises(ConfigError, match="lacks complete rows for step 9"):
        run_pretrain(cfg, out,
                     resume_from=os.path.join(out, "ckpt_epoch4.bimc"))


def _resave_split_layout(src, dst, cfg):
    """Re-save a checkpoint as the split attention layout wrote it: every
    `attn.qkv` tensor, moment and step count cut into one tensor per
    projection and head, columns (q|k|v, head, dh)."""
    out = {}
    for name, arr in load_checkpoint(src).items():
        layer, fused, leaf = name.rpartition(".attn.qkv.")
        if not fused:
            out[name] = arr
            continue
        heads = cfg.model.decoder_heads if ".dec." in layer else cfg.model.heads
        parts = ([arr] * (3 * heads) if layer.startswith("opt.t.")
                 else np.split(arr, 3 * heads, axis=-1))
        names = [f"{layer}.attn.{p}{h}.{leaf}" for p in "qkv" for h in range(heads)]
        out.update(zip(names, parts))
    save_checkpoint(out, dst)


def test_split_layout_checkpoint_is_refused(tmp_path):
    cfg = parse_config(TINY_CONFIG)
    fused = run_pretrain(cfg, str(tmp_path / "run"), max_steps=4).checkpoint_paths[0]
    split = str(tmp_path / "split.bimc")
    _resave_split_layout(fused, split, cfg)
    unknown = (r"checkpoint tensor '[\w.]*\.attn\.q0\.[wb]' is not a "
               r"parameter of the config's model")
    with pytest.raises(ConfigError, match=unknown):
        run_pretrain(cfg, str(tmp_path / "resumed"), resume_from=split)
    with pytest.raises(ConfigError, match=unknown):
        run_probe(cfg, split, 2, str(tmp_path / "probe"))


def _cli_resume(tmp_path, tensors):
    """Exit code of `pretrain --resume` from a file of `tensors`, and
    whether the run wrote a metrics file."""
    ckpt = str(tmp_path / "resume.bimc")
    save_checkpoint(tensors, ckpt)
    out = str(tmp_path / "resumed")
    code = cli_main(["pretrain", "--config", _write_cfg(tmp_path),
                     "--out", out, "--resume", ckpt])
    return code, os.path.exists(os.path.join(out, "metrics.csv"))


@pytest.mark.parametrize("with_step", [False, True])
def test_cli_resume_from_weights_only_exits_nonzero(tmp_path, capsys,
                                                    with_step):
    cfg = parse_config(TINY_CONFIG)
    model = build_model(cfg.model, cfg.train.num_blocks, cfg.train.seed,
                        cfg.train.np_dtype)
    tensors = dict(model.params)
    if with_step:
        tensors["meta.step"] = np.array([4.0])
    missing = f"opt.m.{next(iter(model.params))}" if with_step else "meta.step"
    assert _cli_resume(tmp_path, tensors) == (1, False)
    assert capsys.readouterr().err.startswith(
        f"error: checkpoint lacks {missing!r}, which a resume needs")


def test_cli_resume_past_the_schedule_end_exits_nonzero(tmp_path, capsys):
    # It used to exit 0, train nothing and cut metrics.csv to its header.
    out = str(tmp_path / "run")
    ckpt = run_pretrain(parse_config(TINY_CONFIG), out).checkpoint_paths[1]
    metrics = Path(out, "metrics.csv").read_bytes()
    shorter = _write_cfg(tmp_path, TINY_CONFIG + "total_epochs = 1\n")
    assert cli_main(["pretrain", "--config", shorter, "--out", out,
                     "--resume", ckpt]) == 1
    assert capsys.readouterr().err.startswith(
        "error: checkpoint is at step 8, past the schedule's end at step 4")
    assert Path(out, "metrics.csv").read_bytes() == metrics
    # A checkpoint at the schedule's end resumes to a run that trains
    # nothing more.
    assert cli_main(["pretrain", "--config", _write_cfg(tmp_path), "--out",
                     out, "--resume", ckpt]) == 0
    assert Path(out, "metrics.csv").read_bytes() == metrics


@pytest.mark.parametrize("missing", ["opt.t.embed.w", "opt.v.embed.w",
                                     "opt.m.embed.w"])
def test_cli_resume_with_partial_optimizer_state_exits_nonzero(
        tmp_path, capsys, missing):
    # Without opt.m. the other two entries used to be dropped in silence;
    # without opt.t. or opt.v. the resume died with a KeyError.
    ckpt = run_pretrain(parse_config(TINY_CONFIG), str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    tensors = load_checkpoint(ckpt)
    del tensors[missing]
    assert _cli_resume(tmp_path, tensors) == (1, False)
    assert capsys.readouterr().err.startswith(
        f"error: checkpoint lacks {missing!r}, which a resume needs")


@pytest.mark.parametrize("value", [[np.nan], [-4.0], [2.5], []],
                         ids=["nan", "negative", "fractional", "empty"])
@pytest.mark.parametrize("key", ["meta.step", "meta.num_blocks",
                                 "opt.t.embed.w"])
def test_cli_resume_refuses_a_counter_that_is_not_a_whole_number(
        tmp_path, capsys, key, value):
    # Resumed in place.  A NaN step used to die converting it to an int,
    # an empty one in an IndexError, and a negative step first cut
    # metrics.csv to its header and then died in lr_at_step; a fractional
    # count was floored in silence.
    out = str(tmp_path / "run")
    ckpt = run_pretrain(parse_config(TINY_CONFIG), out,
                        max_steps=5).checkpoint_paths[0]
    tensors = load_checkpoint(ckpt)
    tensors[key] = np.array(value, dtype=np.float64)
    save_checkpoint(tensors, ckpt)
    metrics = Path(out, "metrics.csv").read_bytes()
    assert cli_main(["pretrain", "--config", _write_cfg(tmp_path), "--out",
                     out, "--resume", ckpt]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: checkpoint counter {key!r} must be one finite, "
        f"non-negative whole number")
    assert Path(out, "metrics.csv").read_bytes() == metrics


def test_run_without_mallopt_writes_the_same_metrics(tmp_path, monkeypatch):
    cfg = parse_config(TINY_CONFIG)
    want = Path(run_pretrain(cfg, str(tmp_path / "a"),
                             max_steps=4).metrics_path).read_bytes()
    monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: object())
    assert runner._keep_freed_heap() is False
    got = run_pretrain(cfg, str(tmp_path / "b"), max_steps=4).metrics_path
    assert Path(got).read_bytes() == want


def _checkpoint_and_wider_config(tmp_path, key, value):
    """A 4-step checkpoint of TINY_CONFIG and the path of a config that
    differs from it in `key` only."""
    cfg = parse_config(TINY_CONFIG)
    ckpt = run_pretrain(cfg, str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    return ckpt, _write_cfg(tmp_path, TINY_CONFIG + f"{key} = {value}\n")


def test_resume_refuses_checkpoint_of_another_shape(tmp_path):
    ckpt, cfg_path = _checkpoint_and_wider_config(tmp_path, "mlp_ratio", 4)
    with pytest.raises(ConfigError, match=re.escape(
            "'enc.layer0.mlp.fc1.w' has shape (16, 32), the config gives "
            "(16, 64)")):
        run_pretrain(load_config(cfg_path), str(tmp_path / "resumed"),
                     resume_from=ckpt)


def test_resume_refuses_moment_of_another_shape(tmp_path):
    cfg = parse_config(TINY_CONFIG)
    ckpt = run_pretrain(cfg, str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    tensors = load_checkpoint(ckpt)
    tensors["opt.v.embed.b"] = tensors["opt.v.embed.b"][:-1]
    save_checkpoint(tensors, ckpt)
    with pytest.raises(ConfigError, match=re.escape(
            "'opt.v.embed.b' has shape (15,), the config gives (16,)")):
        run_pretrain(cfg, str(tmp_path / "resumed"), resume_from=ckpt)


@pytest.mark.parametrize("command", ["export-backbone", "probe"])
def test_cli_checkpoint_of_another_width_exits_nonzero(tmp_path, capsys,
                                                       command):
    ckpt, cfg_path = _checkpoint_and_wider_config(tmp_path, "embed_dim", 32)
    out = str(tmp_path / "out")
    assert cli_main([command, "--config", cfg_path, "--checkpoint", ckpt,
                     "--k", "2", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint tensor 'embed.w' has shape "
                          "(16, 16), the config gives (16, 32)")
    assert not os.path.exists(os.path.join(out, "backbone_k2.bimc"))


def test_cli_export_refuses_checkpoint_that_lacks_a_backbone_tensor(
        tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    ckpt = run_pretrain(load_config(cfg_path), str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    tensors = load_checkpoint(ckpt)
    del tensors["enc.layer1.mlp.fc2.w"]
    save_checkpoint(tensors, ckpt)
    out = str(tmp_path / "out")
    assert cli_main(["export-backbone", "--config", cfg_path, "--checkpoint",
                     ckpt, "--k", "2", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint lacks backbone tensors: "
                          "['enc.layer1.mlp.fc2.w']")
    assert not os.path.exists(os.path.join(out, "backbone_k2.bimc"))


@pytest.mark.parametrize("command", ["probe", "export-backbone", "pretrain"])
def test_cli_refuses_checkpoint_with_more_blocks_than_the_config(
        tmp_path, capsys, command):
    # A 4-block run loaded under a 2-block config of the same depth: its
    # block1 bridge norm was trained after layer 1, not layer 3, and its
    # block2 and block3 tensors have no place in the config's model.  The
    # block count is named before any such tensor.
    deep = TINY_CONFIG + "depth = 4\n"
    ckpt = run_pretrain(
        parse_config(deep + "mask_schedule = 0.5,0.5,0.5,0.5\n"),
        str(tmp_path / "run"), max_steps=4).checkpoint_paths[0]
    cfg_path = _write_cfg(tmp_path, deep)
    out = str(tmp_path / "out")
    args = (["--resume", ckpt] if command == "pretrain"
            else ["--checkpoint", ckpt, "--k", "2"])
    assert cli_main([command, "--config", cfg_path, "--out", out] + args) == 1
    assert capsys.readouterr().err.startswith(
        "error: checkpoint was trained with 4 blocks, the config gives 2")
    assert not os.path.exists(out) or os.listdir(out) == []


def test_cli_one_block_pretrain_refuses_a_two_block_checkpoint_by_block_count(
        tmp_path, capsys):
    # The MAE baseline's resume used to name the first tensor the
    # one-block model lacks, 'block1.bridge.ln.g', not the block counts.
    ckpt = run_pretrain(parse_config(TINY_CONFIG), str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    out = str(tmp_path / "mae")
    assert cli_main(["pretrain", "--config",
                     _write_cfg(tmp_path, TINY_ONE_BLOCK), "--out", out,
                     "--resume", ckpt]) == 1
    assert capsys.readouterr().err.startswith(
        "error: checkpoint was trained with 2 blocks, the config gives 1")
    assert not os.path.exists(out) or os.listdir(out) == []


def _two_block_deep_run(tmp_path):
    """A 4-step checkpoint of a 2-block, depth-4 run, and the path of the
    4-block config of the same depth."""
    deep = TINY_CONFIG + "depth = 4\n"
    ckpt = run_pretrain(parse_config(deep), str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    return ckpt, _write_cfg(tmp_path, deep + "mask_schedule = 0.5,0.5,0.5,0.5\n")


@pytest.mark.parametrize("command", ["probe", "export-backbone"])
def test_cli_refuses_checkpoint_with_fewer_blocks_than_the_config(
        tmp_path, capsys, command):
    # Every tensor of the 2-block run is a parameter of the 4-block model,
    # but its block1 bridge norm was trained after layer 3, and under the
    # 4-block config prefix 2 reads it after layer 1.
    ckpt, cfg_path = _two_block_deep_run(tmp_path)
    out = str(tmp_path / "out")
    assert cli_main([command, "--config", cfg_path, "--checkpoint", ckpt,
                     "--k", "2", "--out", out]) == 1
    assert capsys.readouterr().err.startswith(
        "error: checkpoint was trained with 2 blocks, the config gives 4")
    assert not os.path.exists(out) or os.listdir(out) == []
    assert load_checkpoint(ckpt)["meta.num_blocks"].tolist() == [2.0]


def test_checkpoint_without_block_record_must_hold_every_parameter(
        tmp_path):
    ckpt, cfg_path = _two_block_deep_run(tmp_path)
    tensors = load_checkpoint(ckpt)
    del tensors["meta.num_blocks"]
    save_checkpoint(tensors, ckpt)
    with pytest.raises(ConfigError, match=re.escape(
            "checkpoint records no meta.num_blocks and lacks parameter "
            "'block2.bridge.ln.g'")):
        run_probe(load_config(cfg_path), ckpt, 2, str(tmp_path / "probe"))
    # Every parameter and no record, as a file of initial weights has.
    cfg = load_config(cfg_path)
    model = build_model(cfg.model, cfg.train.num_blocks, cfg.train.seed,
                        cfg.train.np_dtype)
    save_checkpoint(dict(model.params), ckpt)
    _, res = run_probe(cfg, ckpt, 2, str(tmp_path / "probe"))
    assert res.depth_index == 2


def test_exported_backbone_records_the_block_count(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    cfg = load_config(cfg_path)
    ckpt = run_pretrain(cfg, str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    out = str(tmp_path / "out")
    assert cli_main(["export-backbone", "--config", cfg_path, "--checkpoint",
                     ckpt, "--k", "1", "--out", out]) == 0
    backbone = load_checkpoint(os.path.join(out, "backbone_k1.bimc"))
    assert backbone["meta.num_blocks"].tolist() == [2.0]
    assert backbone["meta.k"].tolist() == [1.0]


@pytest.mark.parametrize("command", ["probe", "pretrain",
                                     "export-then-probe"])
def test_cli_refuses_checkpoint_of_another_head_count(tmp_path, capsys,
                                                      command):
    # The head count changes no tensor's name or shape, so a checkpoint
    # trained with 2 heads used to probe, resume and export under a
    # 4-head config and exit 0, computing another function.  A run's
    # checkpoints and the export record the count.
    ckpt, cfg_path = _checkpoint_and_wider_config(tmp_path, "heads", 4)
    if command == "export-then-probe":
        ckpt = runner.run_export_backbone(
            parse_config(TINY_CONFIG), ckpt, 2,
            str(tmp_path / "export")).backbone_path
        command = "probe"
    out = str(tmp_path / "out")
    args = (["--resume", ckpt] if command == "pretrain"
            else ["--checkpoint", ckpt, "--k", "2"])
    assert cli_main([command, "--config", cfg_path, "--out", out] + args) == 1
    assert capsys.readouterr().err.startswith(
        "error: checkpoint was trained with 2 heads, the config gives 4")
    assert not os.path.exists(out) or os.listdir(out) == []
    assert load_checkpoint(ckpt)["meta.heads"].tolist() == [2.0]


@pytest.mark.parametrize("command", ["probe", "export-backbone", "pretrain"])
def test_cli_refuses_checkpoint_of_another_depth(tmp_path, capsys, command):
    # At twice the depth and the same block count, prefix 1 is layers 0-1,
    # which a depth-2 checkpoint holds: probe and export used to read them
    # through block 0's bridge norm, trained after layer 0, and exit 0.  A
    # resume named a missing layer, not the depths.
    ckpt, cfg_path = _checkpoint_and_wider_config(tmp_path, "depth", 4)
    out = str(tmp_path / "out")
    args = (["--resume", ckpt] if command == "pretrain"
            else ["--checkpoint", ckpt, "--k", "1"])
    assert cli_main([command, "--config", cfg_path, "--out", out] + args) == 1
    assert capsys.readouterr().err.startswith(
        "error: checkpoint was trained at depth 2, the config gives depth 4")
    assert not os.path.exists(out) or os.listdir(out) == []
    assert load_checkpoint(ckpt)["meta.depth"].tolist() == [2.0]


def test_resume_refuses_checkpoint_of_another_batch_size(tmp_path):
    # meta.step counts steps of the checkpoint's batch size.  At batch 8 a
    # batch-16 run's epoch-0 checkpoint used to resume as step 4 of an
    # 8-step epoch, replay the rest of epoch 0 at another batch and lr
    # schedule, and append rows the uninterrupted run never wrote.
    ckpt, cfg_path = _checkpoint_and_wider_config(tmp_path, "batch_size", 8)
    metrics = tmp_path / "run" / "metrics.csv"
    rows = metrics.read_bytes()
    with pytest.raises(ConfigError, match=re.escape(
            "checkpoint was trained at batch size 16, the config gives 8")):
        run_pretrain(load_config(cfg_path), str(tmp_path / "run"),
                     resume_from=ckpt)
    assert metrics.read_bytes() == rows
    assert load_checkpoint(ckpt)["meta.batch_size"].tolist() == [16.0]


def test_cli_resume_refuses_checkpoint_of_another_norm_pix(tmp_path, capsys):
    # norm_pix changes the loss targets alone, no tensor's name or shape: a
    # resume that flipped it used to exit 0 and write other rows than the
    # uninterrupted run from the first resumed step on.
    ckpt, cfg_path = _checkpoint_and_wider_config(tmp_path, "norm_pix",
                                                  "true")
    metrics = tmp_path / "run" / "metrics.csv"
    rows = metrics.read_bytes()
    assert cli_main(["pretrain", "--config", cfg_path, "--out",
                     str(tmp_path / "run"), "--resume", ckpt]) == 1
    assert capsys.readouterr().err.startswith(
        "error: checkpoint was trained with norm_pix 0, the config gives 1")
    assert metrics.read_bytes() == rows
    assert load_checkpoint(ckpt)["meta.norm_pix"].tolist() == [0.0]


@pytest.mark.parametrize("seed", [6, 5 + 2**32, 5 - 2**64])
def test_resume_refuses_checkpoint_of_another_seed(tmp_path, capsys, seed):
    # Another seed draws other batch orders and masks: a resume under
    # --seed 6 used to exit 0 and write other rows than the uninterrupted
    # run from the first resumed step on.  `rng.split` reads the seed mod
    # 2**64, so 5 - 2**64 is the run's own seed, and 5 + 2**32 differs in
    # the high record alone.
    cfg_path = _write_cfg(tmp_path)
    ckpt = run_pretrain(load_config(cfg_path), str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    metrics = tmp_path / "run" / "metrics.csv"
    rows = metrics.read_bytes()
    args = ["pretrain", "--config", cfg_path, "--seed", str(seed), "--out",
            str(tmp_path / "run"), "--resume", ckpt]
    if seed % 2**64 == 5:
        assert cli_main(args) == 0
        return
    assert cli_main(args) == 1
    assert capsys.readouterr().err.startswith(
        f"error: checkpoint was trained with seed 5, the config gives seed "
        f"{seed}")
    assert metrics.read_bytes() == rows
    tensors = load_checkpoint(ckpt)
    assert [tensors[f"meta.seed_{half}"].tolist() for half in ("hi", "lo")] \
        == [[0.0], [5.0]]
    # A file without the records passes; one with half of them does not.
    del tensors["meta.seed_hi"]
    save_checkpoint(tensors, ckpt)
    with pytest.raises(ConfigError, match=re.escape(
            "checkpoint counter 'meta.seed_hi' must be one finite")):
        run_pretrain(load_config(cfg_path), str(tmp_path / "run"),
                     resume_from=ckpt)
    del tensors["meta.seed_lo"]
    save_checkpoint(tensors, ckpt)
    assert cli_main(args) == 0


@pytest.mark.parametrize("command", ["probe", "export-backbone", "pretrain"])
def test_cli_refuses_checkpoint_with_a_key_bias(tmp_path, capsys, command):
    # Checkpoints written before the attention bias became [q | v] hold a
    # q|k|v bias, 3 * d wide, under `attn.qkv.b`: every command refuses
    # them and names the tensor.
    cfg_path = _write_cfg(tmp_path)
    ckpt = run_pretrain(load_config(cfg_path), str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    tensors = load_checkpoint(ckpt)
    for key in [k for k in tensors if k.endswith(".attn.qv.b")]:
        a = tensors.pop(key)
        if a.size > 1:   # the bias and its moments, not its step count
            q, v = np.split(a, 2)
            a = np.concatenate((q, np.zeros_like(q), v))
        tensors[key.replace(".qv.", ".qkv.")] = a
    save_checkpoint(tensors, ckpt)
    out = str(tmp_path / "out")
    args = (["--resume", ckpt] if command == "pretrain"
            else ["--checkpoint", ckpt, "--k", "1"])
    assert cli_main([command, "--config", cfg_path, "--out", out] + args) == 1
    assert capsys.readouterr().err.startswith(
        "error: checkpoint tensor 'enc.layer0.attn.qkv.b' is not a parameter "
        "of the config's model")
    assert not os.path.exists(out) or os.listdir(out) == []


def test_cli_probe_refuses_an_export_at_another_k(tmp_path, capsys):
    # An export at k = 2 holds block 1's bridge norm, not block 0's.  A
    # probe at k = 1 used to name the tensors it lacked, not the depths.
    cfg_path = _write_cfg(tmp_path)
    ckpt = run_pretrain(load_config(cfg_path), str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    export = str(tmp_path / "export")
    assert cli_main(["export-backbone", "--config", cfg_path, "--checkpoint",
                     ckpt, "--k", "2", "--out", export]) == 0
    out = str(tmp_path / "out")
    assert cli_main(["probe", "--config", cfg_path, "--checkpoint",
                     os.path.join(export, "backbone_k2.bimc"), "--k", "1",
                     "--out", out]) == 1
    assert capsys.readouterr().err.startswith(
        "error: checkpoint is the backbone exported at k = 2, not k = 1")
    assert not os.path.exists(out) or os.listdir(out) == []


def _four_block_run(tmp_path):
    """The config of a 4-block, depth-4 tiny run and its 4-step checkpoint."""
    cfg = parse_config(TINY_CONFIG + "depth = 4\n"
                       "mask_schedule = 0.5,0.5,0.5,0.5\n")
    return cfg, run_pretrain(cfg, str(tmp_path / "run"),
                             max_steps=4).checkpoint_paths[0]


def _prefix_names(names, k):
    """The names among `names` of prefix k of a depth-4, 4-block model, in
    the export's order: the embedding's and layers 0..k-1's, sorted, then
    block k-1's bridge norm."""
    starts = ("embed.",) + tuple(f"enc.layer{j}." for j in range(k))
    return (sorted(n for n in names if n.startswith(starts))
            + [f"block{k - 1}.bridge.ln.g", f"block{k - 1}.bridge.ln.b"])


def test_model_from_checkpoint_keeps_only_the_prefix(tmp_path):
    # The probe and the export read the prefix alone; the decoders, the
    # bridge projections and the other depths' bridge norms are dropped.
    cfg, ckpt = _four_block_run(tmp_path)
    tensors = load_checkpoint(ckpt)
    for k in (1, 2, 3, 4):
        params = runner._model_from_checkpoint(cfg, ckpt, k).model.params
        assert sorted(params) == sorted(_prefix_names(tensors, k)), k
        for name, arr in params.items():
            assert arr.dtype == np.float64
            assert np.array_equal(arr, tensors[name]), name


def test_exported_backbone_holds_the_checkpoint_tensors_bytewise(tmp_path):
    # The file is the one the prefix's checkpoint tensors, as f64, and the
    # four records make; exporting that file again writes the same bytes.
    cfg, ckpt = _four_block_run(tmp_path)
    tensors = load_checkpoint(ckpt)
    for k in (1, 4):
        want = {n: tensors[n].astype(np.float64)
                for n in _prefix_names(tensors, k)}
        want["meta.k"] = np.array([k], dtype=np.float64)
        want["meta.num_blocks"] = np.array([4.0])
        want["meta.heads"] = np.array([2.0])
        want["meta.depth"] = np.array([4.0])
        ref = tmp_path / f"want_k{k}.bimc"
        save_checkpoint(want, str(ref))
        path = runner.run_export_backbone(
            cfg, ckpt, k, str(tmp_path / "out")).backbone_path
        assert Path(path).read_bytes() == ref.read_bytes(), k
        again = runner.run_export_backbone(
            cfg, path, k, str(tmp_path / "again")).backbone_path
        assert Path(again).read_bytes() == ref.read_bytes(), k


def _out_of_memory(*args, **kwargs):
    # Stands in for an allocation too large to make; a real one might
    # succeed on an overcommitting system and start filling pages.
    raise MemoryError()


def test_cli_mem_report_out_of_memory_gives_the_analytic_estimate(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(memory, "gen_synthetic_dataset", _out_of_memory)
    out = str(tmp_path / "report")
    assert cli_main(["mem-report", "--config", _write_cfg(tmp_path),
                     "--out", out, "--batch", "100000000"]) == 1
    assert re.match(r"error: step at batch 100000000 exceeded memory; "
                    r"analytic estimate \d+ bytes\n$",
                    capsys.readouterr().err)
    assert not os.path.exists(os.path.join(out, "mem_report.csv"))


def test_cli_pretrain_out_of_memory_exits_nonzero(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(runner, "gen_synthetic_dataset", _out_of_memory)
    assert cli_main(["pretrain", "--config", _write_cfg(tmp_path),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


@pytest.mark.parametrize("batch", ["0", "-1"])
def test_cli_mem_report_refuses_batch_below_one(tmp_path, capsys, batch):
    out = str(tmp_path / "report")
    assert cli_main(["mem-report", "--config", _write_cfg(tmp_path),
                     "--out", out, "--batch", batch]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: mem-report batch must be >= 1, got {batch}")
    assert not os.path.exists(os.path.join(out, "mem_report.csv"))


def test_cli_mem_report_prices_the_training_batch_by_default(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    for name, batch in (("default", []), ("given", ["--batch", "16"])):
        assert cli_main(["mem-report", "--config", cfg_path, "--out",
                         str(tmp_path / name)] + batch) == 0
    assert (tmp_path / "default" / "mem_report.csv").read_bytes() == \
        (tmp_path / "given" / "mem_report.csv").read_bytes()


def test_cli_probe_refuses_labels_beyond_num_classes(tmp_path, capsys):
    ds = gen_synthetic_dataset(16, 64, seed=14, num_classes=4)
    assert ds.labels.max() == 3
    data = str(tmp_path / "four.bimd")
    save_dataset(ds, data)
    ckpt = run_pretrain(parse_config(TINY_CONFIG), str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    out = str(tmp_path / "out")

    def probe(num_classes):
        cfg_path = _write_cfg(tmp_path, TINY_CONFIG + f"dataset = {data}\n"
                              f"num_classes = {num_classes}\n")
        return cli_main(["probe", "--config", cfg_path, "--checkpoint", ckpt,
                         "--k", "2", "--out", out])

    assert probe(2) == 1
    assert capsys.readouterr().err.startswith(
        "error: dataset label 3 needs num_classes > 3, the config gives "
        "num_classes = 2")
    assert not os.path.exists(os.path.join(out, "probe_results.csv"))
    # more classes than labels is a valid probe
    assert probe(6) == 0
    assert os.path.exists(os.path.join(out, "probe_results.csv"))


def test_cli_probe_refuses_a_dataset_too_small_to_split(tmp_path, capsys):
    ckpt = run_pretrain(parse_config(TINY_CONFIG), str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    cfg_path = _write_cfg(tmp_path, TINY_CONFIG + "dataset_size = 1\n")
    out = str(tmp_path / "out")
    assert cli_main(["probe", "--config", cfg_path, "--checkpoint", ckpt,
                     "--k", "2", "--out", out]) == 1
    assert capsys.readouterr().err.startswith(
        "error: linear probing needs at least 2 images to split into train "
        "and validation, got 1")
    assert not os.path.exists(os.path.join(out, "probe_results.csv"))


def test_cli_probe_refuses_an_empty_dataset(tmp_path, capsys):
    # A BIMD file may hold no image; the label check must not reduce an
    # empty array before the size check refuses it.
    data = str(tmp_path / "empty.bimd")
    save_dataset(Dataset(np.zeros((0, 16, 16, 1), np.uint8),
                         np.zeros(0, np.uint32)), data)
    assert len(load_dataset(data)) == 0
    ckpt = run_pretrain(parse_config(TINY_CONFIG), str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    cfg_path = _write_cfg(tmp_path, TINY_CONFIG + f"dataset = {data}\n")
    out = str(tmp_path / "out")
    assert cli_main(["probe", "--config", cfg_path, "--checkpoint", ckpt,
                     "--k", "2", "--out", out]) == 1
    assert capsys.readouterr().err.startswith(
        "error: linear probing needs at least 2 images to split into train "
        "and validation, got 0")
    assert not os.path.exists(os.path.join(out, "probe_results.csv"))


@pytest.mark.parametrize("earlier", [
    b"",                                                  # a kill left it empty
    (runner.PROBE_HEADER + "\n1,0.5,0.25,200,0123456789abcdef\n2,0.7").encode(),
], ids=["empty", "torn"])
def test_probe_results_keep_their_header_and_drop_a_torn_row(tmp_path,
                                                             earlier):
    cfg = parse_config(TINY_CONFIG)
    ckpt = run_pretrain(cfg, str(tmp_path / "run"),
                        max_steps=4).checkpoint_paths[0]
    fresh = Path(run_probe(cfg, ckpt, 2, str(tmp_path / "fresh"))[0]
                 .probe_results_path).read_bytes()
    out = tmp_path / "out"
    out.mkdir()
    (out / "probe_results.csv").write_bytes(earlier)
    run_probe(cfg, ckpt, 2, str(out))
    header, row = fresh.splitlines(keepends=True)
    whole = earlier[:earlier.rfind(b"\n") + 1]
    assert (out / "probe_results.csv").read_bytes() == (whole or header) + row


def test_cli_dataset_of_another_image_shape_keeps_earlier_metrics(
        tmp_path, capsys):
    data = str(tmp_path / "wide.bimd")
    save_dataset(gen_synthetic_dataset(32, 64, seed=3), data)
    cfg_path = _write_cfg(tmp_path, TINY_CONFIG + f"dataset = {data}\n")
    out = tmp_path / "run"
    out.mkdir()
    earlier = b"step,epoch,block_id,loss,lr,live_bytes,peak_bytes\n0,0,-1\n"
    (out / "metrics.csv").write_bytes(earlier)
    assert cli_main(["pretrain", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: dataset {data} holds images of (H, W, C) = (32, 32, 1), "
        f"the config gives (16, 16, 1)")
    assert (out / "metrics.csv").read_bytes() == earlier


def test_cli_flop_report_refuses_decoder_width_of_its_heads(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "decoder_dim = 100\n")
    out = str(tmp_path / "report")
    assert cli_main(["flop-report", "--config", cfg_path, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: decoder_dim 100 ")
    assert not os.path.exists(os.path.join(out, "flop_report.csv"))


def test_cli_end_to_end_pipeline(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    out = str(tmp_path / "run")
    assert cli_main(["pretrain", "--config", cfg_path, "--out", out]) == 0
    ckpt = os.path.join(out, "ckpt_epoch1.bimc")
    assert cli_main(["export-backbone", "--config", cfg_path,
                     "--checkpoint", ckpt, "--k", "2", "--out", out]) == 0
    backbone = os.path.join(out, "backbone_k2.bimc")
    assert os.path.exists(backbone)
    assert cli_main(["probe", "--config", cfg_path, "--checkpoint", backbone,
                     "--k", "2", "--out", out]) == 0
    probe_csv = Path(out, "probe_results.csv").read_text().splitlines()
    assert probe_csv[0] == "depth_k,train_accuracy,val_accuracy,epochs,config_hash"
    assert probe_csv[1].startswith("2,")
    assert cli_main(["mem-report", "--config", cfg_path, "--out", out]) == 0
    mem = Path(out, "mem_report.csv").read_text().splitlines()
    assert float(mem[2].rsplit(",", 1)[1]) < 1.0  # blockwise ratio row
    assert cli_main(["flop-report", "--config", cfg_path, "--out", out]) == 0


def test_cli_bad_config_nonzero_exit(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("definitely_not_a_key = 1\n")
    assert cli_main(["pretrain", "--config", str(p)]) == 1
    assert "valid keys" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["batch_size = abc", "norm_pix = maybe"])
def test_cli_bad_config_value_names_line_and_key(tmp_path, capsys, line):
    p = tmp_path / "bad.txt"
    p.write_text(f"# bad value\n{line}\n")
    assert cli_main(["pretrain", "--config", str(p)]) == 1
    key = line.split(" ")[0]
    assert f"line 2: key {key!r}" in capsys.readouterr().err


def test_cli_out_of_range_config_value_exits_nonzero(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("dataset_size = 0\n")
    assert cli_main(["pretrain", "--config", str(p),
                     "--out", str(tmp_path / "run")]) == 1
    assert "error: dataset_size must be >= 1" in capsys.readouterr().err


def test_cli_mask_ratio_without_visible_tokens_exits_nonzero(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text(TINY_CONFIG + "mask_schedule = 0.99,0.99\n")
    out = str(tmp_path / "run")
    assert cli_main(["pretrain", "--config", str(p), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mask ratio 0.99 leaves no visible token")
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "metrics.csv"))


def test_cli_mask_ratio_that_hides_no_patch_exits_nonzero(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text(TINY_CONFIG + "mask_schedule = 0.0,0.5\n")
    out = str(tmp_path / "run")
    assert cli_main(["pretrain", "--config", str(p), "--out", out]) == 1
    assert capsys.readouterr().err.startswith(
        "error: mask ratio 0.0 hides no patch (num_patches = 16)")
    assert not os.path.exists(os.path.join(out, "metrics.csv"))


def test_cli_config_that_is_not_utf8_exits_nonzero(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"seed = 1 # \xff\xfe\n")
    out = tmp_path / "report"
    assert cli_main(["mem-report", "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p} is not UTF-8: ")
    assert not out.exists()


def test_cli_probe_of_checkpoint_with_non_utf8_name_exits_nonzero(
        tmp_path, capsys):
    ckpt = tmp_path / "c.bimc"
    save_checkpoint({"w": np.ones(2, dtype=np.float32)}, ckpt)
    blob = bytearray(ckpt.read_bytes())
    assert blob[16:17] == b"w"   # after magic, version, count, name length
    blob[16] = 0xFF
    ckpt.write_bytes(bytes(blob))
    out = tmp_path / "out"
    assert cli_main(["probe", "--config", _write_cfg(tmp_path), "--checkpoint",
                     str(ckpt), "--k", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: tensor name at byte 16 is not UTF-8")
    assert not (out / "probe_results.csv").exists()


def test_cli_inconsistent_blockwise_config_exits_nonzero(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("depth = 6\n")
    out = str(tmp_path / "report")
    assert cli_main(["flop-report", "--config", str(p), "--out", out]) == 1
    assert "not divisible" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "flop_report.csv"))


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS")


@pytest.mark.parametrize("given", [None, "3"])
def test_cli_import_pins_blas_threads_unless_the_environment_sets_them(
        given):
    # The CLI's entry module imports the package first, which sets each
    # BLAS thread count to 1 before numpy loads; a count the user set
    # wins.
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    env.update(dict.fromkeys(_BLAS_THREADS, given) if given else {})
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    child = ("import os, sys\n"
             "import blockmae.cli\n"
             f"print(*(os.environ[k] for k in {_BLAS_THREADS!r}))\n")
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [given or "1"] * 3
