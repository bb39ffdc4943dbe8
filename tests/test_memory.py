"""Memory model: analytic-vs-measured agreement, published trends, compute."""

import tracemalloc
import weakref

import numpy as np
import pytest

from blockmae import memory, ofa, rng
from blockmae.config import ConfigError, parse_config
from blockmae.data import gen_synthetic_dataset
from blockmae.engine import (
    BlockPlan, ScheduleError, blockwise_train_step, build_model,
    partition_encoder,
)
from blockmae.memory import (
    _bridge_bytes, _decoder_bytes, _layer_bytes, analytic_peak, compare_peak,
    flop_estimate,
)
from blockmae.model import (
    ModelSpec, encoder_block_layer, init_block_head_params,
    init_encoder_params, local_decoder_forward, mask_indices, patch_targets,
    reconstruction_loss,
)
from blockmae.optim import AdamW
from blockmae.runner import _keep_freed_heap
from blockmae.tape import Tape


def _spec(depth=4, **over):
    base = dict(image_size=16, patch_size=4, channels=1, embed_dim=16,
                depth=depth, heads=2, mlp_ratio=2, decoder_dim=8,
                decoder_depth=1)
    base.update(over)
    return ModelSpec(**base)


TOY = ModelSpec()  # depth 8, B-ready toy preset


def test_analytic_equals_measured_tiny():
    spec = _spec(depth=4)
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.5,) * 4)
    rows = compare_peak(spec, plan, batch=3, seed=1, dtype=np.float64)
    for row in rows:
        assert row.analytic_peak_bytes == row.measured_peak_bytes, row


def test_analytic_equals_measured_toy_preset():
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4)
    rows = compare_peak(TOY, plan, batch=2, seed=2, dtype=np.float32)
    for row in rows:
        assert row.analytic_peak_bytes == row.measured_peak_bytes, row


def test_analytic_equals_measured_incremental_schedule():
    spec = _spec(depth=4)
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.5, 0.625, 0.75, 0.875))
    rows = compare_peak(spec, plan, batch=2, seed=3, dtype=np.float64)
    for row in rows:
        assert row.analytic_peak_bytes == row.measured_peak_bytes, row


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("input_charged", [True, False])
def test_one_layer_meter_equals_layer_bytes(input_charged, dtype):
    spec = ModelSpec(embed_dim=32, heads=4, depth=1, mlp_ratio=3)
    b, n, d = 3, 7, spec.embed_dim
    params = init_encoder_params(spec, seed=4, dtype=dtype)
    t = Tape()
    x = t.leaf(rng.normals(5, b * n * d).reshape(b, n, d).astype(dtype))
    if input_charged:
        # a non-leaf input, which LN1 charges
        x = t.add(x, t.leaf(np.zeros(d, dtype)))
    encoder_block_layer(t, params, "enc.layer0", x, spec.heads)
    assert t.meter.live_activation_bytes == _layer_bytes(
        b, n, d, spec.heads, spec.mlp_ratio, np.dtype(dtype).itemsize,
        input_charged=input_charged)


@pytest.mark.parametrize("workload", ["pretrain-blockwise", "pretrain-grow",
                                      "pretrain-mae", "probe"])
def test_metered_equals_analytic_on_the_benchmark_workloads(monkeypatch,
                                                            workload):
    # The benchmark's desk model and plans at batch 3; both counts are
    # linear in batch.  The probe's forward-only tapes hold one encoder
    # layer at a time, whose input is an uncharged leaf.
    batch = 3
    images = gen_synthetic_dataset(TOY.image_size, batch, 12).images(
        dtype=np.float64)
    if workload == "probe":
        meters = []

        class MeterKeepingTape(Tape):
            def __init__(self):
                super().__init__()
                meters.append(self.meter)
        monkeypatch.setattr(ofa, "Tape", MeterKeepingTape)
        model = build_model(TOY, 4, seed=12, dtype=np.float64)
        ofa.forward_tokens(ofa.truncate_backbone(model, 4), images)
        assert max(m.peak_activation_bytes for m in meters) == _layer_bytes(
            batch, TOY.num_patches, TOY.embed_dim, TOY.heads, TOY.mlp_ratio,
            8, input_charged=False)
        return
    plan = {"pretrain-blockwise": BlockPlan(4, (0.75,) * 4),
            "pretrain-grow": BlockPlan(4, (0.5, 0.625, 0.75, 0.875)),
            "pretrain-mae": BlockPlan(1, (0.75,), "mae")}[workload]
    units = partition_encoder(build_model(TOY, plan.num_blocks, seed=12))
    rep = blockwise_train_step(units, images.astype(np.float32), plan,
                               AdamW(), 1e-3, step_seed=3)
    assert rep.peak_activation_bytes == analytic_peak(TOY, plan, batch)


@pytest.mark.parametrize("heads,d", [(1, 32), (4, 64), (16, 16)])
@pytest.mark.parametrize("input_charged", [True, False])
def test_layer_bytes_grow_at_most_linearly_in_tokens(heads, d, input_charged):
    # Attention saves row statistics, not probabilities: doubling the
    # tokens at most doubles a layer's charged bytes.
    for n in (1, 8, 64, 256):
        one, two = (_layer_bytes(2, m, d, heads, 4, 4,
                                 input_charged=input_charged)
                    for m in (n, 2 * n))
        assert two <= 2 * one, (n, one, two)


@pytest.mark.parametrize("n_vis", [16, 32])
def test_decoder_meter_equals_bridge_and_decoder_bytes(n_vis):
    # The bridge, the local decoder and the loss of one block at desk
    # shapes, fed a block output that is an activation, as in a step.
    b, d, s = 3, TOY.embed_dim, 4
    params = init_block_head_params(TOY, 1, seed=6, dtype=np.float32)
    kept = mask_indices(TOY.num_patches, 1.0 - n_vis / TOY.num_patches,
                        [rng.split(7, i) for i in range(b)])
    assert kept.shape == (b, n_vis)
    images = gen_synthetic_dataset(TOY.image_size, b, 8).images(
        dtype=np.float32)
    t = Tape()
    x = t.add(t.leaf(rng.normals(9, b * n_vis * d).reshape(
        b, n_vis, d).astype(np.float32)), t.leaf(np.zeros(d, np.float32)))
    pred = local_decoder_forward(t, params, TOY, x, kept, 1)
    reconstruction_loss(t, pred, patch_targets(images, TOY), kept)
    assert t.meter.live_activation_bytes == (
        _bridge_bytes(b, n_vis, d, s) + _decoder_bytes(TOY, b, n_vis, s))


def test_idealized_ratio_is_one_over_blocks():
    # Less the bridge, decoder and loss, the peak is the encoder's bytes:
    # exactly 1/B.  A block's output is charged once: by its bridge until
    # the block is released, then by the next block's boundary, recorded
    # after that release, which stands in for that block's uncharged first
    # input.
    s, batch, n, d = 4, 4, TOY.num_patches // 4, TOY.embed_dim
    head = _bridge_bytes(batch, n, d, s) + _decoder_bytes(TOY, batch, n, s)
    mae = BlockPlan(num_blocks=1, mask_schedule=(0.75,), mode="mae")
    base = analytic_peak(TOY, mae, batch=batch) - head
    for b in (1, 2, 4):
        plan = BlockPlan(num_blocks=b, mask_schedule=(0.75,) * b)
        bim = analytic_peak(TOY, plan, batch=batch) - head
        assert bim * b == base


def test_analytic_linear_in_batch():
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4)
    one = analytic_peak(TOY, plan, batch=1)
    for k in (2, 5, 8):
        assert analytic_peak(TOY, plan, batch=k) == k * one


def test_measured_doubling_batch_doubles_peaks_ratio_invariant():
    spec = _spec(depth=4)
    plan = BlockPlan(num_blocks=2, mask_schedule=(0.5, 0.5))
    r1 = compare_peak(spec, plan, batch=2, seed=5, dtype=np.float64)
    r2 = compare_peak(spec, plan, batch=4, seed=5, dtype=np.float64)
    assert r2[0].measured_peak_bytes == 2 * r1[0].measured_peak_bytes
    assert r2[1].measured_peak_bytes == 2 * r1[1].measured_peak_bytes
    assert r2[1].ratio_vs_mae == pytest.approx(r1[1].ratio_vs_mae, rel=1e-12)


def test_compare_peak_frees_the_baseline_before_the_plans_step(monkeypatch):
    # The baseline's parameters would otherwise live through the plan's
    # step, which is the larger of the two.
    built, alive = [], []
    build, step = memory.build_model, memory.blockwise_train_step

    def recorded(*args, **kwargs):
        model = build(*args, **kwargs)
        built.append([weakref.ref(a) for a in model.params.values()])
        return model

    def checked(*args, **kwargs):
        alive.append([sum(ref() is not None for ref in refs)
                      for refs in built])
        return step(*args, **kwargs)
    monkeypatch.setattr(memory, "build_model", recorded)
    monkeypatch.setattr(memory, "blockwise_train_step", checked)
    compare_peak(_spec(depth=4), BlockPlan(num_blocks=2,
                                           mask_schedule=(0.5, 0.5)),
                 batch=2, seed=1, dtype=np.float64)
    assert alive == [[len(built[0])], [0, len(built[1])]]


def test_mae_self_comparison_ratio_one():
    # A one-block plan is the baseline itself, whatever its mode.
    spec = _spec(depth=4)
    for mode in ("mae", "blockwise"):
        plan = BlockPlan(num_blocks=1, mask_schedule=(0.5,), mode=mode)
        rows = compare_peak(spec, plan, batch=2, seed=7, dtype=np.float64)
        assert rows[1].ratio_vs_mae == 1.0, mode
        assert rows[1].analytic_peak_bytes == rows[0].analytic_peak_bytes, mode


def test_one_block_plan_runs_the_baseline_step_once_whatever_its_name(
        monkeypatch):
    # The block count decides, not the plan's name: a one-block plan named
    # "blockwise" reuses the baseline's step and its row reads "mae".
    calls = []
    step = memory._metered_step
    monkeypatch.setattr(memory, "_metered_step",
                        lambda *args: calls.append(args[1]) or step(*args))
    rows = compare_peak(_spec(depth=4), BlockPlan(1, (0.75,), "blockwise"), 8)
    assert len(calls) == 1
    assert [r.mode for r in rows] == ["mae", "mae"]
    assert rows[0].measured_peak_bytes == rows[1].measured_peak_bytes


def test_ratio_decreases_with_depth():
    ratios = []
    for depth in (8, 16, 24):
        spec = ModelSpec(depth=depth)
        plan = BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4)
        rows = compare_peak(spec, plan, batch=2, seed=9, dtype=np.float32)
        ratios.append(rows[1].ratio_vs_mae)
    assert ratios[0] > ratios[1] > ratios[2]


def test_increasing_blocks_never_increases_analytic_peak():
    spec = ModelSpec(depth=8)
    prev = None
    for b in (1, 2, 4, 8):
        plan = BlockPlan(num_blocks=b, mask_schedule=(0.75,) * b)
        peak = analytic_peak(spec, plan, batch=4)
        if prev is not None:
            assert peak <= prev
        prev = peak


def test_mae_peak_linear_in_depth():
    peaks = []
    depths = (4, 8, 12, 16)
    for depth in depths:
        plan = BlockPlan(num_blocks=1, mask_schedule=(0.75,), mode="mae")
        peaks.append(analytic_peak(ModelSpec(depth=depth), plan, batch=2))
    x = np.array(depths, dtype=float)
    y = np.array(peaks, dtype=float)
    slope, icept = np.polyfit(x, y, 1)
    r2 = 1 - ((y - (slope * x + icept)) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    assert r2 > 0.99


# ----- compute model ------------------------------------------------------------

def test_flop_schedule_75_80_85_90_saves_30_percent_linear():
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.75, 0.80, 0.85, 0.90))
    rep = flop_estimate(TOY, plan, baseline_ratio=0.75)
    frac_sum = sum(rep.visible_fractions)
    assert abs(frac_sum - 0.70) < 1e-12
    assert abs(rep.encoder_linear_units / rep.baseline_linear_units - 0.70) < 1e-12
    assert abs(rep.savings_vs_baseline - 0.30) < 1e-12
    assert rep.savings_vs_baseline >= 0.25


def test_flop_schedule_65_70_80_85_parity_with_fixed_75():
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.65, 0.70, 0.80, 0.85))
    rep = flop_estimate(TOY, plan, baseline_ratio=0.75)
    assert abs(rep.encoder_linear_units - rep.baseline_linear_units) \
        < 1e-9 * rep.baseline_linear_units


@pytest.mark.parametrize("reader", ["parse_config", "build_model",
                                    "analytic_peak", "flop_estimate"])
def test_uneven_depth_is_refused_by_every_reader_of_the_layout(reader):
    # depth 7 over 4 blocks used to give the depth-4 bytes and MACs
    spec = _spec(depth=7)
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4)
    call, error = {
        "parse_config": (lambda: parse_config("depth = 7"), ConfigError),
        "build_model": (lambda: build_model(spec, 4, seed=1), ScheduleError),
        "analytic_peak": (lambda: analytic_peak(spec, plan, 2), ScheduleError),
        "flop_estimate": (lambda: flop_estimate(spec, plan), ScheduleError),
    }[reader]
    with pytest.raises(error, match="^depth 7 is not divisible into 4 blocks$"):
        call()


def test_flop_zero_masking_baseline_parity():
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.0,) * 4)
    rep = flop_estimate(TOY, plan, baseline_ratio=0.0)
    assert rep.visible_fractions == (1.0, 1.0, 1.0, 1.0)
    assert rep.encoder_linear_units == rep.baseline_linear_units
    assert rep.savings_vs_baseline == 0.0


def test_flop_linear_units_follow_mlp_ratio():
    # Per token a layer's linear MACs are qkv (3d^2), out (d^2) and the
    # two MLP matrices (2 * mlp_ratio * d^2).
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4)
    reps = {r: flop_estimate(ModelSpec(mlp_ratio=r), plan) for r in (2, 4, 8)}
    n, d, dd = TOY.num_patches, TOY.embed_dim, TOY.decoder_dim
    for r, rep in reps.items():
        assert rep.encoder_linear_units == pytest.approx(
            TOY.depth * 0.25 * n * (4 + 2 * r) * d * d, rel=1e-12)
        per_decoder = (0.25 * n * d * dd + n * (4 + 2 * r) * dd * dd
                       + 2.0 * n * n * dd + n * dd * TOY.patch_pixels)
        assert rep.decoder_units == pytest.approx(4 * per_decoder, rel=1e-12)
    assert len({rep.encoder_linear_units for rep in reps.values()}) == 3
    assert len({rep.decoder_units for rep in reps.values()}) == 3


def test_flop_totals_nonnegative_and_additive():
    plan = BlockPlan(num_blocks=2, mask_schedule=(0.5, 0.75))
    rep = flop_estimate(_spec(depth=4), plan)
    assert rep.encoder_linear_units > 0
    assert rep.encoder_quad_units > 0
    assert rep.decoder_units > 0


# ----- real bytes ----------------------------------------------------------------

def _warm_desk_blockwise(plan=BlockPlan(num_blocks=4,
                                         mask_schedule=(0.75,) * 4)):
    """Units, images, plan and optimizer of a desk run of `plan` at batch
    64, after the first step: the optimizer state and the worker threads
    come with it."""
    images = gen_synthetic_dataset(TOY.image_size, 64, 11).images(
        dtype=np.float32)
    units = partition_encoder(build_model(TOY, plan.num_blocks, seed=11))
    opt = AdamW()
    blockwise_train_step(units, images, plan, opt, 1e-3, step_seed=1)
    return units, images, plan, opt


def _warm_step_heap_over_metered(plan):
    """A warm step's tracemalloc peak over its metered peak."""
    units, images, plan, opt = _warm_desk_blockwise(plan)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = blockwise_train_step(units, images, plan, opt, 1e-3,
                                   step_seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / rep.peak_activation_bytes


def test_warm_blockwise_step_heap_within_bound_of_metered():
    # The meter charges saved buffers only; the process also holds the
    # gradient frontier, VJP temporaries (the normed rows, q|k|v, merged
    # heads, attention probabilities, GELU outputs and decoder inputs the
    # fused nodes recompute among them) and the parameter gradients, but
    # no released or dead forward value.  This reads about 1.381.
    ratio = _warm_step_heap_over_metered(BlockPlan(
        num_blocks=4, mask_schedule=(0.75,) * 4))
    assert ratio <= 1.4, f"heap / metered = {ratio:.4f}"


@pytest.mark.parametrize("plan", [
    BlockPlan(num_blocks=4, mask_schedule=(0.5, 0.625, 0.75, 0.875)),
    BlockPlan(num_blocks=1, mask_schedule=(0.75,), mode="mae"),
], ids=["grow", "mae"])
def test_warm_step_heap_within_bound_of_metered(plan):
    # The same bound on the growing schedule, where block 0 holds the
    # peak, and on desk-mae's one long backward.  These read about 1.217
    # and 1.127.
    ratio = _warm_step_heap_over_metered(plan)
    assert ratio <= 1.4, f"heap / metered = {ratio:.4f}"


def test_warm_blockwise_steps_fault_no_pages():
    # With the thresholds a training run sets, a warm step reuses the heap
    # the step before it freed.  With glibc's defaults each step faults
    # about 20,000 pages back in.
    resource = pytest.importorskip("resource")
    if not _keep_freed_heap():
        pytest.skip("libc has no glibc mallopt")
    units, images, plan, opt = _warm_desk_blockwise()
    blockwise_train_step(units, images, plan, opt, 1e-3, step_seed=2)
    faults = []
    for seed in range(3, 8):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        blockwise_train_step(units, images, plan, opt, 1e-3, step_seed=seed)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    assert np.median(faults) <= 200, faults
