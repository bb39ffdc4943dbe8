"""Memory model: analytic-vs-measured agreement, published trends, compute."""

import tracemalloc
import weakref

import numpy as np
import pytest

from blockmae import memory, ofa, rng, tape
from blockmae.config import ConfigError, parse_config
from blockmae.data import gen_synthetic_dataset
from blockmae.engine import (
    BlockPlan, ScheduleError, blockwise_train_step, build_model,
    partition_encoder,
)
from blockmae.memory import (
    _bridge_bytes, _decoder_bytes, _decoder_params, _layer_bytes,
    analytic_peak, compare_peak, flop_estimate,
)
from blockmae.model import (
    ModelSpec, encoder_block_layer, init_block_head_params,
    init_encoder_params, keep_count, local_decoder_forward, mask_indices,
    patch_targets, reconstruction_loss,
)
from blockmae.optim import AdamW
from blockmae.checkpoint import load_checkpoint, save_checkpoint
from blockmae.runner import _keep_freed_heap, _load_params, _model_record
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
@pytest.mark.parametrize("activation_fed", [True, False])
def test_one_layer_meter_equals_layer_bytes(activation_fed, dtype):
    spec = ModelSpec(embed_dim=32, heads=4, depth=1, mlp_ratio=3)
    b, n, d = 3, 7, spec.embed_dim
    params = init_encoder_params(spec, seed=4, dtype=dtype)
    t = Tape()
    x = t.leaf(rng.normals(5, b * n * d).reshape(b, n, d).astype(dtype))
    if activation_fed:
        # a non-leaf input, which LN1 charges
        x = t.add(x, t.leaf(np.zeros(d, dtype)))
    encoder_block_layer(t, params, "enc.layer0", x, spec.heads)
    s = np.dtype(dtype).itemsize
    leaf_input = 0 if activation_fed else s * b * n * d
    assert t.meter.live_activation_bytes == _layer_bytes(
        b, n, d, spec.heads, s) - leaf_input


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 4])
def test_one_layer_charges_its_input_and_row_statistics(dtype, heads):
    # Per sample a layer charges its input, n * d, a mean and an inverse
    # std per row for each of its two LayerNorms, 4n, and a softmax max
    # and sum per row and head, 2 * heads * n.  Not the attention
    # sublayer's residual sum, which would be one more n * d.
    spec = ModelSpec(embed_dim=32, heads=heads, depth=1, mlp_ratio=3)
    b, n, d = 3, 7, spec.embed_dim
    params = init_encoder_params(spec, seed=4, dtype=dtype)
    t = Tape()
    x = t.add(t.leaf(rng.normals(5, b * n * d).reshape(b, n, d).astype(
        dtype)), t.leaf(np.zeros(d, dtype)))
    before = t.meter.live_activation_bytes
    encoder_block_layer(t, params, "enc.layer0", x, heads)
    s = np.dtype(dtype).itemsize
    assert t.meter.live_activation_bytes - before == s * b * (
        n * d + (4 + 2 * heads) * n)


def test_analytic_peak_at_paper_scale():
    # ViT-B/16 (224 px, patch 16, 3 channels, width 768, depth 12, 12
    # heads, MLP ratio 4) with a 512-wide, 8-deep decoder, at batch 4096,
    # f32: four blocks at ratio 0.75 against end-to-end MAE at 0.75.  The
    # block-wise peak is 0.346 of MAE's.
    spec = ModelSpec(image_size=224, patch_size=16, channels=3,
                     embed_dim=768, depth=12, heads=12, mlp_ratio=4,
                     decoder_dim=512, decoder_depth=8)
    assert analytic_peak(spec, BlockPlan(4, (0.75,) * 4),
                         4096) == 3_048_776_704
    assert analytic_peak(spec, BlockPlan(1, (0.75,), "mae"),
                         4096) == 8_800_150_528


@pytest.mark.parametrize("workload", ["pretrain-blockwise", "pretrain-grow",
                                      "pretrain-mae", "probe"])
def test_metered_equals_analytic_on_the_benchmark_workloads(monkeypatch,
                                                            workload):
    # The benchmark's desk model and plans at batch 3; both counts are
    # linear in batch.  The probe's layers run on a Forward, which
    # charges nothing; its one Tape, the final norm's, saves each row's
    # mean and inverse std.
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
        assert [m.peak_activation_bytes for m in meters] == [
            2 * batch * TOY.num_patches * 8]
        return
    plan = {"pretrain-blockwise": BlockPlan(4, (0.75,) * 4),
            "pretrain-grow": BlockPlan(4, (0.5, 0.625, 0.75, 0.875)),
            "pretrain-mae": BlockPlan(1, (0.75,), "mae")}[workload]
    units = partition_encoder(build_model(TOY, plan.num_blocks, seed=12))
    rep = blockwise_train_step(units, images.astype(np.float32), plan,
                               AdamW(), 1e-3, step_seed=3)
    assert rep.peak_activation_bytes == analytic_peak(TOY, plan, batch)


@pytest.mark.parametrize("heads,d", [(1, 32), (4, 64), (16, 16)])
@pytest.mark.parametrize("activation_fed", [True, False])
def test_layer_bytes_grow_at_most_linearly_in_tokens(heads, d, activation_fed):
    # Attention saves row statistics, not probabilities: doubling the
    # tokens at most doubles a layer's charged bytes, with its input or,
    # as when a leaf feeds it, without.
    for n in (1, 8, 64, 256):
        one, two = (_layer_bytes(2, m, d, heads, 4)
                    - (0 if activation_fed else 4 * 2 * m * d)
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
    dec = local_decoder_forward(t, params, x, 1)
    reconstruction_loss(t, params, TOY, dec, patch_targets(images, TOY), kept,
                        1)
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
    # Linear in batch but for the decoder's parameter gradients, which
    # the loss node saves once per block whatever the batch.
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4)
    params = 4 * _decoder_params(TOY)
    one = analytic_peak(TOY, plan, batch=1) - params
    for k in (2, 5, 8):
        assert analytic_peak(TOY, plan, batch=k) - params == k * one


def test_measured_doubling_batch_doubles_peaks_ratio_invariant():
    # Less the decoder's parameter gradients, which do not grow with the
    # batch, both peaks double, and so their ratio holds.
    spec = _spec(depth=4)
    plan = BlockPlan(num_blocks=2, mask_schedule=(0.5, 0.5))
    r1 = compare_peak(spec, plan, batch=2, seed=5, dtype=np.float64)
    r2 = compare_peak(spec, plan, batch=4, seed=5, dtype=np.float64)
    params = 8 * _decoder_params(spec)
    one, two = ([r.measured_peak_bytes - params for r in rows]
                for rows in (r1, r2))
    assert two == [2 * one[0], 2 * one[1]]
    assert two[1] / two[0] == pytest.approx(one[1] / one[0], rel=1e-12)


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


def _warm_step_heap(plan):
    """A warm step's tracemalloc rise, its peak less its start, and its
    metered peak, in bytes."""
    units, images, plan, opt = _warm_desk_blockwise(plan)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = blockwise_train_step(units, images, plan, opt, 1e-3,
                                   step_seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start, rep.peak_activation_bytes


def _layer_rule_over_metered(tokens):
    """What a warm desk step may hold beyond its metered peak, in f32
    bytes, in the first encoder layer rule of a block's backward, the
    last layer's, when the block keeps `tokens` tokens per sample.  There
    the meter still charges every buffer the block saved, and the process
    holds at most those less two that died with their rules: the
    decoder-loss node's gradient of z [64, tokens, 32] and the bridge's
    row statistics, 2 per row.  Beyond them it holds per thread one
    group's buffers, 384 rows, for the larger of the rule's two parts
    (`tests/test_tape.py`'s group width): the MLP part's LayerNorm 2's
    xhat, the normed rows, the GELU output and its CDF term, 2 * 64 +
    2 * 256; the attention part's q|k|v, dqkv, the merged heads'
    gradient, the probabilities, and one head's probability gradient and
    its product with the probabilities, 7 * 64 + 3 * 2 * tokens.  Each
    thread holds one group's partials of the layer's 49,920 parameters,
    and its running sums besides from its second group on (`_grouped`):
    at 16 tokens the cut's second half runs 24 and then 16 samples, whose
    group buffers and partials with the sums are fewer than the first's.
    It holds besides the layer's incoming gradient [64, tokens, 64]; the
    gradients of the block's bridge (2,208 parameters), in the gradient
    table by then, besides the decoder's, which the meter charges;
    contiguous copies of the four weights, transposed (192 x 64, 64 x 64,
    256 x 64 and 64 x 256); the embedding's saved patch rows
    [64, tokens, 16], a leaf, uncharged; the mask's permutation, int64
    [64, 64], whose first `tokens` columns are the kept ids; and a
    broadcast buffer of numpy's per thread (33,920 B, measured around
    `o += b` on a [6, 64, 32] f32 array).  The growing schedule's block
    0, at 32 tokens, and the fixed schedule's blocks peak here.  A bound
    in bytes, not a ratio of the metered peak, so that a cut of the
    meter does not widen it.
    """
    width = max(2 * 64 + 2 * 256, 7 * 64 + 3 * 2 * tokens)
    cut = [s.stop - s.start for s in tape._groups((64, tokens, 64))]
    half = max(1, len(cut) // 2)
    threads = sum(max(c * tokens * width + 49_920 * (1 + (i > 0))
                      for i, c in enumerate(part))
                  for part in (cut[:half], cut[half:]) if part)
    return (threads + 64 * tokens * 64 + 2_208
            + (192 * 64 + 64 * 64 + 2 * 256 * 64)
            + 64 * tokens * 16 + 64 * 64 * 2
            - (64 * tokens * 32 + 64 * tokens * 2)) * 4 + 2 * 33_920


def _decoder_loss_over_metered(tokens):
    """What a warm desk step may hold beyond its metered peak, in f32
    bytes, in the forward of a block's decoder-loss node, which runs the
    decoder's backward too, when the block keeps `tokens` tokens per
    sample.  The meter then charges every buffer the block saved but the
    node's own: its gradients of z [64, tokens, 32] and of the decoder's
    13,296 parameters, charged once it is recorded, are part of the
    metered peak and not yet of the live bytes.  Desk-mae's one block
    peaks here or in an encoder layer rule (see _layer_rule_over_metered
    and the tests below).

    The node holds per thread one group's buffers, 384 rows, of at most
    592 elements each (`tests/test_tape.py`'s decoder bound at the same
    shape): what its forward keeps of the attention sublayer (xhat, the
    probabilities and the merged heads, 2 * 32 + 64) and of the MLP
    (xhat, the GELU output and its CDF term, 32 + 2 * 128), the head's
    xhat, normed rows, prediction, input gradient and one temporary
    (4 * 32 + 16), and one broadcast temporary (32).  For the whole batch
    it holds the gradient of z [64, tokens, 32] and each row's loss
    [64, 64], and of the parameters' gradients contiguous copies of the
    weights' transposes, each thread's running sums and one group's
    partials, and one more total: 6 * 13,296 at most.
    The step holds besides, uncharged: z itself, as large as its gradient
    the meter will charge; the loss's target [64, 64, 16] and position
    table [64, 32], constant leaves, and the loss mask [64, 64] the node
    builds; the kept ids, int64
    [64, tokens]; the embedding's saved patch rows [64, tokens, 16]; and
    numpy's broadcast buffer per thread.
    """
    return (2 * 384 * 592 + 64 * tokens * 32 + 64 * 64 + 6 * 13_296
            + 64 * tokens * 32
            + 64 * 64 * 16 + 64 * 64 + 64 * 32 + 2 * 64 * tokens
            + 64 * tokens * 16 - (64 * tokens * 32 + 13_296)) * 4 \
        + 2 * 33_920


def test_warm_blockwise_step_heap_within_bound_of_metered():
    # The meter charges saved buffers only; the process also holds the
    # gradient frontier, the rules' temporaries (one group of rows per
    # thread) and the parameter gradients, but no released or dead
    # forward value.  This reads about 2.53-2.63 MB over 30 warm steps,
    # in an encoder layer rule, against 2.86 MB; the decoder-loss node's
    # forward reads about 2.35-2.41 MB, below its own 2.66 MB.  One
    # encoder layer's whole CDF term (1,048,576 B) held besides in its
    # rule fails it, and the two checks below.
    rise, metered = _warm_step_heap(BlockPlan(num_blocks=4,
                                              mask_schedule=(0.75,) * 4))
    assert rise - metered <= max(_layer_rule_over_metered(16),
                                 _decoder_loss_over_metered(16)), \
        f"heap - metered = {rise - metered} B"


@pytest.mark.parametrize("plan,bound", [
    (BlockPlan(num_blocks=4, mask_schedule=(0.5, 0.625, 0.75, 0.875)),
     _layer_rule_over_metered(32)),
    (BlockPlan(num_blocks=1, mask_schedule=(0.75,), mode="mae"),
     _decoder_loss_over_metered(16)),
], ids=["grow", "mae"])
def test_warm_step_heap_within_bound_of_metered(plan, bound):
    # The same check on the growing schedule, where block 0 keeps 32
    # tokens and its last layer rule holds the peak, and on desk-mae's one
    # long backward, which peaks in its decoder-loss node's forward or in
    # an encoder layer rule, at 2.31-2.38 MB.  These read about
    # 2.70-3.40 MB against 3.45 MB and 2.38-2.45 MB against 2.66 MB over
    # 30 warm steps.  Grow's bound plus its metered peak, 5,548,864 B, is
    # below the 6,694,912 B that a layer saving its residual sum was
    # allowed.
    rise, metered = _warm_step_heap(plan)
    assert rise - metered <= bound, f"heap - metered = {rise - metered} B"


# A warm desk step's tracemalloc rise before the decoder and its loss
# became one node, the lowest of 8 runs of that code (2-core x86 VM, one
# BLAS thread); the highest read 5,126,955 and 8,039,402 B.  On the
# growing schedule the rise is set by block 0's encoder, which that
# change left as it was: it read 6,425,443-6,693,112 B before and
# 6,360,771-6,695,142 B after.
RISE_BEFORE_DECODER_NODE = {"blockwise": 4_854_219, "mae": 7_964_950}


@pytest.mark.parametrize("plan", [
    BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4),
    BlockPlan(num_blocks=1, mask_schedule=(0.75,), mode="mae"),
], ids=["blockwise", "mae"])
def test_warm_step_heap_rise_no_higher_than_before_the_decoder_node(plan):
    # Not read through the meter: the process's own peak.  These read
    # about 3.61-3.71 MB and 5.33-5.39 MB over 30 warm steps.
    rise, _ = _warm_step_heap(plan)
    assert rise <= RISE_BEFORE_DECODER_NODE[plan.mode], rise


# Desk-mae's metered peak at batch 64, f32: per encoder layer its input
# [64, 16, 64] and row statistics (`memory._layer_bytes`), the bridge's
# input and row statistics, and the decoder-loss node's gradients.
MAE_METERED = 2_944_960


def test_warm_mae_step_heap_rise_within_decoder_budget_of_metered():
    # The process's own peak over a warm desk-mae step, against the
    # metered peak with one activation per encoder layer plus the
    # decoder-loss node's budget beyond it: 5,605,248 B.  It reads about
    # 5.33-5.39 MB over 30 warm steps; with each layer's attention
    # residual sum saved besides (2,097,152 B over the 8 layers) it read
    # 7.46-7.49 MB.
    rise, metered = _warm_step_heap(
        BlockPlan(num_blocks=1, mask_schedule=(0.75,), mode="mae"))
    assert rise <= MAE_METERED + _decoder_loss_over_metered(16), rise
    assert metered == MAE_METERED


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


def _sweep_configs(count, seed):
    """`count` small (spec, plan, batch, dtype) draws from a fixed seed:
    N 4-64, widths 8-32 with heads that divide them, decoder depth 1-3,
    MLP ratio 1-4, norm_pix, f32 and f64, batch 1-5, and a fixed, a
    growing or a one-ratio schedule."""
    def pick(key, options):
        u = rng.uniforms(rng.split(seed, c, key), 1)[0]
        return options[int(u * len(options))]

    def ratio(n, k):
        # floor(n * (1 - r)) == k, away from the rounding edge
        return (n - k - 0.5) / n

    for c in range(count):
        side = pick("side", range(2, 9))
        n = side * side
        width = pick("width", (8, 12, 16, 20, 24, 28, 32))
        kind = pick("kind", ("fixed", "growing", "one-ratio"))
        blocks = 1 if kind == "one-ratio" else pick("blocks", (2, 4))
        spec = ModelSpec(
            image_size=2 * side, patch_size=2, embed_dim=width,
            depth=blocks * pick("per", (1, 2)),
            heads=pick("heads", [h for h in (1, 2, 4, 8) if width % h == 0]),
            mlp_ratio=pick("mlp", (1, 2, 3, 4)),
            decoder_dim=pick("dd", (8, 16, 32)),
            decoder_depth=pick("dec", (1, 2, 3)),
            norm_pix=pick("norm", (False, True)))
        if kind == "growing":
            first = pick("first", range(2, n))
            last = pick("last", range(1, first))
            keeps = sorted((pick(f"mid{j}", range(last, first + 1))
                            for j in range(blocks - 2)), reverse=True)
            keeps = [first] + keeps + [last]
        else:
            keeps = [pick("keep", range(1, n))] * blocks
        plan = BlockPlan(num_blocks=blocks,
                         mask_schedule=[ratio(n, k) for k in keeps])
        yield (spec, plan, pick("batch", range(1, 6)),
               pick("dtype", (np.float32, np.float64)))


def _sweep_step(spec, plan, batch, dtype):
    """One AdamW step of a fresh model for a sweep config; returns the
    step's report and the updated parameters."""
    images = gen_synthetic_dataset(spec.image_size, batch, 3).images(
        dtype=dtype)
    model = build_model(spec, plan.num_blocks, seed=4, dtype=dtype)
    rep = blockwise_train_step(partition_encoder(model), images, plan,
                               AdamW(), 1e-3, step_seed=5)
    return rep, model.params


def test_seeded_sweep_meters_what_the_model_predicts(monkeypatch):
    # Per config, one step: the metered peak is analytic_peak, and after
    # each block's release only the next block's boundary is live, the
    # tokens that block keeps.  And every node the step records holds an
    # array of the config's dtype, the tape's: each kernel allocates in
    # its input's dtype.
    register = Tape._register
    recorded = set()

    def spy(self, node, saved_pairs):
        recorded.add((self.dtype, node.value.dtype, node.kind))
        return register(self, node, saved_pairs)
    monkeypatch.setattr(Tape, "_register", spy)
    failures = []
    for spec, plan, batch, dtype in _sweep_configs(25, seed=14):
        s = np.dtype(dtype).itemsize
        recorded.clear()
        rep, _ = _sweep_step(spec, plan, batch, dtype)
        strays = sorted((str(t), str(v), k) for t, v, k in recorded
                        if t != dtype or v != dtype)
        if strays:
            failures.append(f"{spec} {plan} {np.dtype(dtype).name}: "
                            f"(tape, node, kind) {strays}")
        keeps = [keep_count(spec.num_patches, r) for r in plan.mask_schedule]
        boundaries = [s * batch * k * spec.embed_dim for k in keeps[1:]]
        want = (analytic_peak(spec, plan, batch, s), boundaries + [0])
        got = (rep.peak_activation_bytes, rep.live_after_release)
        if got != want:
            failures.append(f"{spec} {plan} batch={batch} "
                            f"{np.dtype(dtype).name}: got {got}, want {want}")
    assert not failures, "\n".join(failures)


def test_seeded_sweep_is_bitwise_across_threads(monkeypatch):
    # Per config, with every kernel split over the threads and every rule
    # walking one sample per group: one thread and two give the same
    # losses and updated parameters bit for bit.  And the config's
    # compute estimate is finite and positive.
    monkeypatch.setattr(tape, "_PART_ELEMENTS", 1)
    monkeypatch.setattr(tape, "_GROUP_ROWS", 1)
    failures = []
    for spec, plan, batch, dtype in _sweep_configs(25, seed=14):
        runs = []
        for parts in (1, 2):
            monkeypatch.setattr(tape, "_PARTS", parts)
            runs.append(_sweep_step(spec, plan, batch, dtype))
        (rep1, params1), (rep2, params2) = runs
        differ = [k for k in params1
                  if not np.array_equal(params1[k], params2[k])]
        if rep1.losses != rep2.losses or differ:
            failures.append(f"{spec} {plan} batch={batch} "
                            f"{np.dtype(dtype).name}: differ in "
                            f"{differ[:3]} losses {rep1.losses} "
                            f"{rep2.losses}")
        flops = flop_estimate(spec, plan)
        units = (flops.encoder_linear_units, flops.encoder_quad_units,
                 flops.decoder_units)
        if not all(np.isfinite(u) and u > 0 for u in units):
            failures.append(f"{spec} {plan}: flop units {units}")
    assert not failures, "\n".join(failures)


def test_seeded_sweep_resumes_bitwise(tmp_path):
    # Per config, two steps of one run against one step, a checkpoint of
    # the parameters and optimizer state as a run writes it, a load into a
    # model of another init seed and a fresh AdamW, and the second step:
    # the second step's losses and the updated parameters are bitwise
    # equal.
    path = tmp_path / "ckpt.bimc"
    failures = []
    for spec, plan, batch, dtype in _sweep_configs(25, seed=14):
        images = gen_synthetic_dataset(spec.image_size, 2 * batch, 3).images(
            dtype=dtype)

        def step(model, opt, i):
            return blockwise_train_step(
                partition_encoder(model), images[i * batch:(i + 1) * batch],
                plan, opt, 1e-3, step_seed=5 + i)

        model, opt = build_model(spec, plan.num_blocks, 4, dtype), AdamW()
        step(model, opt, 0)
        save_checkpoint({**model.params, **opt.state_tensors(),
                         **_model_record(model)}, path)
        want = step(model, opt, 1).losses
        tensors = load_checkpoint(path)
        resumed, opt = build_model(spec, plan.num_blocks, 9, dtype), AdamW()
        missing = _load_params(resumed, tensors, dtype)
        opt.load_state_tensors(tensors, dtype)
        got = step(resumed, opt, 1).losses
        differ = [k for k in model.params
                  if not np.array_equal(model.params[k], resumed.params[k])]
        if missing or got != want or differ:
            failures.append(f"{spec} {plan} batch={batch} "
                            f"{np.dtype(dtype).name}: missing {missing[:3]} "
                            f"differ in {differ[:3]} losses {got} {want}")
    assert not failures, "\n".join(failures)
