"""Engine: partitioning, incremental drops, isolated steps, baselines."""

import dataclasses
import re
import weakref

import numpy as np
import pytest

from blockmae import engine, rng, runner
from blockmae.config import PRESETS, parse_config
from blockmae.data import gen_synthetic_dataset
from blockmae.engine import (
    BlockPlan, IsolationError, ScheduleError, block_layers,
    blockwise_train_step, build_model, incremental_drop, partition_encoder,
)
from blockmae.model import (
    ModelSpec, embed_visible, encoder_block_layer, keep_count,
    local_decoder_forward, mask_indices, patch_targets, reconstruction_loss,
)
from blockmae.optim import AdamW
from blockmae.tape import Tape


def _tiny_spec(depth=4, **over):
    base = dict(image_size=16, patch_size=4, channels=1, embed_dim=16,
                depth=depth, heads=2, mlp_ratio=2, decoder_dim=8,
                decoder_depth=1)
    base.update(over)
    return ModelSpec(**base)


def _images(spec, batch, seed=0, dtype=np.float64):
    ds = gen_synthetic_dataset(spec.image_size, batch, seed,
                               channels=spec.channels)
    return ds.images(dtype=dtype)


# ----- plan and partition ------------------------------------------------------

def test_plan_validates_schedule():
    with pytest.raises(ScheduleError):
        BlockPlan(num_blocks=4, mask_schedule=(0.8, 0.7, 0.7, 0.7))
    with pytest.raises(ScheduleError):
        BlockPlan(num_blocks=4, mask_schedule=(0.5, 0.6))
    with pytest.raises(ScheduleError):
        BlockPlan(num_blocks=2, mask_schedule=(0.5, 1.0))


@pytest.mark.parametrize("kw, message", [
    (dict(num_blocks=0, mask_schedule=()), "num_blocks must be >= 1, got 0"),
    (dict(mode="x"), "mode must be 'blockwise' or 'mae', got 'x'"),
])
def test_plan_refuses_blocks_and_modes_it_cannot_run(kw, message):
    with pytest.raises(ScheduleError, match=re.escape(message)):
        BlockPlan(**kw)


def test_plan_mae_refuses_more_than_one_block():
    with pytest.raises(ScheduleError, match=re.escape(
            "the 'mae' plan has one block, got 4")):
        BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4, mode="mae")


def test_partition_uniform_blocks():
    spec = _tiny_spec(depth=8)
    model = build_model(spec, 4, seed=1, dtype=np.float64)
    units = partition_encoder(model)
    assert [u.layer_ids for u in units] == [(0, 1), (2, 3), (4, 5), (6, 7)]


def test_partition_rejects_uneven_depth():
    with pytest.raises(ScheduleError,
                       match="^depth 7 is not divisible into 4 blocks$"):
        build_model(_tiny_spec(depth=7, image_size=16), 4, seed=1)


def test_block_layers_is_the_models_layout():
    assert block_layers(8, 4) == ((0, 1), (2, 3), (4, 5), (6, 7))
    assert block_layers(3, 1) == ((0, 1, 2),)
    model = build_model(_tiny_spec(depth=6), 3, seed=1)
    assert model.blocks == block_layers(6, 3) and model.num_blocks == 3
    assert tuple(u.layer_ids for u in partition_encoder(model)) == model.blocks


def test_partition_two_blocks_large_style():
    spec = _tiny_spec(depth=4)
    model = build_model(spec, 2, seed=1, dtype=np.float64)
    units = partition_encoder(model)
    assert [u.layer_ids for u in units] == [(0, 1), (2, 3)]


def test_block_parameter_sets_disjoint():
    spec = _tiny_spec(depth=4)
    model = build_model(spec, 2, seed=2, dtype=np.float64)
    units = partition_encoder(model)
    names0, names1 = set(units[0].param_names), set(units[1].param_names)
    assert not names0 & names1
    assert names0 | names1 == set(model.params)


def test_partition_maps_parameters_to_blocks():
    units = partition_encoder(build_model(_tiny_spec(depth=6), 3, seed=2))
    assert "embed.w" in units[0].param_names
    assert "enc.layer3.ln1.g" in units[1].param_names
    assert "block2.dec.mask_token" in units[2].param_names


# ----- incremental drop ---------------------------------------------------------

def _tokens(kept, width, seed):
    """An array of random token rows [b, k, width], one per visible id:
    a block's output, as the step hands it to the drop."""
    b, k = kept.shape
    return rng.normals(seed, b * k * width).reshape(b, k, width)


def _reference_drop(kept, keep, seed):
    """The per-sample drop, one sample at a time: the token rows each
    sample keeps, and the visible ids of those rows."""
    take = np.stack([np.argsort(rng.uniforms(rng.split(seed, "sample", i),
                                             kept.shape[1]),
                                kind="stable")[:keep]
                     for i in range(len(kept))])
    return take, np.stack([ids[rows] for ids, rows in zip(kept, take)])


def test_incremental_drop_counts_match_published_schedule():
    # schedule 65/70/80/85 over N=64: floor(64*(1-r)) = 22, 19, 12, 9
    n = 64
    schedule = (0.65, 0.70, 0.80, 0.85)
    kept = mask_indices(n, schedule[0], [5])
    t = Tape()
    tokens = _tokens(kept, 4, seed=1)
    counts = [kept.shape[1]]
    for r in schedule[1:]:
        xb, kept = incremental_drop(t, tokens, kept, keep_count(n, r),
                                    seed=11)
        counts.append(kept.shape[1])
        assert xb.kind == "boundary" and xb.shape[-2] == kept.shape[1]
        tokens = xb.value
    assert counts == [22, 19, 12, 9]


def test_incremental_drop_identity_when_ratio_unchanged():
    kept = mask_indices(16, 0.5, [6])
    t = Tape()
    tokens = _tokens(kept, 4, seed=2)
    xb, kept2 = incremental_drop(t, tokens, kept, keep_count(16, 0.5), seed=7)
    assert xb.kind == "boundary" and xb.value is tokens and kept2 is kept


def test_incremental_drop_rejects_growth():
    kept = mask_indices(16, 0.5, [8])
    t = Tape()
    tokens = _tokens(kept, 4, seed=3)
    with pytest.raises(ScheduleError):
        incremental_drop(t, tokens, kept, keep_count(16, 0.25), seed=9)


def test_incremental_drop_nesting_over_many_seeds():
    for trial in range(100):
        kept0 = mask_indices(16, 0.25, [rng.split(999, trial, 0, i)
                                        for i in range(10)])
        t = Tape()
        _, kept1 = incremental_drop(t, _tokens(kept0, 2, seed=4), kept0,
                                    keep_count(16, 0.625),
                                    seed=rng.split(999, trial, 1))
        assert kept1.shape == (10, 6)
        for before, after in zip(kept0, kept1):
            assert set(after) <= set(before)


def test_incremental_drop_gathers_matching_rows():
    kept0 = mask_indices(16, 0.25, [21, 23])
    t = Tape()
    tokens = _tokens(kept0, 3, seed=5)
    xb, kept1 = incremental_drop(t, tokens, kept0, keep_count(16, 0.75),
                                 seed=22)
    for i in range(2):
        for row, kept in enumerate(kept1[i]):
            src = np.where(kept0[i] == kept)[0][0]
            np.testing.assert_array_equal(xb.value[i, row], tokens[i, src])


def test_incremental_drop_equals_per_sample_reference():
    for n, r0, r1 in ((16, 0.25, 0.75), (64, 0.5, 0.625), (64, 0.0, 0.875)):
        kept0 = mask_indices(n, r0, [rng.split(31, n, i) for i in range(7)])
        t = Tape()
        tokens = _tokens(kept0, 3, seed=6)
        xb, kept1 = incremental_drop(t, tokens, kept0, keep_count(n, r1),
                                     seed=32)
        take, want = _reference_drop(kept0, keep_count(n, r1), seed=32)
        assert np.array_equal(kept1, want)
        assert np.array_equal(xb.value,
                              np.take_along_axis(tokens, take[..., None],
                                                 axis=1))


# ----- training steps ------------------------------------------------------------

def _setup(depth=4, blocks=4, dtype=np.float64, seed=3, schedule=None):
    spec = _tiny_spec(depth=depth)
    model = build_model(spec, blocks, seed=seed, dtype=dtype)
    units = partition_encoder(model)
    schedule = schedule or tuple([0.5] * blocks)
    plan = BlockPlan(num_blocks=blocks, mask_schedule=schedule)
    opt = AdamW(weight_decay=0.01)
    return spec, model, units, plan, opt


def test_step_reports_per_block_losses_and_zero_leak():
    spec, model, units, plan, opt = _setup()
    before = {k: v.copy() for k, v in model.params.items()}
    rep = blockwise_train_step(units, _images(spec, 4, seed=1), plan, opt,
                               lr=1e-3, step_seed=100)
    assert len(rep.losses) == 4
    assert rep.mean_loss == pytest.approx(np.mean(rep.losses))
    assert rep.peak_activation_bytes > 0
    # every block got gradients and updated its own parameters
    for u in units:
        assert any(not np.array_equal(model.params[n], before[n])
                   for n in u.param_names), u.block_id


def test_release_frees_boundary_copy_and_constant_leaves():
    # The step's buffer/free pattern by hand: block 1 continues from a
    # boundary leaf of block 0's output, recorded after block 0's release.
    # It shares the array block 0's bridge saved, belongs to block 1 and
    # is freed with it.
    spec = _tiny_spec(depth=2)
    params = build_model(spec, 2, seed=3, dtype=np.float64).params
    images = _images(spec, 2)
    kept = mask_indices(spec.num_patches, 0.75,
                        [rng.split(4, "mask", i) for i in range(2)])
    targets = patch_targets(images, spec)
    t = Tape()

    def forward(i, x):
        with t.block(i):
            x = encoder_block_layer(t, params, f"enc.layer{i}", x, spec.heads)
            dec = local_decoder_forward(t, params, x, i)
            return x, reconstruction_loss(t, params, spec, dec, targets,
                                          kept, i)

    with t.block(0):
        tokens = embed_visible(t, params, spec, images, kept)
    x, loss = forward(0, tokens)
    out = x.value
    table = weakref.ref(loss.inputs[2].value)   # the decoder's position leaf
    embed_table = weakref.ref(tokens.inputs[3].value)   # the embedding's
    copy = weakref.ref(out)
    t.backward(loss)
    # Backward drops the constant leaves it walks.
    assert table() is None and embed_table() is None and copy() is not None
    t.release_block_activations(0)
    assert all(n.value is None for n in t.nodes if n.block == 0)
    assert t.meter.live_activation_bytes == 0
    with t.block(1):
        xb = t.boundary(out)
    del out
    assert t.meter.live_activation_bytes == xb.bytes
    _, loss = forward(1, xb)
    t.backward(loss)
    assert copy() is not None   # until block 1, which reads it, is released
    t.release_block_activations(1)
    assert copy() is None and t.meter.live_activation_bytes == 0


@pytest.mark.parametrize("schedule", [(0.75,) * 4, (0.5, 0.625, 0.75, 0.875)])
def test_boundary_is_recorded_once_its_producer_is_released(monkeypatch,
                                                            schedule):
    # A desk-model step: when block i+1's boundary is recorded, the live bytes
    # are those right after block i's release, so nothing of block i still
    # charges the array and the boundary charges it once.
    events = []
    boundary, release = Tape.boundary, Tape.release_block_activations

    def recorded_boundary(self, value):
        events.append(("boundary", self._block,
                       self.meter.live_activation_bytes))
        return boundary(self, value)

    def recorded_release(self, block_id):
        freed = release(self, block_id)
        events.append(("release", block_id, self.meter.live_activation_bytes))
        return freed
    monkeypatch.setattr(Tape, "boundary", recorded_boundary)
    monkeypatch.setattr(Tape, "release_block_activations", recorded_release)
    spec = parse_config(PRESETS["desk-blockwise"]).model
    batch = 2
    plan = BlockPlan(num_blocks=4, mask_schedule=schedule)
    units = partition_encoder(build_model(spec, 4, seed=3, dtype=np.float32))
    rep = blockwise_train_step(units, _images(spec, batch, dtype=np.float32),
                               plan, AdamW(), lr=1e-3, step_seed=5)
    assert [e[:2] for e in events] == [
        ("release", 0), ("boundary", 1), ("release", 1), ("boundary", 2),
        ("release", 2), ("boundary", 3), ("release", 3)]
    for (_, _, released), (_, _, recorded) in zip(events[::2], events[1::2]):
        assert recorded == released == 0
    # Live bytes after each release: the next block's boundary, which
    # holds the tokens that block keeps of the released block's output.
    out_bytes = [batch * keep_count(spec.num_patches, r) * spec.embed_dim * 4
                 for r in schedule[1:]]
    assert rep.live_after_release == out_bytes + [0]


def test_grown_boundary_holds_only_the_tokens_its_block_keeps(monkeypatch):
    # A desk-model step on a growing schedule: block i+1's boundary holds
    # keep_count(N, r_{i+1}) rows per sample, read-only, and block i's
    # whole output array is dead once that boundary is recorded.
    schedule = (0.5, 0.625, 0.75, 0.875)
    outs, recorded, dead = [], [], []
    drop, layer = engine.incremental_drop, engine.encoder_block_layer

    def drop_kept(tape, out, kept, keep, seed):
        outs.append(weakref.ref(out))
        xb, kept = drop(tape, out, kept, keep, seed)
        recorded.append((xb.kind, xb.shape, xb.value.flags.writeable,
                         xb.bytes))
        return xb, kept

    def checked_layer(tape, params, prefix, x, heads):
        dead.append([ref() is None for ref in outs])
        return layer(tape, params, prefix, x, heads)
    monkeypatch.setattr(engine, "incremental_drop", drop_kept)
    monkeypatch.setattr(engine, "encoder_block_layer", checked_layer)
    spec = parse_config(PRESETS["desk-blockwise"]).model
    batch = 2
    plan = BlockPlan(num_blocks=4, mask_schedule=schedule)
    units = partition_encoder(build_model(spec, 4, seed=3, dtype=np.float32))
    rep = blockwise_train_step(units, _images(spec, batch, dtype=np.float32),
                               plan, AdamW(), lr=1e-3, step_seed=5)
    keeps = [keep_count(spec.num_patches, r) for r in schedule[1:]]
    assert keeps == [24, 16, 8]
    nbytes = [batch * k * spec.embed_dim * 4 for k in keeps]
    assert recorded == [("boundary", (batch, k, spec.embed_dim), False, nb)
                        for k, nb in zip(keeps, nbytes)]
    assert rep.live_after_release == nbytes + [0]
    # Two encoder layers per block: block i+1's first layer runs with
    # every earlier block's output already freed.
    assert dead == [[], [], [True], [True], [True] * 2, [True] * 2,
                    [True] * 3, [True] * 3]


def test_patch_targets_die_with_their_block(monkeypatch):
    # Each block builds its targets, and its backward drops them, before
    # the next block's forward starts.
    made, dead = [], []
    targets, drop = engine.patch_targets, engine.incremental_drop

    def recorded(images, spec):
        out = targets(images, spec)
        made.append(weakref.ref(out))
        return out

    def checked(*args):
        dead.append([ref() is None for ref in made])
        return drop(*args)
    monkeypatch.setattr(engine, "patch_targets", recorded)
    monkeypatch.setattr(engine, "incremental_drop", checked)
    spec, _, units, plan, opt = _setup()
    blockwise_train_step(units, _images(spec, 2), plan, opt, lr=1e-3,
                         step_seed=5)
    assert dead == [[True], [True] * 2, [True] * 3] and len(made) == 4


def test_gradient_isolation_over_random_steps():
    spec, model, units, plan, opt = _setup()
    # the engine raises IsolationError internally if any entry leaks; run
    # several seeded steps and also re-check the block map on the tables
    for step in range(10):
        rep = blockwise_train_step(units, _images(spec, 2, seed=step), plan,
                                   opt, lr=1e-3, step_seed=step)
        assert len(rep.losses) == 4


def test_isolation_check_names_a_gradient_outside_the_block():
    spec, model, units, plan, opt = _setup()
    lost = units[1].param_names[0]
    units[1] = dataclasses.replace(units[1],
                                   param_names=units[1].param_names[1:])
    with pytest.raises(IsolationError, match=repr(lost)):
        blockwise_train_step(units, _images(spec, 2), plan, opt, lr=1e-3,
                             step_seed=5)


class _StepOnly(AdamW):
    """AdamW that updates only the named parameters."""

    def __init__(self, names, **kwargs):
        super().__init__(**kwargs)
        self.names = set(names)

    def step(self, params, grads, lr):
        super().step(params, {k: g for k, g in grads.items()
                              if k in self.names}, lr)


def test_counterfactual_block0_update_independent_of_later_losses():
    spec, model, units, plan, opt = _setup(seed=7)
    p0 = {k: v.copy() for k, v in model.params.items()}
    imgs = _images(spec, 4, seed=9)
    blockwise_train_step(units, imgs, plan, opt, lr=1e-3, step_seed=11)
    after_full = {k: v.copy() for k, v in model.params.items()}

    # rebuild identical model; update only block 0 (later losses "zeroed")
    model2 = build_model(spec, 4, seed=7, dtype=np.float64)
    units2 = partition_encoder(model2)
    for k in p0:
        assert np.array_equal(model2.params[k], p0[k])
    names0 = units[0].param_names
    blockwise_train_step(units2, imgs, plan,
                         _StepOnly(names0, weight_decay=0.01),
                         lr=1e-3, step_seed=11)
    for name in names0:
        assert np.array_equal(after_full[name], model2.params[name]), name
    # sanity: later blocks did move in the full run
    moved = [n for n in units[1].param_names
             if not np.array_equal(after_full[n], p0[n])]
    assert moved


def test_runner_mae_step_is_the_one_step():
    # The benchmark wraps the step under both names; they are one function.
    assert runner.mae_train_step is runner.blockwise_train_step


def test_blockwise_peak_below_mae_peak():
    spec = _tiny_spec(depth=4)
    imgs = _images(spec, 4, seed=19)
    model = build_model(spec, 4, seed=23, dtype=np.float64)
    units = partition_encoder(model)
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4)
    rep_b = blockwise_train_step(units, imgs, plan, AdamW(), lr=0.0,
                                 step_seed=1)
    model_m = build_model(spec, 1, seed=23, dtype=np.float64)
    units_m = partition_encoder(model_m)
    rep_m = blockwise_train_step(units_m, imgs, BlockPlan(1, (0.75,)),
                                 AdamW(), lr=0.0, step_seed=1)
    assert rep_b.peak_activation_bytes < rep_m.peak_activation_bytes


def test_mae_first_layer_gradients_nonzero():
    spec = _tiny_spec(depth=4)
    model = build_model(spec, 1, seed=29, dtype=np.float64)
    units = partition_encoder(model)
    before = model.params["enc.layer0.attn.qkv.w"].copy()
    blockwise_train_step(units, _images(spec, 2, seed=31),
                         BlockPlan(1, (0.5,)), AdamW(), lr=1e-3, step_seed=2)
    assert not np.array_equal(before, model.params["enc.layer0.attn.qkv.w"])


def test_step_determinism_bitwise():
    def run():
        spec, model, units, plan, opt = _setup(seed=37)
        imgs = _images(spec, 3, seed=41)
        rep = blockwise_train_step(units, imgs, plan, opt, lr=1e-3,
                                   step_seed=43)
        return rep.losses, {k: v.copy() for k, v in model.params.items()}

    l1, p1 = run()
    l2, p2 = run()
    assert l1 == l2
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)


def test_incremental_schedule_runs_and_shrinks_tokens():
    spec, model, units, plan, opt = _setup(
        schedule=(0.5, 0.625, 0.75, 0.875))
    rep = blockwise_train_step(units, _images(spec, 2, seed=47), plan, opt,
                               lr=1e-3, step_seed=53)
    assert len(rep.losses) == 4 and np.isfinite(rep.mean_loss)
