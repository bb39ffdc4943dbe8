"""Nested backbones: truncation equality, fixed-backbone probing, cost model."""

import inspect
import tracemalloc

import numpy as np
import pytest

from blockmae import ofa, tape
from blockmae.data import gen_synthetic_dataset
from blockmae.engine import BlockPlan, build_model, partition_encoder
from blockmae.model import ModelSpec, embed_visible, encoder_block_layer
from blockmae.ofa import (
    ProbeConfig, extract_features, forward_tokens, linear_probe,
    training_cost_saving, truncate_backbone,
)
from blockmae.tape import ContractError, Tape


def _model(depth=4, blocks=4, seed=3):
    spec = ModelSpec(image_size=16, patch_size=4, channels=1, embed_dim=16,
                     depth=depth, heads=2, mlp_ratio=2, decoder_dim=8,
                     decoder_depth=1)
    model = build_model(spec, blocks, seed=seed, dtype=np.float64)
    partition_encoder(model)
    return spec, model


def test_truncate_range_check():
    _, model = _model()
    with pytest.raises(ContractError):
        truncate_backbone(model, 0)
    with pytest.raises(ContractError):
        truncate_backbone(model, 5)


def test_prefix_parameters_strictly_nested():
    _, model = _model()
    sets = [set(truncate_backbone(model, k).parameters()) for k in (1, 2, 3, 4)]
    for small, big in zip(sets, sets[1:]):
        assert small < big


def _reference_forward(model, images, layers, norm=None):
    """Token values after each of the first `layers` encoder layers, all
    recorded on one tape; with `norm` = (g, b) names, the normed output of
    the last layer is appended."""
    spec, params = model.spec, model.params
    kept = np.tile(np.arange(spec.num_patches), (images.shape[0], 1))
    tape = Tape()
    x = embed_visible(tape, params, spec, images, kept)
    outs = []
    for j in range(layers):
        x = encoder_block_layer(tape, params, f"enc.layer{j}", x, spec.heads)
        outs.append(x.value)
    if norm is not None:
        g, b = norm
        outs.append(tape.layernorm(x, tape.leaf(params[g]),
                                   tape.leaf(params[b])).value)
    return outs


def test_prefix_forward_equals_single_tape_forward():
    spec, model = _model(depth=8)
    imgs = gen_synthetic_dataset(16, 6, 7).images(dtype=np.float64)
    for k in (1, 2, 3, 4):
        prefix = truncate_backbone(model, k)
        assert prefix.layer_ids == tuple(range(2 * k))
        want = _reference_forward(model, imgs, len(prefix.layer_ids),
                                  prefix.norm_params())[-1]
        assert np.array_equal(forward_tokens(prefix, imgs), want), k


def test_prefix_forward_is_a_prefix_of_deeper_forward():
    spec, model = _model(depth=8)
    imgs = gen_synthetic_dataset(16, 5, 9).images(dtype=np.float64)
    deep = _reference_forward(model, imgs, spec.depth)
    assert model.blocks == ((0, 1), (2, 3), (4, 5), (6, 7))
    for k in (1, 2, 3, 4):
        prefix = truncate_backbone(model, k)
        g, b = prefix.norm_params()
        t = Tape()
        want = t.layernorm(t.leaf(deep[model.blocks[k - 1][-1]]),
                           t.leaf(model.params[g]), t.leaf(model.params[b]))
        assert np.array_equal(forward_tokens(prefix, imgs), want.value), k


def _heap_peak(prefix, imgs):
    """tracemalloc's peak over a warm `forward_tokens` call."""
    forward_tokens(prefix, imgs)
    tracemalloc.start()
    try:
        forward_tokens(prefix, imgs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_tokens_meters_only_the_final_norm(monkeypatch):
    # The embedding and the layers run on a Forward, which makes no Tape
    # and charges nothing; the final norm's Tape saves its row statistics.
    meters = []

    class MeterKeepingTape(Tape):
        def __init__(self):
            super().__init__()
            meters.append(self.meter)

    monkeypatch.setattr(ofa, "Tape", MeterKeepingTape)
    spec, model = _model(depth=8)
    imgs = gen_synthetic_dataset(16, 12, 19).images(dtype=np.float64)
    forward_tokens(truncate_backbone(model, 4), imgs)
    assert len(meters) == 1
    assert meters[0].peak_activation_bytes == 2 * 12 * spec.num_patches * 8


# Real bytes of a depth-8 forward at the desk shape, batch 32, f64, on two
# threads, in units of one [b, N, d] activation: 3.42 with the layers on a
# Forward whose residual nodes write over their input (one activation,
# and each thread's MLP chunk temporaries: the normed rows, fc1, its CDF
# term and fc2's output, 1.25 units per thread), where the embedding
# reaches 1.35; 5.3 when each layer also held its input and attention
# output; 21.85 with all layers on one Tape, which keeps each layer's
# input and residual sum.
HEAP_OVER_ONE_ACTIVATION = 4.0


def test_forward_tokens_heap_at_desk_shape(monkeypatch):
    monkeypatch.setattr(tape, "_PARTS", 2)
    spec = ModelSpec()
    model = build_model(spec, 4, seed=5, dtype=np.float64)
    partition_encoder(model)
    imgs = gen_synthetic_dataset(spec.image_size, 32, 23).images(
        dtype=np.float64)
    peak = _heap_peak(truncate_backbone(model, 4), imgs)
    unit = 32 * spec.num_patches * spec.embed_dim * 8
    assert peak < HEAP_OVER_ONE_ACTIVATION * unit, peak / unit


# Real bytes of the whole depth-8 forward at a small shape, where bytes
# that do not grow with the batch weigh most, in units of one [b, N, d]
# activation: 8.49, against 29.6 when one Tape holds all layers.  At
# mlp_ratio 2 one chunk takes the whole batch, so a layer holds its one
# activation, the normed rows, fc1 and its CDF term at twice the width,
# and fc2's output before it is added over the activation: 7 units.  The
# bound is 688,128 B.
SMALL_HEAP_OVER_ONE_ACTIVATION = 10.5


def test_forward_tokens_heap_holds_about_one_layer():
    spec, model = _model(depth=8)
    imgs = gen_synthetic_dataset(16, 32, 21).images(dtype=np.float64)
    peak = _heap_peak(truncate_backbone(model, 4), imgs)
    unit = 32 * spec.num_patches * spec.embed_dim * 8
    assert peak < SMALL_HEAP_OVER_ONE_ACTIVATION * unit, peak / unit


def _desk_probe_chunk(monkeypatch):
    """The k = 1 prefix of a desk model in f64 on two threads, one chunk
    of the probe's images (`extract_features`' default chunk) and the
    bytes of one [b, N, d] activation.  Each layer writes over its input,
    so a deeper prefix holds no more."""
    monkeypatch.setattr(tape, "_PARTS", 2)
    spec = ModelSpec()
    model = build_model(spec, 4, seed=5, dtype=np.float64)
    partition_encoder(model)
    batch = inspect.signature(extract_features).parameters["chunk"].default
    imgs = gen_synthetic_dataset(spec.image_size, batch, 29).images(
        dtype=np.float64)
    unit = batch * spec.num_patches * spec.embed_dim * 8
    return truncate_backbone(model, 1), imgs, unit


# Real bytes of the probe's embedding at the desk shape, batch 128, f64,
# in units of one [b, N, d] activation: 1.28, its output and `patchify`'s
# rows (a quarter unit at 16 pixels per patch against 64 channels).  It
# read 2.53 while it gathered the patch rows again by their identity ids
# and made the [b, N, d] position rows to add as the residual.
EMBED_HEAP_OVER_ONE_ACTIVATION = 1.5


def test_probe_embedding_holds_its_output_and_the_patch_rows(monkeypatch):
    prefix, imgs, unit = _desk_probe_chunk(monkeypatch)
    forward_tokens(prefix, imgs)
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return embed_visible(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    monkeypatch.setattr(ofa, "embed_visible", traced)
    forward_tokens(prefix, imgs)
    assert len(peaks) == 1
    assert peaks[0] < EMBED_HEAP_OVER_ONE_ACTIVATION * unit, peaks[0] / unit


# Real bytes of a warm `forward_tokens` over one desk probe chunk, in the
# same units: 2.16, set by the final norm, which holds the last layer's
# output and its own.  It read 2.53 while the embedding set the peak.
PROBE_CHUNK_HEAP_OVER_ONE_ACTIVATION = 2.3


def test_probe_chunk_heap_is_the_final_norms(monkeypatch):
    prefix, imgs, unit = _desk_probe_chunk(monkeypatch)
    peak = _heap_peak(prefix, imgs)
    assert peak < PROBE_CHUNK_HEAP_OVER_ONE_ACTIVATION * unit, peak / unit


def test_probe_reaches_95_on_separable_two_class_set():
    spec, model = _model()
    ds = gen_synthetic_dataset(16, 256, seed=11, num_classes=2)
    res = linear_probe(truncate_backbone(model, 2), ds,
                       ProbeConfig(seed=1), num_classes=2)
    assert res.train_accuracy >= 0.95


def test_probe_leaves_backbone_bitwise_unchanged():
    spec, model = _model()
    prefix = truncate_backbone(model, 3)
    before = prefix.param_hash()
    ds = gen_synthetic_dataset(16, 128, seed=13, num_classes=4)
    linear_probe(prefix, ds, ProbeConfig(epochs=5, seed=2))
    assert prefix.param_hash() == before


def test_probe_requires_labels():
    spec, model = _model()
    ds = gen_synthetic_dataset(16, 32, seed=15)
    ds.labels = None
    with pytest.raises(ContractError):
        linear_probe(truncate_backbone(model, 1), ds)


def test_features_shape_and_chunking_consistency():
    spec, model = _model()
    ds = gen_synthetic_dataset(16, 10, 17)
    f_all = extract_features(truncate_backbone(model, 2), ds, chunk=10)
    f_chunked = extract_features(truncate_backbone(model, 2), ds, chunk=3)
    assert f_all.shape == (10, spec.embed_dim)
    np.testing.assert_allclose(f_all, f_chunked, atol=1e-15)


def test_features_read_each_chunk_as_the_whole_set_reads_it():
    # Each chunk's images are converted when it runs; its features are
    # bitwise those of the same rows of the whole set converted at once.
    _, model = _model(depth=8)
    ds = gen_synthetic_dataset(16, 7, 27)
    imgs = ds.images(dtype=np.float64)
    for k in (1, 2, 3, 4):
        prefix = truncate_backbone(model, k)
        want = np.concatenate([forward_tokens(prefix, imgs[s:s + 3]).mean(
            axis=1) for s in (0, 3, 6)])
        assert np.array_equal(extract_features(prefix, ds, chunk=3), want), k


# ----- training-cost model ------------------------------------------------------

def test_cost_saving_toy_depths_without_decoders_is_60_percent():
    spec = ModelSpec()  # depth 8
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4)
    saving = training_cost_saving((2, 4, 6, 8), plan, spec,
                                  include_decoders=False)
    assert saving == pytest.approx(0.6, abs=1e-12)


def test_cost_saving_single_depth_not_positive():
    spec = ModelSpec()
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4)
    assert training_cost_saving((8,), plan, spec) <= 0.0


def test_cost_saving_grows_with_more_nested_depths():
    spec = ModelSpec()
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4)
    savings = [training_cost_saving(d, plan, spec, include_decoders=False)
               for d in ((4, 8), (4, 6, 8), (2, 4, 6, 8))]
    assert savings[0] < savings[1] < savings[2]


def test_cost_saving_validates_depths():
    spec = ModelSpec()
    plan = BlockPlan(num_blocks=4, mask_schedule=(0.75,) * 4)
    with pytest.raises(ContractError):
        training_cost_saving((4, 4, 8), plan, spec)
    with pytest.raises(ContractError):
        training_cost_saving((2, 4), plan, spec)
