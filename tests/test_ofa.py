"""Nested backbones: truncation equality, fixed-backbone probing, cost model."""

import tracemalloc

import numpy as np
import pytest

from blockmae import memory, ofa
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
    partition_encoder(model, blocks)
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
        want = _reference_forward(model, imgs, prefix.depth_layers,
                                  prefix.norm_params())[-1]
        assert np.array_equal(forward_tokens(prefix, imgs), want), k


def test_prefix_forward_is_a_prefix_of_deeper_forward():
    spec, model = _model(depth=8)
    imgs = gen_synthetic_dataset(16, 5, 9).images(dtype=np.float64)
    deep = _reference_forward(model, imgs, spec.depth)
    lpb = model.layers_per_block
    assert lpb == 2
    for k in (1, 2, 3, 4):
        prefix = truncate_backbone(model, k)
        g, b = prefix.norm_params()
        t = Tape()
        want = t.layernorm(t.leaf(deep[k * lpb - 1]),
                           t.leaf(model.params[g]), t.leaf(model.params[b]))
        assert np.array_equal(forward_tokens(prefix, imgs), want.value), k


def _one_layer_bytes(spec, batch):
    return memory._layer_bytes(batch, spec.num_patches, spec.embed_dim,
                               spec.heads, spec.mlp_ratio, 8,
                               input_charged=False)


def test_forward_tokens_meter_reads_one_encoder_layer(monkeypatch):
    meters = []

    class MeterKeepingTape(Tape):
        def __init__(self):
            super().__init__()
            meters.append(self.meter)

    monkeypatch.setattr(ofa, "Tape", MeterKeepingTape)
    spec, model = _model(depth=8)
    imgs = gen_synthetic_dataset(16, 12, 19).images(dtype=np.float64)
    prefix = truncate_backbone(model, 4)
    forward_tokens(prefix, imgs)
    assert len(meters) == prefix.depth_layers + 2  # embedding, layers, norm
    assert max(m.peak_activation_bytes for m in meters) == \
        _one_layer_bytes(spec, 12)


# Real bytes of the whole depth-8 forward, over the saved bytes of one
# layer: 1.30 with one tape per stage, about 10 when one tape holds all
# layers.
HEAP_OVER_ONE_LAYER = 3.0


def test_forward_tokens_heap_holds_about_one_layer():
    spec, model = _model(depth=8)
    imgs = gen_synthetic_dataset(16, 32, 21).images(dtype=np.float64)
    prefix = truncate_backbone(model, 4)
    forward_tokens(prefix, imgs)  # warm-up
    tracemalloc.start()
    try:
        forward_tokens(prefix, imgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < HEAP_OVER_ONE_LAYER * _one_layer_bytes(spec, 32), peak


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
    imgs = gen_synthetic_dataset(16, 10, 17).images(dtype=np.float64)
    f_all = extract_features(truncate_backbone(model, 2), imgs, chunk=10)
    f_chunked = extract_features(truncate_backbone(model, 2), imgs, chunk=3)
    assert f_all.shape == (10, spec.embed_dim)
    np.testing.assert_allclose(f_all, f_chunked, atol=1e-15)


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
