"""Model components: embedding, positions, masking, layers, decoder, loss."""

import numpy as np
import pytest

from blockmae import rng
from blockmae.config import ConfigError
from blockmae.model import (
    ModelSpec, _xavier_uniform, embed_visible, encoder_block_layer,
    fold_split_qkv, init_block_head_params, init_encoder_params, keep_count,
    local_decoder_forward, mask_indices, patch_mask, patch_targets, patchify,
    reconstruction_loss, sincos_pos_embed,
)
from blockmae.tape import ContractError, Tape


def _toy_spec(**over):
    base = dict(image_size=16, patch_size=4, channels=1, embed_dim=16,
                depth=2, heads=2, mlp_ratio=2, decoder_dim=8, decoder_depth=1)
    base.update(over)
    return ModelSpec(**base)


def _images(spec, batch, seed=0, dtype=np.float64):
    n = batch * spec.channels * spec.image_size ** 2
    return (rng.uniforms(seed, n).reshape(
        batch, spec.channels, spec.image_size, spec.image_size).astype(dtype))


# ----- spec invariants -------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ContractError):
        ModelSpec(image_size=30, patch_size=4)
    with pytest.raises(ContractError):
        ModelSpec(embed_dim=30, heads=4)
    with pytest.raises(ContractError):
        ModelSpec(depth=0)


def test_default_toy_preset_token_count():
    spec = ModelSpec()
    assert spec.image_size == 32 and spec.patch_size == 4
    assert spec.num_patches == 64


# ----- patchify / embed ------------------------------------------------------

def _unmasked(spec, batch):
    """Visible ids that keep every patch, in original order."""
    return np.tile(np.arange(spec.num_patches), (batch, 1))


def test_patchify_roundtrip_exact():
    spec = _toy_spec(channels=3)
    imgs = _images(spec, 2, seed=5)
    p, g, c = spec.patch_size, spec.grid_side, spec.channels
    x = patchify(imgs, spec).reshape(2, g, g, p, p, c)
    back = x.transpose(0, 5, 1, 3, 2, 4).reshape(imgs.shape)
    np.testing.assert_array_equal(back, imgs)


def test_embed_visible_token_count():
    spec = ModelSpec()
    params = init_encoder_params(spec, seed=1, dtype=np.float64)
    t = Tape()
    tok = embed_visible(t, params, spec, _images(spec, 2, seed=2),
                        _unmasked(spec, 2))
    assert tok.shape == (2, 64, spec.embed_dim)


def test_embed_visible_zero_image_gives_positions():
    spec = _toy_spec()
    params = init_encoder_params(spec, seed=1, dtype=np.float64)
    params["embed.b"][:] = 0.0
    imgs = np.zeros((1, 1, 16, 16))
    t = Tape()
    tok = embed_visible(t, params, spec, imgs, _unmasked(spec, 1))
    want = sincos_pos_embed(spec.grid_side, spec.embed_dim)
    np.testing.assert_allclose(tok.value[0], want, atol=1e-15)


def test_embed_visible_matches_full_embed_gather():
    spec = _toy_spec()
    params = init_encoder_params(spec, seed=3, dtype=np.float64)
    imgs = _images(spec, 3, seed=4)
    kept = mask_indices(spec.num_patches, 0.5,
                        [rng.split(9, i) for i in range(3)])
    # every patch embedded, in plain numpy
    full = (patchify(imgs, spec) @ params["embed.w"] + params["embed.b"]
            + sincos_pos_embed(spec.grid_side, spec.embed_dim))
    gathered = np.stack([full[i][ids] for i, ids in enumerate(kept)])
    vis = embed_visible(Tape(), params, spec, imgs, kept)
    np.testing.assert_allclose(vis.value, gathered, atol=1e-14)


# ----- sin-cos positions ------------------------------------------------------

def test_sincos_origin_row():
    pe = sincos_pos_embed(4, 16)
    row = pe[0]
    quarter = 4
    assert np.all(row[:quarter] == 0.0)          # sin(x=0)
    assert np.all(row[quarter:2 * quarter] == 1.0)  # cos(x=0)
    assert np.all(row[2 * quarter:3 * quarter] == 0.0)
    assert np.all(row[3 * quarter:] == 1.0)


def test_sincos_pure():
    np.testing.assert_array_equal(sincos_pos_embed(8, 32), sincos_pos_embed(8, 32))


def test_sincos_rejects_indivisible_dim():
    with pytest.raises(ContractError):
        sincos_pos_embed(4, 18)


def test_sincos_rows_distinct_up_to_grid_16():
    pe = sincos_pos_embed(16, 16)
    # exhaustive pairwise distinctness
    for i in range(pe.shape[0]):
        diffs = np.abs(pe[i + 1:] - pe[i]).max(axis=1)
        assert diffs.size == 0 or diffs.min() > 1e-9


# ----- masking ----------------------------------------------------------------

def _reference_mask(num_patches, ratio, seeds):
    """The per-sample draw, one seed at a time: the first floor(N * (1 - r))
    entries of a stable argsort of that seed's N uniforms."""
    k = int(np.floor(num_patches * (1.0 - ratio)))
    return np.stack([np.argsort(rng.uniforms(s, num_patches), kind="stable")[:k]
                     for s in seeds])


def test_uniforms_over_seeds_equal_each_seeds_draw():
    seeds = [0, 7, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1,
             rng.split(5, "mask", 3)]
    rows = rng.uniforms(seeds, 33)
    assert rows.shape == (len(seeds), 33)
    assert np.array_equal(rows, np.stack([rng.uniforms(s, 33) for s in seeds]))
    assert rng.uniforms(seeds[3], 33).shape == (33,)


def test_mask_indices_equal_per_sample_reference():
    for n, ratio in ((16, 0.5), (64, 0.75), (196, 0.75), (10, 0.0)):
        seeds = [rng.split(13, n, i) for i in range(9)]
        kept = mask_indices(n, ratio, seeds)
        assert kept.dtype == np.int64
        assert np.array_equal(kept, _reference_mask(n, ratio, seeds))


def test_mask_keep_count_196():
    assert keep_count(196, 0.75) == 49
    assert mask_indices(196, 0.75, [11]).shape == (1, 49)


def test_mask_ratio_zero_identity():
    kept = mask_indices(10, 0.0, [12])
    assert kept.shape == (1, 10)
    assert np.all(patch_mask(kept, 10) == 0)
    assert np.array_equal(np.sort(kept[0]), np.arange(10))


def test_mask_ratio_out_of_range():
    with pytest.raises(ContractError):
        mask_indices(10, 1.0, [1])
    with pytest.raises(ContractError):
        mask_indices(10, -0.1, [1])


class _GatherSpy(Tape):
    """A tape that keeps the ids of its last row gather."""

    def gather_rows(self, x, ids):
        self.gather_ids = ids
        return super().gather_rows(x, ids)


def test_mask_partition_and_restore_bijection():
    spec = _toy_spec(image_size=24)  # 36 patches
    n = spec.num_patches
    params = init_block_head_params(spec, 0, seed=3, dtype=np.float64)
    for trial in range(50):
        kept = mask_indices(n, 0.6, [rng.split(trial, i) for i in range(3)])
        mask = patch_mask(kept, n)
        assert kept.shape == (3, keep_count(n, 0.6))
        assert np.all(mask.sum(axis=1) == n - kept.shape[1])
        assert np.all(np.take_along_axis(mask, kept, axis=1) == 0)
        t = _GatherSpy()
        z = t.leaf(np.zeros((3, kept.shape[1], spec.embed_dim)))
        local_decoder_forward(t, params, spec, z, kept, 0)
        restore = t.gather_ids
        for i in range(3):
            assert np.array_equal(np.sort(restore[i]), np.arange(n))
            # row restore[orig] of [kept..., masked ascending...] is patch orig
            order = np.concatenate([kept[i], np.flatnonzero(mask[i])])
            assert np.array_equal(order[restore[i]], np.arange(n))


def test_mask_keep_frequency_monte_carlo():
    # fixed oracle: uniform shuffling keeps each patch w.p. 16/64 = 0.25
    n, trials = 64, 10_000
    counts = np.zeros(n)
    for trial in range(trials):
        counts[mask_indices(n, 0.75, [rng.split(777, trial)])[0]] += 1
    freq = counts / trials
    assert freq.min() > 0.23 and freq.max() < 0.27


# ----- encoder layer ------------------------------------------------------------

def test_encoder_layer_preserves_shape():
    spec = ModelSpec(embed_dim=64, heads=4, depth=1)
    params = init_encoder_params(spec, seed=5, dtype=np.float64)
    t = Tape()
    x = t.leaf(rng.normals(6, 2 * 16 * 64).reshape(2, 16, 64))
    out = encoder_block_layer(t, params, "enc.layer0", x, spec.heads)
    assert out.shape == (2, 16, 64)


def test_encoder_layer_attention_rows_sum_to_one():
    spec = _toy_spec()
    params = init_encoder_params(spec, seed=7, dtype=np.float64)
    t = Tape()
    x = t.leaf(rng.normals(8, 1 * 6 * 16).reshape(1, 6, 16))
    encoder_block_layer(t, params, "enc.layer0", x, spec.heads)
    (attn,) = [n for n in t.nodes if n.kind == "attention"]
    probs = attn.saved[1]
    assert probs.shape == (1, spec.heads, 6, 6)
    np.testing.assert_allclose(probs.sum(-1), 1.0, rtol=1e-12)


def _split_heads_layer(tape, params, prefix, x, heads):
    """The layer with one q, k and v projection per head, merged by
    transposes and a concat-rows: the reference for the fused layer.  The
    per-head weights are cut from `attn.qkv`, columns (q|k|v, head, dh)."""
    d = x.shape[-1]
    dh = d // heads

    def linear(h, w, b):
        return tape.add(tape.matmul(h, tape.leaf(w)), tape.leaf(b))

    def layernorm(h, name):
        return tape.layernorm(h, tape.leaf(params[f"{prefix}.{name}.g"]),
                              tape.leaf(params[f"{prefix}.{name}.b"]))

    def param_linear(h, name):
        return linear(h, params[f"{prefix}.{name}.w"], params[f"{prefix}.{name}.b"])

    w, b = params[f"{prefix}.attn.qkv.w"], params[f"{prefix}.attn.qkv.b"]
    h1 = layernorm(x, "ln1")
    ctxs = []
    for h in range(heads):
        q, k, v = (linear(h1, w[:, c:c + dh], b[c:c + dh])
                   for c in (p * d + h * dh for p in range(3)))
        scores = tape.matmul(q, tape.transpose(k))
        attn = tape.softmax(tape.scale(scores, 1.0 / np.sqrt(dh)))
        ctxs.append(tape.transpose(tape.matmul(attn, v)))
    merged = tape.transpose(tape.concat_rows(ctxs))
    x2 = tape.add(x, param_linear(merged, "attn.out"))
    f1 = tape.gelu(param_linear(layernorm(x2, "ln2"), "mlp.fc1"))
    return tape.add(x2, param_linear(f1, "mlp.fc2"))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim,heads,n", [(64, 4, 16), (16, 2, 5), (32, 1, 9)])
def test_fused_layer_bitwise_equal_split_heads_reference(dtype, dim, heads, n):
    spec = ModelSpec(embed_dim=dim, heads=heads, depth=1, mlp_ratio=2)
    params = init_encoder_params(spec, seed=13, dtype=dtype)
    params["enc.layer0.attn.qkv.b"][:] = rng.normals(14, 3 * dim)
    x = rng.normals(15, 3 * n * dim).reshape(3, n, dim).astype(dtype)
    t, t_ref = Tape(), Tape()
    got = encoder_block_layer(t, params, "enc.layer0", t.leaf(x), heads)
    want = _split_heads_layer(t_ref, params, "enc.layer0", t_ref.leaf(x), heads)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got.value, want.value)
    assert [n.kind for n in t.nodes if not n.is_leaf] == [
        "layernorm", "linear", "attention", "linear", "add",
        "layernorm", "linear", "gelu", "linear", "add"]


@pytest.mark.parametrize("prefix,heads,dim", [("enc.layer1", 4, 64),
                                              ("block2.dec.layer0", 1, 32)])
def test_qkv_init_is_the_per_head_draws_of_the_split_layout(prefix, heads, dim):
    spec = ModelSpec()
    params = (init_encoder_params(spec, seed=17) if prefix.startswith("enc")
              else init_block_head_params(spec, 2, seed=17))
    w = params[f"{prefix}.attn.qkv.w"]
    dh = dim // heads
    assert w.shape == (dim, 3 * dim) and w.dtype == np.float32
    assert np.all(params[f"{prefix}.attn.qkv.b"] == 0.0)
    for i, (proj, h) in enumerate((p, h) for p in "qkv" for h in range(heads)):
        draw = _xavier_uniform(rng.split(17, "init", f"{prefix}.attn.{proj}{h}.w"),
                               dim, dh, (dim, dh), np.float32)
        assert np.array_equal(w[:, i * dh:(i + 1) * dh], draw), (proj, h)


def _split_qkv_tensors(spec):
    """A split-layout layer, moments and step counts, keyed like a
    checkpoint of that layout, with its fused equivalent."""
    dh = spec.embed_dim // spec.heads
    split = {}
    for state in ("", "opt.m.", "opt.v.", "opt.t."):
        for proj in "qkv":
            for h in range(spec.heads):
                for leaf, shape in (("w", (spec.embed_dim, dh)), ("b", (dh,))):
                    name = f"{state}enc.layer0.attn.{proj}{h}.{leaf}"
                    split[name] = (np.array([3.0]) if state == "opt.t." else
                                   rng.normals(len(split), int(np.prod(shape)))
                                   .reshape(shape))
    return split


def test_fold_split_qkv_concatenates_heads_in_column_order():
    spec = _toy_spec()
    split = _split_qkv_tensors(spec)
    split["enc.layer0.ln1.g"] = np.ones(spec.embed_dim)
    folded = fold_split_qkv(split, spec)
    assert sorted(folded) == sorted(
        [f"{s}enc.layer0.attn.qkv.{leaf}" for s in ("", "opt.m.", "opt.v.", "opt.t.")
         for leaf in "wb"] + ["enc.layer0.ln1.g"])
    for state in ("", "opt.m.", "opt.v."):
        w = folded[f"{state}enc.layer0.attn.qkv.w"]
        assert w.shape == (spec.embed_dim, 3 * spec.embed_dim)
        dh = spec.embed_dim // spec.heads
        for i, (proj, h) in enumerate((p, h) for p in "qkv" for h in range(2)):
            assert np.array_equal(w[:, i * dh:(i + 1) * dh],
                                  split[f"{state}enc.layer0.attn.{proj}{h}.w"])
    assert folded["opt.t.enc.layer0.attn.qkv.w"].tolist() == [3.0]
    assert fold_split_qkv(folded, spec) == folded  # fused layout passes through


def test_fold_split_qkv_rejects_unequal_head_steps():
    spec = _toy_spec()
    split = _split_qkv_tensors(spec)
    split["opt.t.enc.layer0.attn.v1.b"] = np.array([4.0])
    with pytest.raises(ConfigError, match="step counts"):
        fold_split_qkv(split, spec)


def test_fold_split_qkv_rejects_surplus_head():
    spec = _toy_spec()
    split = _split_qkv_tensors(spec)
    split["enc.layer0.attn.q2.w"] = split["enc.layer0.attn.q1.w"]
    with pytest.raises(ConfigError, match="'enc.layer0.attn.q2.w'"):
        fold_split_qkv(split, spec)


def test_encoder_layer_gradient_matches_finite_diff():
    from blockmae.tape import finite_diff
    spec = ModelSpec(image_size=8, patch_size=4, embed_dim=8, heads=2, depth=1,
                     mlp_ratio=2, decoder_dim=8, decoder_depth=1)
    params = init_encoder_params(spec, seed=9, dtype=np.float64)
    x0 = rng.normals(10, 1 * 3 * 8).reshape(1, 3, 8)

    def loss_from(x_arr, tape_out=False):
        t = Tape()
        x = t.leaf(x_arr, name="x", requires_grad=True)
        out = encoder_block_layer(t, params, "enc.layer0", x, spec.heads)
        loss = t.mse_masked(out, t.leaf(np.zeros_like(out.value)),
                            t.leaf(np.ones(out.value.shape[:-1])))
        return (t, loss) if tape_out else float(loss.value)

    t, loss = loss_from(x0, tape_out=True)
    got = t.backward(loss)["x"]
    want = finite_diff(loss_from, x0, eps=1e-6)
    assert np.abs(got - want).max() / max(np.abs(want).max(), 1.0) < 1e-4


# ----- decoder -------------------------------------------------------------------

def _decoder_setup(ratio=0.5, batch=2, seed=31):
    spec = _toy_spec()
    params = init_block_head_params(spec, 0, seed=seed, dtype=np.float64)
    kept = mask_indices(spec.num_patches, ratio,
                        [rng.split(seed, "m", i) for i in range(batch)])
    t = Tape()
    k = kept.shape[1]
    z = t.leaf(rng.normals(seed + 1, batch * k * spec.embed_dim).reshape(
        batch, k, spec.embed_dim))
    return spec, params, kept, t, z


def test_decoder_covers_all_patches():
    spec, params, kept, t, z = _decoder_setup()
    pred = local_decoder_forward(t, params, spec, z, kept, 0)
    assert pred.shape == (2, spec.num_patches, spec.patch_pixels)


def test_decoder_zero_weights_final_bias_everywhere():
    spec, params, kept, t, z = _decoder_setup()
    for name in params:
        params[name][:] = 0.0
    beta = rng.normals(55, spec.patch_pixels)
    params["block0.dec.pred.b"][:] = beta
    pred = local_decoder_forward(t, params, spec, z, kept, 0)
    want = np.broadcast_to(beta, pred.value.shape)
    np.testing.assert_allclose(pred.value, want, atol=1e-14)


def test_decoder_invariant_to_kept_order_permutation():
    spec, params, kept, t, z = _decoder_setup()
    pred = local_decoder_forward(t, params, spec, z, kept, 0)

    # permute each sample's kept order together with its token rows
    t2 = Tape()
    perm = np.stack([rng.permutation(rng.split(77, i), kept.shape[1])
                     for i in range(len(kept))])
    z2 = t2.leaf(np.take_along_axis(z.value, perm[..., None], axis=1))
    kept2 = np.take_along_axis(kept, perm, axis=1)
    pred2 = local_decoder_forward(t2, params, spec, z2, kept2, 0)
    np.testing.assert_allclose(pred2.value, pred.value, atol=1e-12)


def test_decoder_rejects_inconsistent_state():
    spec, params, kept, t, z = _decoder_setup()
    # one visible id fewer than the block has token rows
    with pytest.raises(ContractError, match="visible ids for"):
        local_decoder_forward(t, params, spec, z, kept[:, :-1], 0)


# ----- loss ----------------------------------------------------------------------

def test_loss_zero_when_pred_equals_target():
    spec = _toy_spec()
    imgs = _images(spec, 2, seed=41)
    kept = mask_indices(spec.num_patches, 0.5,
                        [rng.split(42, i) for i in range(2)])
    t = Tape()
    pred = t.leaf(patch_targets(imgs, spec))
    loss = reconstruction_loss(t, pred, patch_targets(imgs, spec), kept)
    assert float(loss.value) == 0.0


def test_loss_normalized_targets():
    spec = _toy_spec(norm_pix=True)
    imgs = _images(spec, 1, seed=43)
    tgt = patch_targets(imgs, spec)
    np.testing.assert_allclose(tgt.mean(-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(tgt.var(-1), 1.0, atol=1e-3)


def test_loss_gradient_zero_on_unmasked_predictions():
    spec = _toy_spec()
    imgs = _images(spec, 2, seed=44)
    kept = mask_indices(spec.num_patches, 0.5,
                        [rng.split(45, i) for i in range(2)])
    t = Tape()
    pred = t.leaf(rng.normals(46, 2 * spec.num_patches * spec.patch_pixels)
                  .reshape(2, spec.num_patches, spec.patch_pixels),
                  name="pred", requires_grad=True)
    loss = reconstruction_loss(t, pred, patch_targets(imgs, spec), kept)
    g = t.backward(loss)["pred"]
    mask = patch_mask(kept, spec.num_patches)
    for i in range(2):
        assert np.all(g[i][kept[i]] == 0.0)
        assert np.abs(g[i][mask[i] == 1]).max() > 0.0


def test_forward_deterministic_given_seed():
    spec = _toy_spec()

    def run():
        params = init_encoder_params(spec, seed=99, dtype=np.float64)
        t = Tape()
        tok = embed_visible(t, params, spec, _images(spec, 2, seed=7),
                            _unmasked(spec, 2))
        out = encoder_block_layer(t, params, "enc.layer0", tok, spec.heads)
        return out.value.copy()

    assert np.array_equal(run(), run())
