"""Model components: embedding, positions, masking, layers, decoder, loss."""

import math

import numpy as np
import pytest
from scipy.special import erf

from blockmae import rng
from blockmae import tape as tape_module
from blockmae.model import (
    ModelSpec, _xavier_uniform, embed_visible, encoder_block_layer,
    init_block_head_params, init_encoder_params, keep_count,
    local_decoder_forward, mask_indices, patch_targets, patchify,
    reconstruction_loss, sincos_pos_embed,
)
from blockmae.tape import (
    LN_EPS, ContractError, DimensionError, Node, Tape, _attention_probs,
    _split_heads,
)
from test_tape import _batch_loss, _group_order_sum, _qv_columns, _widen_qv


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


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make", [Tape, tape_module.Forward],
                         ids=["tape", "forward"])
def test_embed_visible_of_every_patch_equals_the_explicit_ids(
        monkeypatch, make, dtype, parts):
    # kept=None reads patchify's rows and adds the [N, d] position table to
    # each sample's rows: the same bits as gathering them by arange(N).
    monkeypatch.setattr(tape_module, "_PARTS", parts)
    monkeypatch.setattr(tape_module, "_PART_ELEMENTS", 64)
    spec = _toy_spec()
    params = init_encoder_params(spec, seed=3, dtype=dtype)
    imgs = _images(spec, 3, seed=4, dtype=dtype)
    want = embed_visible(make(), params, spec, imgs, _unmasked(spec, 3))
    got = embed_visible(make(), params, spec, imgs)
    assert got.value.dtype == dtype
    assert np.array_equal(got.value, want.value)


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
    assert np.array_equal(np.sort(kept[0]), np.arange(10))


def test_mask_ratio_out_of_range():
    with pytest.raises(ContractError):
        mask_indices(10, 1.0, [1])
    with pytest.raises(ContractError):
        mask_indices(10, -0.1, [1])


def test_mask_partition_and_restore_bijection():
    spec = _toy_spec(image_size=24)  # 36 patches
    n = spec.num_patches
    params = init_block_head_params(spec, 0, seed=3, dtype=np.float64)
    token = params["block0.dec.mask_token"]
    pos = sincos_pos_embed(spec.grid_side, spec.decoder_dim)
    targets = patch_targets(_images(spec, 3, seed=8), spec)
    for trial in range(50):
        kept = mask_indices(n, 0.6, [rng.split(trial, i) for i in range(3)])
        k = kept.shape[1]
        assert k == keep_count(n, 0.6)
        t = Tape()
        z = t.leaf(rng.normals(trial, 3 * k * spec.embed_dim).reshape(
            3, k, spec.embed_dim))
        bridged = local_decoder_forward(t, params, z, 0)
        loss = reconstruction_loss(t, params, spec, bridged, targets, kept, 0)
        bridged = bridged.value
        # Patch kept[i, j] holds visible token j and every hidden patch the
        # mask token, each plus its position row.
        dec_in = np.empty((3, n, spec.decoder_dim))
        for i in range(3):
            hidden = np.setdiff1d(np.arange(n), kept[i])
            assert np.array_equal(np.sort(np.concatenate([kept[i], hidden])),
                                  np.arange(n))
            dec_in[i, kept[i]] = bridged[i] + pos[kept[i]]
            dec_in[i, hidden] = token + pos[hidden]
        # The loss node decodes that input, bit for bit as the decoder's
        # layers, head and loss as nodes of their own.
        ref = Tape()
        want = ref.mse_masked(
            _decode(ref, params, spec, ref.leaf(dec_in), 0),
            ref.leaf(targets), ref.leaf(_hidden_mask(kept, n, np.float64)))
        assert np.array_equal(loss.value, want.value)


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
    (layer,) = [n for n in t.nodes if n.kind == "encoder-layer"]
    # The node saves x, LN1's row statistics and each attention row's max
    # and sum (then LN2's statistics); q|k|v and the probabilities are
    # rebuilt from them as backward rebuilds them.
    xs, mu, inv_std, row_max, row_sum = layer.saved[:5]
    g, b, w, bias = (params[f"enc.layer0.{name}"] for name in (
        "ln1.g", "ln1.b", "attn.qkv.w", "attn.qv.b"))
    qkv = ((xs - mu) * inv_std * g + b) @ w + _widen_qv(bias)
    q, k, _ = _split_heads(qkv, spec.heads)
    probs = _attention_probs(q, k, row_max, row_sum)
    assert probs.shape == (1, spec.heads, 6, 6)
    np.testing.assert_allclose(probs.sum(-1), 1.0, rtol=1e-12)


def _split_heads_layer(params, prefix, x, heads):
    """The layer in plain numpy, with one q, k and v projection per head
    and the heads merged by a concatenation: the reference for the fused
    layer.  The per-head weights are cut from `attn.qkv.w`, columns
    (q|k|v, head, dh), and the biases from `attn.qv.b` widened to them.
    Each step is the operation the tape's kernels perform, so the values
    agree bit for bit."""
    d = x.shape[-1]
    dh = d // heads

    def linear(h, w, b):
        return h @ np.ascontiguousarray(w) + b

    def param_linear(h, name):
        return linear(h, params[f"{prefix}.{name}.w"],
                      params[f"{prefix}.{name}.b"])

    def layernorm(h, name):
        centred = h - h.mean(axis=-1, keepdims=True)
        var = ((centred * centred).mean(axis=-1, keepdims=True)
               + h.dtype.type(LN_EPS))
        return (centred * (1.0 / np.sqrt(var)) * params[f"{prefix}.{name}.g"]
                + params[f"{prefix}.{name}.b"])

    def softmax(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def gelu(h):
        return 0.5 * h * (1.0 + erf(h / np.sqrt(h.dtype.type(2.0))))

    w, b = (params[f"{prefix}.attn.qkv.w"],
            _widen_qv(params[f"{prefix}.attn.qv.b"]))
    h1 = layernorm(x, "ln1")
    ctxs = []
    for h in range(heads):
        q, k, v = (linear(h1, w[:, c:c + dh], b[c:c + dh])
                   for c in (p * d + h * dh for p in range(3)))
        scores = q @ np.ascontiguousarray(np.swapaxes(k, -1, -2))
        ctxs.append(softmax(scores * scores.dtype.type(1.0 / np.sqrt(dh))) @ v)
    x2 = x + param_linear(np.concatenate(ctxs, axis=-1), "attn.out")
    f1 = gelu(param_linear(layernorm(x2, "ln2"), "mlp.fc1"))
    return x2 + param_linear(f1, "mlp.fc2")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim,heads,n", [(64, 4, 16), (16, 2, 5), (32, 1, 9)])
def test_fused_layer_bitwise_equal_split_heads_reference(dtype, dim, heads, n):
    spec = ModelSpec(embed_dim=dim, heads=heads, depth=1, mlp_ratio=2)
    params = init_encoder_params(spec, seed=13, dtype=dtype)
    params["enc.layer0.attn.qv.b"][:] = rng.normals(14, 2 * dim)
    x = rng.normals(15, 3 * n * dim).reshape(3, n, dim).astype(dtype)
    t = Tape()
    got = encoder_block_layer(t, params, "enc.layer0", t.leaf(x), heads)
    want = _split_heads_layer(params, "enc.layer0", x, heads)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got.value, want)
    assert [n.kind for n in t.nodes if not n.is_leaf] == ["encoder-layer"]


class _WholeAttentionTape(Tape):
    """A tape with an attention node of its own, in plain numpy: it saves
    q|k|v and the whole [b, heads, n, n] probabilities.  Its rule is
    `_vjp_whole_attention`."""

    def attention(self, qkv, heads):
        b, n, width = qkv.shape
        q, _, v = _split_heads(qkv.value, heads)
        probs = _whole_probabilities(qkv.value, heads)
        out = np.swapaxes(probs @ v, 1, 2).reshape(b, n, width // 3)
        node = Node("attention", out, (qkv,), attrs={"heads": heads})
        return self._register(node, [(qkv.value, True), (probs, True)])


def _whole_probabilities(qkv, heads):
    """softmax(q k^T / sqrt(dh)) as the tape computes it: the product with
    a contiguous k^T, scale, shift, exp and divide."""
    q, k, _ = _split_heads(qkv, heads)
    probs = q @ np.ascontiguousarray(np.swapaxes(k, -1, -2))
    probs *= probs.dtype.type(1.0 / np.sqrt(q.shape[-1]))
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _vjp_whole_attention(node, g):
    """dv, dprobs, the softmax gradient, the scale, dq and dk into one
    buffer, from the saved probabilities."""
    qkv, probs = node.saved
    heads = node.attrs["heads"]
    b, n, width = qkv.shape
    dh = width // (3 * heads)
    dqkv = np.empty_like(qkv)
    q, k, v = _split_heads(qkv, heads)
    dq, dk, dv = _split_heads(dqkv, heads)
    gctx = np.swapaxes(g.reshape(b, n, heads, dh), 1, 2)
    np.matmul(np.swapaxes(probs, -1, -2), gctx, out=dv)
    dprobs = gctx @ np.swapaxes(v, -1, -2)
    dprobs -= (dprobs * probs).sum(axis=-1, keepdims=True)
    dprobs *= probs
    dprobs *= qkv.dtype.type(1.0 / np.sqrt(dh))
    np.matmul(dprobs, k, out=dq)
    np.matmul(np.swapaxes(dprobs, -1, -2), q, out=dk)
    return (dqkv,)


def _unfused_layer(tape, params, prefix, x, heads):
    """The layer as ten nodes, one per LayerNorm, projection, GELU and
    residual sum, and attention as `_WholeAttentionTape.attention`: the
    reference for the fused nodes' gradients.  The qkv projection adds
    `attn.qv.b` widened to its columns, so that leaf's gradient is 3d
    wide."""
    def p(name, value=None):
        return tape.leaf(params[f"{prefix}.{name}"] if value is None
                         else value, name=f"{prefix}.{name}",
                         requires_grad=True)

    def linear(h, name):
        return tape.linear(h, p(f"{name}.w"), p(f"{name}.b"))

    h1 = tape.layernorm(x, p("ln1.g"), p("ln1.b"))
    merged = tape.attention(tape.linear(h1, p("attn.qkv.w"), p(
        "attn.qv.b", _widen_qv(params[f"{prefix}.attn.qv.b"]))), heads)
    x2 = tape.add(x, linear(merged, "attn.out"))
    h2 = tape.layernorm(x2, p("ln2.g"), p("ln2.b"))
    f1 = tape.gelu(linear(h2, "mlp.fc1"))
    return tape.add(x2, linear(f1, "mlp.fc2"))


def _assert_fused_layer_gradients_equal_unfused(monkeypatch, spec, shape,
                                                dtype):
    """A layer of `spec` over x of `shape`: its output and every gradient
    are those of `_unfused_layer` run on each of the fused rule's groups of
    samples, the parameters' added in its order, bit for bit."""
    # In the unfused layer the residual input x gets two contributions, g
    # and then LN1's; the fused node adds them in the other order.
    # Addition commutes bit for bit, so even x's gradient is bitwise equal.
    monkeypatch.setitem(tape_module._VJP, "attention", _vjp_whole_attention)
    params = init_encoder_params(spec, seed=19, dtype=dtype)
    x = rng.normals(20, math.prod(shape)).reshape(shape).astype(dtype)
    target = rng.normals(21, x.size).reshape(x.shape).astype(dtype)
    b, n = shape[:2]

    def run(layer, s=slice(0, b)):
        t = _WholeAttentionTape()
        xn = t.leaf(x[s], name="x", requires_grad=True)
        # a non-leaf layer input, as in a step
        xa = t.add(xn, t.leaf(np.zeros_like(x[s])))
        out = layer(t, params, "enc.layer0", xa, spec.heads)
        value = out.value.copy()
        return {"y": value, **t.backward(_batch_loss(t, out, target[s], b))}

    grads = run(encoder_block_layer)
    grads_ref = _group_order_sum(lambda s: run(_unfused_layer, s), b, n,
                                 rows=("x", "y"))
    bias = "enc.layer0.attn.qv.b"
    grads_ref[bias] = _qv_columns(grads_ref[bias])
    assert np.array_equal(grads.pop("y"), grads_ref.pop("y"))
    assert grads.keys() == grads_ref.keys() and len(grads) == 13
    for name, g in grads.items():
        assert g.dtype == dtype, name
        assert np.array_equal(g, grads_ref[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_layer_gradients_bitwise_equal_unfused_layer(monkeypatch,
                                                         dtype):
    _assert_fused_layer_gradients_equal_unfused(
        monkeypatch, ModelSpec(embed_dim=32, heads=2, depth=1, mlp_ratio=2),
        (3, 7, 32), dtype)


@pytest.mark.parametrize("dim,heads,n", [(64, 4, 16), (32, 1, 64)])
def test_fused_layer_gradients_bitwise_equal_unfused_layer_at_desk_shapes(
        monkeypatch, dim, heads, n):
    # 64 samples at the encoder's and the decoder's width and token count:
    # every rule sums its rows over several groups, in the same order.
    assert len(tape_module._groups((64, n, dim))) > 2
    _assert_fused_layer_gradients_equal_unfused(
        monkeypatch, ModelSpec(embed_dim=dim, heads=heads, depth=1),
        (64, n, dim), np.float32)


@pytest.mark.parametrize("prefix,heads,dim", [("enc.layer1", 4, 64),
                                              ("block2.dec.layer0", 1, 32)])
def test_qkv_init_is_the_per_head_draws_of_the_split_layout(prefix, heads, dim):
    spec = ModelSpec()
    params = (init_encoder_params(spec, seed=17) if prefix.startswith("enc")
              else init_block_head_params(spec, 2, seed=17))
    w = params[f"{prefix}.attn.qkv.w"]
    dh = dim // heads
    assert w.shape == (dim, 3 * dim) and w.dtype == np.float32
    bias = params[f"{prefix}.attn.qv.b"]
    assert bias.shape == (2 * dim,) and np.all(bias == 0.0)
    for i, (proj, h) in enumerate((p, h) for p in "qkv" for h in range(heads)):
        draw = _xavier_uniform(rng.split(17, "init", f"{prefix}.attn.{proj}{h}.w"),
                               dim, dh, (dim, dh), np.float32)
        assert np.array_equal(w[:, i * dh:(i + 1) * dh], draw), (proj, h)


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


def _hidden_mask(kept, n, dtype):
    """The reference loss's mask of `kept` [b, k]: 1 on each sample's
    hidden patches, 0 on its kept ones."""
    mask = np.ones((len(kept), n), dtype)
    mask[np.arange(len(kept))[:, None], kept] = 0
    return mask


def _leaves(t, params, prefix, names):
    return [t.leaf(params[f"{prefix}.{name}"], name=f"{prefix}.{name}",
                   requires_grad=True) for name in names]


def _decode(t, params, spec, x, decoder_id):
    """The predictions of decoder `decoder_id` from its input x [b, N,
    dd], as the nodes that the loss node fuses: each layer's node, then
    the final norm and head."""
    pfx = f"block{decoder_id}.dec"
    for j in range(spec.decoder_depth):
        x = t.encoder_layer(x, *_leaves(t, params, f"{pfx}.layer{j}", (
            "ln1.g", "ln1.b", "attn.qkv.w", "attn.qv.b", "attn.out.w",
            "attn.out.b", "ln2.g", "ln2.b", "mlp.fc1.w", "mlp.fc1.b",
            "mlp.fc2.w", "mlp.fc2.b")), spec.decoder_heads)
    return t.layernorm_linear(x, *_leaves(t, params, pfx, (
        "ln.g", "ln.b", "pred.w", "pred.b")))


def _predict(t, params, spec, z, kept, decoder_id=0):
    """A decoder's predictions from a block output z: the bridge
    (`local_decoder_forward`), the decoder input built by five nodes (the
    bridged tokens and the mask token's rows, concatenated, put in patch
    order by a gather, plus the position table), and `_decode`.  The mask
    token's rows are zeros, the leaf "fill_rows", plus the mask token."""
    bridged = local_decoder_forward(t, params, z, decoder_id)
    b, k, dd = bridged.shape
    n = spec.num_patches
    hidden = np.stack([np.setdiff1d(np.arange(n), row) for row in kept])
    fills = t.add(t.leaf(np.zeros((b, n - k, dd), bridged.dtype),
                         name="fill_rows", requires_grad=True),
                  *_leaves(t, params, f"block{decoder_id}.dec",
                           ("mask_token",)))
    rows = t.gather_rows(t.concat_rows([bridged, fills]), np.argsort(
        np.concatenate([kept, hidden], axis=1), axis=1))
    pos = t.leaf(sincos_pos_embed(spec.grid_side, dd).astype(bridged.dtype))
    return _decode(t, params, spec, t.add(rows, pos), decoder_id)


def test_decoder_covers_all_patches():
    spec, params, kept, t, z = _decoder_setup()
    x = local_decoder_forward(t, params, z, 0)
    assert x.shape == (2, kept.shape[1], spec.decoder_dim)
    pred = _predict(t, params, spec, z, kept)
    assert pred.shape == (2, spec.num_patches, spec.patch_pixels)


def test_decoder_zero_weights_final_bias_everywhere():
    spec, params, kept, t, z = _decoder_setup()
    for name in params:
        params[name][:] = 0.0
    beta = rng.normals(55, spec.patch_pixels)
    params["block0.dec.pred.b"][:] = beta
    pred = _predict(t, params, spec, z, kept)
    want = np.broadcast_to(beta, pred.value.shape)
    np.testing.assert_allclose(pred.value, want, atol=1e-14)


def test_decoder_invariant_to_kept_order_permutation():
    spec, params, kept, t, z = _decoder_setup()
    pred = _predict(t, params, spec, z, kept)

    # permute each sample's kept order together with its token rows
    t2 = Tape()
    perm = np.stack([rng.permutation(rng.split(77, i), kept.shape[1])
                     for i in range(len(kept))])
    z2 = t2.leaf(np.take_along_axis(z.value, perm[..., None], axis=1))
    kept2 = np.take_along_axis(kept, perm, axis=1)
    pred2 = _predict(t2, params, spec, z2, kept2)
    np.testing.assert_allclose(pred2.value, pred.value, atol=1e-12)


def test_decoder_rejects_inconsistent_state():
    spec, params, kept, t, z = _decoder_setup()
    # one visible id fewer than the block has token rows: the loss node
    # refuses it
    targets = patch_targets(_images(spec, 2, seed=32), spec)
    with pytest.raises(DimensionError,
                       match=r"decoder-loss needs ids \[b, k\] = "
                             r"\[2, 8\]; got \(2, 7\)"):
        reconstruction_loss(t, params, spec,
                            local_decoder_forward(t, params, z, 0), targets,
                            kept[:, :-1], 0)


# ----- loss ----------------------------------------------------------------------

def test_loss_zero_when_pred_equals_target():
    # Zero weights predict the head's bias at every patch; images of one
    # value c make every target c.
    spec, params, kept, t, z = _decoder_setup()
    for name in params:
        params[name][:] = 0.0
    params["block0.dec.pred.b"][:] = 0.25
    imgs = np.full((2, 1, spec.image_size, spec.image_size), 0.25)
    x = local_decoder_forward(t, params, z, 0)
    loss = reconstruction_loss(t, params, spec, x, patch_targets(imgs, spec),
                               kept, 0)
    assert float(loss.value) == 0.0


def test_loss_normalized_targets():
    spec = _toy_spec(norm_pix=True)
    imgs = _images(spec, 1, seed=43)
    tgt = patch_targets(imgs, spec)
    np.testing.assert_allclose(tgt.mean(-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(tgt.var(-1), 1.0, atol=1e-3)


def test_loss_gradient_zero_on_unmasked_predictions():
    # The loss reads only the hidden patches' errors, so the predictions
    # of visible patches get no gradient: the targets of visible patches
    # change neither the loss nor any gradient, bit for bit, while one
    # hidden patch's target changes the loss.
    spec = _toy_spec()
    imgs = _images(spec, 2, seed=44)
    kept = mask_indices(spec.num_patches, 0.5,
                        [rng.split(45, i) for i in range(2)])
    params = init_block_head_params(spec, 0, seed=46, dtype=np.float64)
    z = rng.normals(46, 2 * kept.shape[1] * spec.decoder_dim).reshape(
        2, kept.shape[1], spec.decoder_dim)

    def run(targets):
        t = Tape()
        loss = reconstruction_loss(t, params, spec,
                                   t.leaf(z, name="z", requires_grad=True),
                                   targets, kept, 0)
        return float(loss.value), t.backward(loss)

    targets = patch_targets(imgs, spec)
    loss, grads = run(targets)
    visible = targets.copy()
    visible[np.arange(2)[:, None], kept] += 1.0
    loss2, grads2 = run(visible)
    assert loss2 == loss and grads2.keys() == grads.keys()
    assert all(np.array_equal(grads2[k], grads[k]) for k in grads)
    assert np.abs(grads["z"]).max() > 0.0
    hidden = targets.copy()
    hidden[0, np.setdiff1d(np.arange(spec.num_patches), kept[0])[0]] += 1.0
    assert run(hidden)[0] != loss


def _mask_token_grad(fill_rows, n):
    """The mask token's gradient as the loss node sums it, from the fill
    rows' gradient [b, n - k, dd]: each group of `_groups` over the
    decoder input [b, n, dd] sums its fill rows; the first half's groups
    add one after another, then the second half's, then first plus
    second."""
    b, _, dd = fill_rows.shape
    cut = tape_module._groups((b, n, dd))
    half = max(1, len(cut) // 2)

    def run(groups):
        total = None
        for s in groups:
            part = fill_rows[s].reshape(-1, dd).sum(axis=0)
            total = part if total is None else total + part
        return total
    first, second = run(cut[:half]), run(cut[half:])
    return first if second is None else first + second


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("depth", [1, 2])
def test_loss_node_bitwise_equal_mlp_head_and_mse_nodes(depth, dtype):
    # One block's decoder and loss at the desk decoder's shape, 8 samples
    # in groups of 6 and 2: the loss node gives the loss and every
    # gradient of the nodes it fuses (the decoder input's five nodes, each
    # layer's attention and MLP nodes, the final norm and head, and the
    # masked MSE) bit for bit, but the mask token's.  The node sums that
    # in its own groups, and is within rounding of the nodes' sum.
    spec = ModelSpec(decoder_depth=depth)
    params = init_block_head_params(spec, 1, seed=23, dtype=dtype)
    kept = mask_indices(spec.num_patches, 0.75,
                        [rng.split(24, i) for i in range(8)])
    z = rng.normals(25, 8 * kept.shape[1] * spec.embed_dim).reshape(
        8, kept.shape[1], spec.embed_dim).astype(dtype)
    targets = patch_targets(_images(spec, 8, seed=26, dtype=dtype), spec)

    def run(fused):
        t = Tape()
        # a non-leaf block output, as in a step
        zn = t.add(t.leaf(z, name="z", requires_grad=True),
                   t.leaf(np.zeros(spec.embed_dim, dtype)))
        if fused:
            x = local_decoder_forward(t, params, zn, 1)
            loss = reconstruction_loss(t, params, spec, x, targets, kept, 1)
        else:
            pred = _predict(t, params, spec, zn, kept, 1)
            mask = _hidden_mask(kept, spec.num_patches, dtype)
            loss = t.mse_masked(pred, t.leaf(targets), t.leaf(mask))
        return loss.value.copy(), t.backward(loss)

    (loss, grads), (want, want_grads) = run(True), run(False)
    fill_rows = want_grads.pop("fill_rows")
    assert loss.dtype == dtype and np.array_equal(loss, want)
    assert grads.keys() == want_grads.keys() == set(params) | {"z"}
    token = "block1.dec.mask_token"
    for name, g in grads.items():
        if name != token:
            assert np.array_equal(g, want_grads[name]), name
    assert np.array_equal(grads[token],
                          _mask_token_grad(fill_rows, spec.num_patches))
    tol = 1e-5 if dtype == np.float32 else 1e-12
    err = np.abs(grads[token] - want_grads[token]).max()
    assert err <= tol * np.abs(want_grads[token]).max(), err


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
