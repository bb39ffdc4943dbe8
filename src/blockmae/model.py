"""Toy-scale ViT masked-autoencoder components.

MAE masks drawn for the whole batch at once, an embedding of the
visible patches only (fixed 2D sin-cos positions), pre-norm transformer
encoder layers, lightweight decoders with learned mask tokens, and the
masked-patch reconstruction loss.  All forward paths are expressed in
tape primitives so gradients, release points, and byte accounting come
for free.  No function here tags nodes with a block: the caller's
`Tape.block` scope does.

A step's visibility is one int64 array `kept` [batch, k]: each sample's
visible patch ids in token order.  The loss mask and the decoder's
restore order are derived from it where they are read.

Attention uses the usual head-batched layout: one `attn.qkv` projection
of width 3d, whose columns are ordered (q|k|v, head, dh), feeds one
`Tape.attention` node that runs every head in one batched product and
returns the heads merged to [b, n, d].  A layer is ten tape nodes.
Checkpoints written with the earlier split layout, one
`attn.{q,k,v}{h}` projection per head, load through `fold_split_qkv`.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import rng
from .tape import ContractError, DimensionError, Tape

DECODER_HEAD_DIM = 32  # decoder heads sized to a fixed head width


@dataclass
class ModelSpec:
    """Architecture hyperparameters for one encoder/decoder family."""

    image_size: int = 32
    patch_size: int = 4
    channels: int = 1
    embed_dim: int = 64
    depth: int = 8
    heads: int = 4
    mlp_ratio: int = 4
    decoder_dim: int = 32
    decoder_depth: int = 1
    norm_pix: bool = False

    def __post_init__(self):
        fields = (self.image_size, self.patch_size, self.channels,
                  self.embed_dim, self.depth, self.heads, self.mlp_ratio,
                  self.decoder_dim, self.decoder_depth)
        if any(v <= 0 for v in fields):
            raise ContractError(f"model spec fields must be positive: {self}")
        if self.image_size % self.patch_size != 0:
            raise ContractError(
                f"image_size {self.image_size} not divisible by "
                f"patch_size {self.patch_size}")
        if self.embed_dim % self.heads != 0:
            raise ContractError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")

    @property
    def grid_side(self):
        return self.image_size // self.patch_size

    @property
    def num_patches(self):
        return self.grid_side ** 2

    @property
    def patch_pixels(self):
        return self.patch_size * self.patch_size * self.channels

    @property
    def decoder_heads(self):
        return max(1, self.decoder_dim // DECODER_HEAD_DIM)


# ----- deterministic initialization ----------------------------------------

def _xavier_uniform(seed, fan_in, fan_out, shape, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniforms(seed, int(np.prod(shape))).reshape(shape)
    return ((u * 2.0 - 1.0) * limit).astype(dtype)


def _layer_param_shapes(dim, mlp_ratio):
    hidden = dim * mlp_ratio
    return {"ln1.g": (dim,), "ln1.b": (dim,),
            "ln2.g": (dim,), "ln2.b": (dim,),
            "attn.qkv.w": (dim, 3 * dim), "attn.qkv.b": (3 * dim,),
            "attn.out.w": (dim, dim), "attn.out.b": (dim,),
            "mlp.fc1.w": (dim, hidden), "mlp.fc1.b": (hidden,),
            "mlp.fc2.w": (hidden, dim), "mlp.fc2.b": (dim,)}


def split_qkv_names(layer, heads):
    """Per-head projection names of the split layout, in `attn.qkv` column
    order: q0..q{heads-1}, then the k heads, then the v heads."""
    return [f"{layer}.attn.{proj}{h}" for proj in "qkv" for h in range(heads)]


def _init_layer_params(layer, dim, heads, mlp_ratio, seed, dtype):
    """One transformer layer's parameters under the prefix `layer`.

    The `attn.qkv` weight is the column concatenation of per-head xavier
    draws seeded by the split layout's names, so a fresh model computes the
    same function as one built with a projection per head.
    """
    params = {}
    for key, shape in _layer_param_shapes(dim, mlp_ratio).items():
        name = f"{layer}.{key}"
        if key == "attn.qkv.w":
            params[name] = np.concatenate(
                [_init_param(f"{head}.w", (dim, dim // heads), seed, dtype)
                 for head in split_qkv_names(layer, heads)], axis=1)
        else:
            params[name] = _init_param(name, shape, seed, dtype)
    return params


def _init_param(name, shape, seed, dtype):
    """Name-keyed init: weights xavier-uniform, norms 1/0, biases 0."""
    leafname = name.rsplit(".", 1)[-1]
    if leafname == "g":
        return np.ones(shape, dtype)
    if leafname in ("b",) and len(shape) == 1:
        return np.zeros(shape, dtype)
    if leafname == "mask_token":
        return (rng.normals(rng.split(seed, "init", name), shape[0]) * 0.02
                ).astype(dtype)
    return _xavier_uniform(rng.split(seed, "init", name),
                           shape[0], shape[-1], shape, dtype)


def init_encoder_params(spec, seed, dtype=np.float32):
    """Patch embedding plus `depth` transformer layers, name-keyed."""
    shapes = {"embed.w": (spec.patch_pixels, spec.embed_dim),
              "embed.b": (spec.embed_dim,)}
    params = {name: _init_param(name, shape, seed, dtype)
              for name, shape in shapes.items()}
    for j in range(spec.depth):
        params.update(_init_layer_params(f"enc.layer{j}", spec.embed_dim,
                                         spec.heads, spec.mlp_ratio, seed,
                                         dtype))
    return params


def init_block_head_params(spec, block_id, seed, dtype=np.float32):
    """Bridge (LayerNorm + projection) and local decoder for one block."""
    d, dd = spec.embed_dim, spec.decoder_dim
    shapes = {
        f"block{block_id}.bridge.ln.g": (d,),
        f"block{block_id}.bridge.ln.b": (d,),
        f"block{block_id}.bridge.proj.w": (d, dd),
        f"block{block_id}.bridge.proj.b": (dd,),
        f"block{block_id}.dec.mask_token": (dd,),
        f"block{block_id}.dec.ln.g": (dd,),
        f"block{block_id}.dec.ln.b": (dd,),
        f"block{block_id}.dec.pred.w": (dd, spec.patch_pixels),
        f"block{block_id}.dec.pred.b": (spec.patch_pixels,),
    }
    params = {name: _init_param(name, shape, seed, dtype)
              for name, shape in shapes.items()}
    for j in range(spec.decoder_depth):
        params.update(_init_layer_params(f"block{block_id}.dec.layer{j}", dd,
                                         spec.decoder_heads, spec.mlp_ratio,
                                         seed, dtype))
    return params


# ----- checkpoint migration ----------------------------------------------------

# A split-layout tensor: optional optimizer-state prefix, layer, leaf name.
_SPLIT_QKV = re.compile(r"(opt\.[mvt]\.)?(.+)\.attn\.[qkv]\d+\.([wb])")


def fold_split_qkv(tensors, spec):
    """Checkpoint tensors with split-layout attention folded into `attn.qkv`.

    Each layer's `attn.{q,k,v}{h}.{w,b}` tensors, and their `opt.m.` and
    `opt.v.` moments, are concatenated along the last axis in `attn.qkv`
    column order; their `opt.t.` step counts must all be equal and become
    the fused tensor's.  Encoder layers have `spec.heads` heads, decoder
    layers `spec.decoder_heads`.  A missing or surplus head raises
    ConfigError naming the tensor.  Other tensors pass through unchanged,
    so a checkpoint in the fused layout is returned as it is.
    """
    from .config import ConfigError  # local import avoids a cycle

    out, used = {}, set()
    for name, arr in tensors.items():
        m = _SPLIT_QKV.fullmatch(name)
        if m is None:
            out[name] = arr
            continue
        state, layer, leaf = m.group(1) or "", m.group(2), m.group(3)
        fused = f"{state}{layer}.attn.qkv.{leaf}"
        if fused in out:
            continue
        heads = spec.decoder_heads if ".dec." in layer else spec.heads
        parts = []
        for head in split_qkv_names(layer, heads):
            part = f"{state}{head}.{leaf}"
            if part not in tensors:
                raise ConfigError(f"checkpoint lacks split attention tensor "
                                  f"{part!r} of {fused!r}")
            parts.append(tensors[part])
            used.add(part)
        if state == "opt.t.":
            if any(not np.array_equal(p, parts[0]) for p in parts):
                raise ConfigError(f"step counts of the heads folded into "
                                  f"{fused!r} differ")
            out[fused] = parts[0]
        else:
            out[fused] = np.concatenate(parts, axis=-1)
    surplus = [n for n in tensors if _SPLIT_QKV.fullmatch(n) and n not in used]
    if surplus:
        raise ConfigError(f"checkpoint tensor {surplus[0]!r} is not a head "
                          f"of this model's attention")
    return out


# ----- positions and patches -------------------------------------------------

def sincos_pos_embed(grid_side, dim):
    """Fixed 2D sin-cos position table, [grid_side**2, dim].

    dim/4 geometric frequencies per axis; concatenation order is
    [sin(x), cos(x), sin(y), cos(y)].
    """
    if dim % 4 != 0:
        raise ContractError(f"sincos dim must be divisible by 4, got {dim}")
    quarter = dim // 4
    omega = 1.0 / (10000.0 ** (np.arange(quarter, dtype=np.float64) / quarter))
    coords = np.arange(grid_side, dtype=np.float64)
    ys, xs = np.meshgrid(coords, coords, indexing="ij")
    out = np.empty((grid_side * grid_side, dim), dtype=np.float64)
    for i, axis in enumerate((xs.ravel(), ys.ravel())):
        ang = np.outer(axis, omega)
        out[:, 2 * i * quarter:(2 * i + 1) * quarter] = np.sin(ang)
        out[:, (2 * i + 1) * quarter:(2 * i + 2) * quarter] = np.cos(ang)
    return out


def patchify(images, spec):
    """[batch, C, H, W] -> [batch, N, patch_pixels], row-major patch order."""
    b, c, h, w = images.shape
    if h != spec.image_size or w != spec.image_size or c != spec.channels:
        raise DimensionError(
            f"expected images [*,{spec.channels},{spec.image_size},"
            f"{spec.image_size}], got {images.shape}")
    p, g = spec.patch_size, spec.grid_side
    x = images.reshape(b, c, g, p, g, p)
    x = x.transpose(0, 2, 4, 3, 5, 1)  # b, gy, gx, py, px, c
    return np.ascontiguousarray(x.reshape(b, g * g, p * p * c))


def embed_visible(tape, params, spec, images, kept):
    """Embed only the visible patches `kept` [b, k] of each sample.

    Masking is decided on indices before any embedding, so the masked
    patches never enter the graph; this is algebraically identical to
    embedding everything and gathering the kept rows.
    """
    patches = patchify(images, spec)
    pos = sincos_pos_embed(spec.grid_side, spec.embed_dim).astype(images.dtype)
    vis = patches[np.arange(len(kept))[:, None], kept]
    tok = _linear(tape, tape.leaf(vis), params, "embed")
    return tape.add(tok, tape.leaf(pos[kept]))


# ----- masking ---------------------------------------------------------------

def keep_count(num_patches, ratio):
    """Visible tokens per sample at masking ratio `ratio`: floor(N * (1 - r))."""
    return int(np.floor(num_patches * (1.0 - ratio)))


def mask_indices(num_patches, ratio, seeds):
    """Visible patch ids [len(seeds), k] at masking ratio `ratio`.

    k = keep_count(N, ratio); row i is the first k entries of a stable
    argsort over N uniforms drawn from seeds[i] (ties by index).
    """
    if not 0.0 <= ratio < 1.0:
        raise ContractError(f"masking ratio must be in [0, 1), got {ratio}")
    noise = rng.uniforms(seeds, num_patches)
    return np.argsort(noise, axis=-1, kind="stable")[
        :, :keep_count(num_patches, ratio)]


def patch_mask(kept, num_patches):
    """[b, N] int64 mask of `kept`: 1 on hidden patches, 0 on visible ones."""
    mask = np.ones((len(kept), num_patches), dtype=np.int64)
    np.put_along_axis(mask, kept, 0, axis=-1)
    return mask


# ----- transformer layers ----------------------------------------------------

def _linear(tape, x, params, prefix):
    w = tape.leaf(params[f"{prefix}.w"], name=f"{prefix}.w", requires_grad=True)
    b = tape.leaf(params[f"{prefix}.b"], name=f"{prefix}.b", requires_grad=True)
    return tape.linear(x, w, b)


def _layernorm(tape, x, params, prefix):
    g = tape.leaf(params[f"{prefix}.g"], name=f"{prefix}.g", requires_grad=True)
    b = tape.leaf(params[f"{prefix}.b"], name=f"{prefix}.b", requires_grad=True)
    return tape.layernorm(x, g, b)


def encoder_block_layer(tape, params, prefix, x, heads):
    """Pre-norm transformer layer: x + MHSA(LN(x)), then + MLP(LN(x))."""
    dim = x.shape[-1]
    if dim % heads != 0:
        raise DimensionError(f"width {dim} not divisible by heads {heads}")
    h1 = _layernorm(tape, x, params, f"{prefix}.ln1")
    qkv = _linear(tape, h1, params, f"{prefix}.attn.qkv")
    merged = tape.attention(qkv, heads)
    x2 = tape.add(x, _linear(tape, merged, params, f"{prefix}.attn.out"))
    h2 = _layernorm(tape, x2, params, f"{prefix}.ln2")
    f1 = tape.gelu(_linear(tape, h2, params, f"{prefix}.mlp.fc1"))
    f2 = _linear(tape, f1, params, f"{prefix}.mlp.fc2")
    return tape.add(x2, f2)


def local_decoder_forward(tape, params, spec, block_output, kept, decoder_id):
    """Predict all N patches from one block's visible-token output.

    Applies the block-local LayerNorm + projection bridge, appends learned
    mask tokens for every non-visible patch, unshuffles to original patch
    order, adds the decoder position table, runs the decoder layers, and
    projects to patch pixels.  The shuffled sequence is [visible tokens in
    `kept` order..., mask tokens in ascending patch order...].
    """
    batch, n_vis = block_output.shape[0], block_output.shape[-2]
    if kept.shape[1] != n_vis:
        raise ContractError(
            f"{kept.shape[1]} visible ids for {n_vis} visible tokens")
    n = spec.num_patches
    dd = spec.decoder_dim
    dtype = block_output.dtype
    pfx = f"block{decoder_id}"

    bridged = _layernorm(tape, block_output, params, f"{pfx}.bridge.ln")
    z = _linear(tape, bridged, params, f"{pfx}.bridge.proj")

    mask_token = tape.leaf(params[f"{pfx}.dec.mask_token"],
                           name=f"{pfx}.dec.mask_token", requires_grad=True)
    n_masked = n - n_vis
    if n_masked > 0:
        zeros = tape.leaf(np.zeros((batch, n_masked, dd), dtype=dtype))
        full = tape.concat_rows([z, tape.add(zeros, mask_token)])
    else:
        full = z
    masked = np.nonzero(patch_mask(kept, n))[1].reshape(batch, n_masked)
    # the inverse permutation of the shuffled order
    restore = np.argsort(np.concatenate([kept, masked], axis=1), axis=1)
    ordered = tape.gather_rows(full, restore)
    pos = tape.leaf(sincos_pos_embed(spec.grid_side, dd).astype(dtype))
    x = tape.add(ordered, pos)
    for j in range(spec.decoder_depth):
        x = encoder_block_layer(tape, params, f"{pfx}.dec.layer{j}", x,
                                spec.decoder_heads)
    x = _layernorm(tape, x, params, f"{pfx}.dec.ln")
    return _linear(tape, x, params, f"{pfx}.dec.pred")


# ----- reconstruction loss ----------------------------------------------------

def patch_targets(images, spec):
    """Reconstruction targets: raw patches, per-patch standardized if norm_pix."""
    t = patchify(images, spec)
    if spec.norm_pix:
        mu = t.mean(axis=-1, keepdims=True)
        var = t.var(axis=-1, keepdims=True)
        t = (t - mu) / np.sqrt(var + 1e-6)
    return t


def reconstruction_loss(tape, pred, targets, kept):
    """Masked-patch MSE between predictions and `patch_targets` output."""
    mask = patch_mask(kept, pred.shape[-2]).astype(pred.dtype)
    tgt = targets.astype(pred.dtype, copy=False)
    return tape.mse_masked(pred, tape.leaf(tgt), tape.leaf(mask))
