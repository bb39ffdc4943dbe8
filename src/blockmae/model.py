"""Toy-scale ViT masked-autoencoder components.

Patch embedding, fixed 2D sin-cos positions, MAE-style random masking with
restore permutations, pre-norm transformer encoder layers, lightweight
decoders with learned mask tokens, and the masked-patch reconstruction
loss.  All forward paths are expressed in tape primitives so gradients,
release points, and byte accounting come for free.  No function here
tags nodes with a block: the caller's `Tape.block` scope does.

Attention is computed with per-head projection matrices and a rank-3
layout throughout: heads are merged by transposing each context to
[dh, n], concatenating along rows to [d, n], and transposing back, which
is algebraically identical to the usual reshape-based multi-head layout.
"""

from dataclasses import dataclass, field

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
    def head_dim(self):
        return self.embed_dim // self.heads

    @property
    def decoder_heads(self):
        return max(1, self.decoder_dim // DECODER_HEAD_DIM)


@dataclass
class MaskState:
    """Per-sample visibility bookkeeping threaded through masking stages.

    kept_ids are the original patch indices currently visible, in token
    order.  restore_perm maps original patch position -> row index in the
    decoder's shuffled sequence [visible tokens..., masked tokens...],
    where masked positions are listed in ascending original order.
    """

    kept_ids: np.ndarray
    mask: np.ndarray
    restore_perm: np.ndarray = field(default=None)

    def __post_init__(self):
        self.kept_ids = np.asarray(self.kept_ids, dtype=np.int64)
        self.mask = np.asarray(self.mask)
        if self.restore_perm is None:
            self.restore_perm = self._build_restore_perm()
        n = self.mask.shape[0]
        if self.kept_ids.size + int(self.mask.sum()) != n:
            raise ContractError("kept_ids and mask do not partition the patches")
        if not np.array_equal(np.sort(np.where(self.mask == 0)[0]),
                              np.sort(self.kept_ids)):
            raise ContractError("kept_ids must be exactly the unmasked entries")

    def _build_restore_perm(self):
        masked_ids = np.where(self.mask == 1)[0]
        order = np.concatenate([self.kept_ids, masked_ids])
        return np.argsort(order, kind="stable").astype(np.int64)

    @property
    def num_patches(self):
        return self.mask.shape[0]

    @property
    def num_visible(self):
        return self.kept_ids.size


@dataclass
class PatchBatch:
    """Visible tokens plus one MaskState per sample."""

    tokens: object  # tape Node, [batch, n_visible, dim]
    states: list

    def __post_init__(self):
        n_vis = self.tokens.shape[-2]
        if any(s.num_visible != n_vis for s in self.states):
            raise ContractError("token count disagrees with mask states")


# ----- deterministic initialization ----------------------------------------

def _xavier_uniform(seed, fan_in, fan_out, shape, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniforms(seed, int(np.prod(shape))).reshape(shape)
    return ((u * 2.0 - 1.0) * limit).astype(dtype)


def _layer_param_shapes(spec, dim, heads, mlp_ratio):
    dh = dim // heads
    shapes = {"ln1.g": (dim,), "ln1.b": (dim,),
              "ln2.g": (dim,), "ln2.b": (dim,)}
    for h in range(heads):
        for proj in ("q", "k", "v"):
            shapes[f"attn.{proj}{h}.w"] = (dim, dh)
            shapes[f"attn.{proj}{h}.b"] = (dh,)
    shapes["attn.out.w"] = (dim, dim)
    shapes["attn.out.b"] = (dim,)
    hidden = dim * mlp_ratio
    shapes["mlp.fc1.w"] = (dim, hidden)
    shapes["mlp.fc1.b"] = (hidden,)
    shapes["mlp.fc2.w"] = (hidden, dim)
    shapes["mlp.fc2.b"] = (dim,)
    return shapes


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
    params = {}
    shapes = {"embed.w": (spec.patch_pixels, spec.embed_dim),
              "embed.b": (spec.embed_dim,)}
    for j in range(spec.depth):
        for k, s in _layer_param_shapes(spec, spec.embed_dim, spec.heads,
                                        spec.mlp_ratio).items():
            shapes[f"enc.layer{j}.{k}"] = s
    for name, shape in shapes.items():
        params[name] = _init_param(name, shape, seed, dtype)
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
    for j in range(spec.decoder_depth):
        for k, s in _layer_param_shapes(spec, dd, spec.decoder_heads,
                                        spec.mlp_ratio).items():
            shapes[f"block{block_id}.dec.layer{j}.{k}"] = s
    return {name: _init_param(name, shape, seed, dtype)
            for name, shape in shapes.items()}


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


def unpatchify(patches, spec):
    """Inverse of patchify."""
    b, n, _ = patches.shape
    p, g, c = spec.patch_size, spec.grid_side, spec.channels
    x = patches.reshape(b, g, g, p, p, c)
    x = x.transpose(0, 5, 1, 3, 2, 4)
    return np.ascontiguousarray(x.reshape(b, c, g * p, g * p))


def patch_embed(tape, params, spec, images):
    """Embed every patch of a full image batch: tokens plus fixed positions."""
    patches = tape.leaf(patchify(images, spec))
    pos = tape.leaf(sincos_pos_embed(spec.grid_side, spec.embed_dim)
                    .astype(images.dtype))
    w = tape.leaf(params["embed.w"], name="embed.w", requires_grad=True)
    b = tape.leaf(params["embed.b"], name="embed.b", requires_grad=True)
    tok = tape.add(tape.matmul(patches, w), b)
    return tape.add(tok, pos)


def embed_visible(tape, params, spec, images, states):
    """Embed only the visible patches of each sample.

    Masking is decided on indices before any embedding, so the masked
    patches never enter the graph; this is algebraically identical to
    embedding everything and gathering the kept rows.
    """
    patches = patchify(images, spec)
    pos = sincos_pos_embed(spec.grid_side, spec.embed_dim).astype(images.dtype)
    vis = np.stack([patches[i][s.kept_ids] for i, s in enumerate(states)])
    vis_pos = np.stack([pos[s.kept_ids] for s in states])
    w = tape.leaf(params["embed.w"], name="embed.w", requires_grad=True)
    b = tape.leaf(params["embed.b"], name="embed.b", requires_grad=True)
    tok = tape.add(tape.matmul(tape.leaf(vis), w), b)
    return tape.add(tok, tape.leaf(vis_pos))


# ----- masking ---------------------------------------------------------------

def mask_indices(num_patches, ratio, seed):
    """One sample's MaskState at masking ratio `ratio`.

    len_keep = floor(N * (1 - ratio)); the kept set is the first len_keep
    entries of a stable argsort over N seeded uniforms (ties by index).
    """
    if not 0.0 <= ratio < 1.0:
        raise ContractError(f"masking ratio must be in [0, 1), got {ratio}")
    len_keep = int(np.floor(num_patches * (1.0 - ratio)))
    noise = rng.uniforms(seed, num_patches)
    shuffle = np.argsort(noise, kind="stable")
    kept = shuffle[:len_keep]
    mask = np.ones(num_patches, dtype=np.int64)
    mask[kept] = 0
    return MaskState(kept_ids=kept, mask=mask)


def random_mask(tape, tokens, ratio, seed):
    """MAE-style random masking of an embedded token batch.

    tokens: [batch, N, dim] node.  Returns a PatchBatch whose tokens are
    the gathered visible rows, in kept order.
    """
    batch, n = tokens.shape[0], tokens.shape[1]
    states = [mask_indices(n, ratio, rng.split(seed, "sample", i))
              for i in range(batch)]
    ids = np.stack([s.kept_ids for s in states])
    vis = tape.gather_rows(tokens, ids)
    return PatchBatch(tokens=vis, states=states)


# ----- transformer layers ----------------------------------------------------

def _linear(tape, x, params, prefix):
    w = tape.leaf(params[f"{prefix}.w"], name=f"{prefix}.w", requires_grad=True)
    b = tape.leaf(params[f"{prefix}.b"], name=f"{prefix}.b", requires_grad=True)
    return tape.add(tape.matmul(x, w), b)


def _layernorm(tape, x, params, prefix):
    g = tape.leaf(params[f"{prefix}.g"], name=f"{prefix}.g", requires_grad=True)
    b = tape.leaf(params[f"{prefix}.b"], name=f"{prefix}.b", requires_grad=True)
    return tape.layernorm(x, g, b)


def encoder_block_layer(tape, params, prefix, x, heads):
    """Pre-norm transformer layer: x + MHSA(LN(x)), then + MLP(LN(x))."""
    dim = x.shape[-1]
    if dim % heads != 0:
        raise DimensionError(f"width {dim} not divisible by heads {heads}")
    dh = dim // heads
    h1 = _layernorm(tape, x, params, f"{prefix}.ln1")
    ctxs = []
    for h in range(heads):
        q = _linear(tape, h1, params, f"{prefix}.attn.q{h}")
        k = _linear(tape, h1, params, f"{prefix}.attn.k{h}")
        v = _linear(tape, h1, params, f"{prefix}.attn.v{h}")
        scores = tape.matmul(q, tape.transpose(k))
        attn = tape.softmax(tape.scale(scores, 1.0 / np.sqrt(dh)))
        ctx = tape.matmul(attn, v)
        ctxs.append(tape.transpose(ctx))  # [*, dh, n]
    merged = tape.transpose(tape.concat_rows(ctxs))
    x2 = tape.add(x, _linear(tape, merged, params, f"{prefix}.attn.out"))
    h2 = _layernorm(tape, x2, params, f"{prefix}.ln2")
    f1 = tape.gelu(_linear(tape, h2, params, f"{prefix}.mlp.fc1"))
    f2 = _linear(tape, f1, params, f"{prefix}.mlp.fc2")
    return tape.add(x2, f2)


def local_decoder_forward(tape, params, spec, block_output, states, decoder_id):
    """Predict all N patches from one block's visible-token output.

    Applies the block-local LayerNorm + projection bridge, appends learned
    mask tokens for every non-visible patch, unshuffles to original patch
    order, adds the decoder position table, runs the decoder layers, and
    projects to patch pixels.
    """
    n_vis = block_output.shape[-2]
    if any(s.num_visible != n_vis for s in states):
        raise ContractError("mask state inconsistent with visible token count")
    batch = block_output.shape[0]
    n = states[0].num_patches
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
    restore = np.stack([s.restore_perm for s in states])
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


def reconstruction_loss(tape, pred, images_or_targets, spec, states,
                        targets_are_patches=False):
    """Masked-patch MSE between predictions and (standardized) targets."""
    if targets_are_patches:
        tgt = images_or_targets
    else:
        tgt = patch_targets(images_or_targets, spec)
    mask = np.stack([s.mask for s in states]).astype(pred.dtype)
    return tape.mse_masked(pred, tape.leaf(tgt.astype(pred.dtype)),
                           tape.leaf(mask))
