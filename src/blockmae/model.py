"""Toy-scale ViT masked-autoencoder components.

MAE masks drawn for the whole batch at once, an embedding of the
visible patches only (fixed 2D sin-cos positions), pre-norm transformer
encoder layers, lightweight decoders with learned mask tokens, and the
masked-patch reconstruction loss.  All forward paths are expressed in
tape primitives so gradients, release points, and byte accounting come
for free.  No function here tags nodes with a block: the caller's
`Tape.block` scope does.

A step's visibility is one int64 array `kept` [batch, k]: each sample's
visible patch ids in token order.  The embedding's position rows and the
decoder's visible rows are picked by it inside their tape nodes; the
loss mask is the one array derived from it, where the loss reads it.

Attention uses the usual head-batched layout: one `attn.qkv` projection
of width 3d, whose columns are ordered (q|k|v, head, dh), runs every head
in one batched product, and the heads merge back to [b, n, d] for the
`attn.out` projection.  An encoder layer is two tape nodes: LN1, the
qkv projection, attention, the out projection and the first residual
sum are one (`Tape.layernorm_attention`), and LN2, fc1, GELU, fc2 and
the second residual sum the other (`Tape.layernorm_mlp`).  A decoder and
its loss are one node (`Tape.decoder_loss`): from the bridge output it
puts the visible tokens among mask tokens in patch order, runs every
decoder layer, the final norm, the prediction head and the masked MSE,
and computes its gradients as it runs, so it holds none of its
activations: it saves the bridge output's and the decoder parameters'
gradients.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .tape import ContractError, DimensionError

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
        # the sin-cos position tables split each width into four parts
        for name in ("embed_dim", "decoder_dim"):
            if getattr(self, name) % 4 != 0:
                raise ContractError(
                    f"{name} {getattr(self, name)} not divisible by 4")
        if self.decoder_dim % self.decoder_heads != 0:
            raise ContractError(
                f"decoder_dim {self.decoder_dim} not divisible by its "
                f"{self.decoder_heads} decoder heads")

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


def embed_visible(tape, params, spec, images, kept=None):
    """Embed only the visible patches `kept` [b, k] of each sample.

    Masking is decided on indices before any embedding, so the masked
    patches never enter the graph; this is algebraically identical to
    embedding everything and gathering the kept rows.  The linear node
    adds the rows of the [N, d] position table that `kept` picks.  `kept`
    None means every patch, in patch order: the product then reads
    `patchify`'s rows as they are, and the whole table is added to each
    sample's rows, the same values, bit for bit, as the ids `arange(N)`
    give.
    """
    patches = patchify(images, spec)
    if kept is not None:
        patches = patches[np.arange(len(kept))[:, None], kept]
    x = tape.leaf(patches)
    pos = tape.leaf(
        sincos_pos_embed(spec.grid_side, spec.embed_dim).astype(images.dtype))
    return tape.linear(x, *_sublayer_params(tape, params, "embed", ("w", "b")),
                       pos, kept)


# ----- masking ---------------------------------------------------------------

def keep_count(num_patches, ratio):
    """Visible tokens per sample at masking ratio `ratio`: floor(N * (1 - r))."""
    return int(np.floor(num_patches * (1.0 - ratio)))


def mask_indices(num_patches, ratio, seeds):
    """Visible patch ids [len(seeds), k] at masking ratio `ratio`.

    k = keep_count(N, ratio); row i is the first k entries of
    rng.permutation(seeds[i], N).
    """
    if not 0.0 <= ratio < 1.0:
        raise ContractError(f"masking ratio must be in [0, 1), got {ratio}")
    return rng.permutation(seeds, num_patches)[
        :, :keep_count(num_patches, ratio)]


def patch_mask(kept, num_patches):
    """[b, N] int64 mask of `kept`: 1 on hidden patches, 0 on visible ones."""
    mask = np.ones((len(kept), num_patches), dtype=np.int64)
    np.put_along_axis(mask, kept, 0, axis=-1)
    return mask


# ----- transformer layers ----------------------------------------------------

def _param(tape, params, name):
    return tape.leaf(params[name], name=name, requires_grad=True)


_ATTENTION = ("ln1.g", "ln1.b", "attn.qkv.w", "attn.qkv.b", "attn.out.w",
              "attn.out.b")
_MLP = ("ln2.g", "ln2.b", "mlp.fc1.w", "mlp.fc1.b", "mlp.fc2.w", "mlp.fc2.b")


def _sublayer_params(tape, params, prefix, names):
    return [_param(tape, params, f"{prefix}.{name}") for name in names]


def encoder_block_layer(tape, params, prefix, x, heads):
    """Pre-norm transformer layer: x + MHSA(LN(x)), then + MLP(LN(x))."""
    x2 = tape.layernorm_attention(
        x, *_sublayer_params(tape, params, prefix, _ATTENTION), heads)
    return tape.layernorm_mlp(
        x2, *_sublayer_params(tape, params, prefix, _MLP))


def local_decoder_forward(tape, params, block_output, decoder_id):
    """The block-local LayerNorm + projection bridge of one block's
    visible-token output [b, k, d]: the decoder's visible tokens
    [b, k, decoder_dim], which `reconstruction_loss` decodes."""
    return tape.layernorm_linear(block_output, *_sublayer_params(
        tape, params, f"block{decoder_id}.bridge",
        ("ln.g", "ln.b", "proj.w", "proj.b")))


# ----- reconstruction loss ----------------------------------------------------

def patch_targets(images, spec):
    """Reconstruction targets: raw patches, per-patch standardized if norm_pix."""
    t = patchify(images, spec)
    if spec.norm_pix:
        mu = t.mean(axis=-1, keepdims=True)
        var = t.var(axis=-1, keepdims=True)
        t = (t - mu) / np.sqrt(var + 1e-6)
    return t


def reconstruction_loss(tape, params, spec, z, targets, kept, decoder_id):
    """Masked-patch MSE between decoder `decoder_id`'s predictions and
    `patch_targets` output, from z, the bridged visible tokens
    (`local_decoder_forward`), in one node (`Tape.decoder_loss`).

    The decoder puts token j of sample i at patch kept[i, j] and a learned
    mask token at every other patch, adds the decoder position table and
    runs its layers, the final norm and the projection to patch pixels
    over all N patches; the loss averages the hidden patches' errors.
    """
    pfx = f"block{decoder_id}.dec"
    mask = patch_mask(kept, spec.num_patches).astype(z.dtype)
    pos = tape.leaf(sincos_pos_embed(spec.grid_side, spec.decoder_dim)
                    .astype(z.dtype))
    # Leaves in the order of the parameters' first use: the gradient table,
    # and so the optimizer's state and its checkpoint, follow it.
    fill = _param(tape, params, f"{pfx}.mask_token")
    layers = [_sublayer_params(tape, params, f"{pfx}.layer{j}",
                               _ATTENTION + _MLP)
              for j in range(spec.decoder_depth)]
    return tape.decoder_loss(
        z, fill, pos, kept, layers,
        *_sublayer_params(tape, params, pfx,
                          ("ln.g", "ln.b", "pred.w", "pred.b")),
        tape.leaf(targets), tape.leaf(mask), spec.decoder_heads)
