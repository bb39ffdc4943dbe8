"""Analytic peak-memory and compute estimators, cross-validated against
the measured meters.

The analytic peak enumerates, term by term, the same buffers the tape
charges (see tape.py's per-primitive table), so analytic and measured
peaks agree exactly for any configuration; the published-trend checks
(block-count ratio, depth scaling) are then pure arithmetic.

Compute totals are reported in multiply-accumulate units with the
attention term (quadratic in visible tokens) separated from the linear
projection/MLP term, since masking schedules move the two differently.
Token counts in the compute model are exact fractions of N, not floored,
so schedules with equal average ratios compare as exactly equal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    BlockPlan, block_layers, blockwise_train_step, build_model,
    partition_encoder,
)
from .data import gen_synthetic_dataset
from .model import block_head_shapes, keep_count


class ResourceError(Exception):
    pass


@dataclass
class MemoryReport:
    """One instrumented mode at one configuration."""

    mode: str
    batch: int
    config: str
    analytic_peak_bytes: int
    measured_peak_bytes: int
    ratio_vs_mae: float


@dataclass
class FlopReport:
    """Multiply-accumulate totals for one plan, against a fixed-ratio baseline."""

    schedule: tuple
    visible_fractions: tuple
    encoder_linear_units: float
    encoder_quad_units: float
    decoder_units: float
    baseline_linear_units: float
    baseline_quad_units: float
    baseline_decoder_units: float
    savings_vs_baseline: float


# ----- analytic byte model ------------------------------------------------------

def _layer_bytes(b, n, d, heads, s):
    """Charged bytes of one transformer layer at n tokens, width d.

    Per sample, in units of n*d: the layer input, saved by the attention
    node (1), and the residual sum, saved by the MLP node (1).  A block's
    first layer is priced alike: its input, the embedding's output in
    block 0 and the boundary leaf after it, is charged once.  The row
    statistics: each node's LayerNorm saves a mean and an inverse std per
    row, 2n, and attention a softmax max and sum per row and head,
    2*heads*n.  No LayerNorm output, q|k|v, attention probability, merged
    heads, fc1 output, GELU CDF term or GELU output is saved: backward
    recomputes them.  So no term is quadratic in n, and none grows with
    the MLP's hidden width.
    """
    return s * b * (2 * n * d + (4 + 2 * heads) * n)


def _bridge_bytes(b, n, d, s):
    """The LN + projection node: the block output and its row statistics."""
    return s * b * (n * d + 2 * n)


def _decoder_params(spec):
    """The parameter count of one block's decoder, its bridge aside: the
    `dec.*` entries of the model's shape table."""
    return sum(math.prod(shape)
               for name, shape in block_head_shapes(spec, 0).items()
               if name.startswith("block0.dec."))


def _decoder_bytes(spec, b, n_vis, s):
    """The local decoder and the loss of one block at n_vis visible tokens.

    They are one node, which computes its gradients as it runs and saves
    only those: the bridge output's, [n_vis, dd] per sample, and the
    decoder parameters'.  No activation, nor the loss mask it builds
    from the kept ids, is held, so its bytes grow neither with its depth
    nor with the N patches it decodes.
    """
    return s * (b * n_vis * spec.decoder_dim + _decoder_params(spec))


def _visible_counts(spec, plan):
    return [keep_count(spec.num_patches, r) for r in plan.mask_schedule]


def analytic_peak(spec, plan, batch, dtype_size=4):
    """Closed-form peak activation bytes for one training step.

    The peak is the largest block's live bytes at the n_i tokens it
    keeps: its encoder layers, bridge, local decoder and loss.  Each layer
    prices its own input, a block's first layer too: the embedding's
    output in block 0, after it the boundary of the tokens the block
    keeps of the block before's output.  A block's own output is the
    bridge's saved input until the block is released; the next block's
    boundary is recorded after that release, so no token is counted
    twice.  End-to-end MAE is the one-block case: every layer of one long
    backward.
    """
    s = dtype_size
    b = batch
    d = spec.embed_dim
    return max(
        len(layers) * _layer_bytes(b, n_i, d, spec.heads, s)
        + _bridge_bytes(b, n_i, d, s) + _decoder_bytes(spec, b, n_i, s)
        for layers, n_i in zip(block_layers(spec.depth, plan.num_blocks),
                               _visible_counts(spec, plan)))


# ----- instrumented comparison ----------------------------------------------------

def _config_summary(spec, plan):
    return (f"depth={spec.depth} d={spec.embed_dim} N={spec.num_patches} "
            f"dec={spec.decoder_dim}x{spec.decoder_depth} B={plan.num_blocks} "
            f"schedule={plan.mask_schedule}")


class _NoUpdate:
    """An optimizer that leaves the parameters as they are and keeps no
    state: a metered step reads the meter, not the update."""

    def step(self, params, grads, lr):
        pass


def _metered_step(spec, plan, images, seed, dtype):
    """One step of a fresh model for `plan`, with no update, so no
    optimizer moments are allocated.  The model is freed when this
    returns."""
    model = build_model(spec, plan.num_blocks, seed=seed, dtype=dtype)
    return blockwise_train_step(partition_encoder(model), images, plan,
                                _NoUpdate(), lr=0.0, step_seed=seed)


def compare_peak(spec, plan, batch, seed=0, dtype=np.float32):
    """Run one instrumented step per mode and report measured vs analytic.

    The end-to-end baseline masks at the plan's initial ratio so both
    modes see identical input visibility; its model is freed before the
    plan's is built.  Raises if a plan of two or more blocks fails to come
    in under the baseline.  A one-block plan is the baseline itself: its
    step runs once, and both rows are labelled "mae", at ratio 1.
    """
    dtype = np.dtype(dtype)
    s = dtype.itemsize
    mae_plan = BlockPlan(num_blocks=1, mask_schedule=plan.mask_schedule[:1])
    try:
        images = gen_synthetic_dataset(
            spec.image_size, batch, seed,
            channels=spec.channels).images(dtype=dtype)
        rep_m = _metered_step(spec, mae_plan, images, seed, dtype)
        rep_p = (rep_m if plan.num_blocks == 1
                 else _metered_step(spec, plan, images, seed, dtype))
    except MemoryError as exc:
        raise ResourceError(
            f"step at batch {batch} exceeded memory; analytic estimate "
            f"{analytic_peak(spec, plan, batch, s)} bytes") from exc

    ratio = rep_p.peak_activation_bytes / rep_m.peak_activation_bytes
    rows = [
        MemoryReport(mode="mae", batch=batch, config=_config_summary(spec, mae_plan),
                     analytic_peak_bytes=analytic_peak(spec, mae_plan, batch, s),
                     measured_peak_bytes=rep_m.peak_activation_bytes,
                     ratio_vs_mae=1.0),
        MemoryReport(mode="mae" if plan.num_blocks == 1 else "blockwise",
                     batch=batch,
                     config=_config_summary(spec, plan),
                     analytic_peak_bytes=analytic_peak(spec, plan, batch, s),
                     measured_peak_bytes=rep_p.peak_activation_bytes,
                     ratio_vs_mae=ratio),
    ]
    if plan.num_blocks > 1 and ratio >= 1.0:
        raise ResourceError(
            f"block-wise peak {rep_p.peak_activation_bytes} did not improve "
            f"on the end-to-end peak {rep_m.peak_activation_bytes}")
    return rows


# ----- compute model ----------------------------------------------------------------

def _plan_fractions(plan):
    return tuple(1.0 - r for r in plan.mask_schedule)


def _layer_linear_d2(spec):
    """Per-token linear MACs of one layer in units of width squared: the
    qkv and out projections (3 + 1) and the two MLP matrices (2 * ratio)."""
    return 4 + 2 * spec.mlp_ratio


def _encoder_units(spec, blocks, fractions):
    """(linear, quadratic) MAC totals over the whole encoder."""
    n, d = spec.num_patches, spec.embed_dim
    pairs = [(len(ids), f) for ids, f in zip(blocks, fractions)]
    linear = sum(k * f * n * _layer_linear_d2(spec) * d * d for k, f in pairs)
    quad = sum(k * 2.0 * (f * n) ** 2 * d for k, f in pairs)
    return linear, quad


def _decoder_units(spec, num_decoders, fractions):
    """Bridge + decoder + head MACs; the decoder always sees all N tokens."""
    n, d, dd = spec.num_patches, spec.embed_dim, spec.decoder_dim
    total = 0.0
    for f in fractions[:num_decoders]:
        total += f * n * d * dd                       # bridge projection
        total += spec.decoder_depth * (n * _layer_linear_d2(spec) * dd * dd
                                       + 2.0 * n * n * dd)
        total += n * dd * spec.patch_pixels           # prediction head
    return total


def flop_estimate(spec, plan, baseline_ratio=0.75):
    """MAC totals for the plan against a fixed-ratio single-decoder baseline.

    Forward MACs only: neither backward nor what backward recomputes is
    counted: the encoder MLP node's fc1 product twice per group (once to
    replay the GELU output and its CDF term, once more over the GELU
    output once dw2's partial is taken), the encoder attention node's
    qkv, score and probability-value products, and the decoder node's qkv
    and fc1 products, which its backward makes again rather than keep (it
    keeps the probabilities, GELU outputs and CDF terms)."""
    fractions = _plan_fractions(plan)
    blocks = block_layers(spec.depth, plan.num_blocks)
    linear, quad = _encoder_units(spec, blocks, fractions)
    dec = _decoder_units(spec, plan.num_blocks, fractions)

    base_frac = (1.0 - baseline_ratio,) * plan.num_blocks
    b_linear, b_quad = _encoder_units(spec, blocks, base_frac)
    b_dec = _decoder_units(spec, 1, base_frac)
    return FlopReport(
        schedule=plan.mask_schedule,
        visible_fractions=fractions,
        encoder_linear_units=linear,
        encoder_quad_units=quad,
        decoder_units=dec,
        baseline_linear_units=b_linear,
        baseline_quad_units=b_quad,
        baseline_decoder_units=b_dec,
        savings_vs_baseline=1.0 - linear / b_linear,
    )
