"""Block-wise training scheduler.

Partitions the encoder into gradient-isolated blocks with local decoders,
applies the incremental masking layer between blocks, and executes the
buffer/free pattern: forward block i, decode and update locally, release
everything except the boundary activation, drop extra tokens, continue.
The end-to-end baseline step runs through the same code path with a
single block, so the two are bitwise comparable under shared seeds.
"""

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .model import (
    ModelSpec, embed_visible, encoder_block_layer, init_block_head_params,
    init_encoder_params, keep_count, local_decoder_forward, mask_indices,
    patch_targets, reconstruction_loss,
)
from .tape import ContractError, Tape


class ScheduleError(Exception):
    pass


class IsolationError(Exception):
    """A gradient crossed a block boundary; must be impossible."""


@dataclass
class BlockPlan:
    """Block count, per-block masking ratios, and training mode."""

    num_blocks: int = 4
    mask_schedule: tuple = (0.75, 0.75, 0.75, 0.75)
    mode: str = "blockwise"  # "blockwise" | "mae"

    def __post_init__(self):
        self.mask_schedule = tuple(float(r) for r in self.mask_schedule)
        if self.mode not in ("blockwise", "mae"):
            raise ContractError(f"plan mode must be blockwise or mae: {self.mode!r}")
        if self.mode == "mae":
            # a single global ratio applies; block count is ignored
            self.num_blocks = 1
            self.mask_schedule = self.mask_schedule[:1]
        if len(self.mask_schedule) != self.num_blocks:
            raise ScheduleError(
                f"schedule length {len(self.mask_schedule)} != "
                f"num_blocks {self.num_blocks}")
        if any(not 0.0 <= r < 1.0 for r in self.mask_schedule):
            raise ScheduleError(f"ratios must lie in [0, 1): {self.mask_schedule}")
        if any(b < a for a, b in zip(self.mask_schedule, self.mask_schedule[1:])):
            raise ScheduleError(
                f"masking ratios must be non-decreasing: {self.mask_schedule}")


@dataclass
class BlockwiseModel:
    """Encoder parameters plus per-block bridges/decoders, name-keyed."""

    spec: ModelSpec
    params: dict
    num_blocks: int

    @property
    def layers_per_block(self):
        return self.spec.depth // self.num_blocks


@dataclass
class BlockUnit:
    """One contiguous encoder block with its bridge and local decoder.

    `param_names` is the sorted tuple of parameters the block owns, fixed
    when the encoder is partitioned.  It is the one place that decides
    ownership: a step raises IsolationError when a block's backward yields
    a gradient for any other parameter.
    """

    block_id: int
    layer_ids: tuple
    model: BlockwiseModel
    param_names: tuple


def _block_param_names(params, block_id, layer_ids):
    prefixes = (f"block{block_id}.",) + tuple(f"enc.layer{j}." for j in layer_ids)
    if block_id == 0:
        prefixes += ("embed.",)
    return tuple(sorted(n for n in params if n.startswith(prefixes)))


@dataclass
class StepReport:
    """Per-block losses and the step's memory footprint."""

    losses: list
    mean_loss: float
    peak_activation_bytes: int
    live_after_release: list = field(default_factory=list)


def build_model(spec, num_blocks, seed, dtype=np.float32):
    """Initialize encoder + per-block heads; partition-ready."""
    if spec.depth % num_blocks != 0:
        raise ContractError(
            f"depth {spec.depth} is not divisible into {num_blocks} blocks")
    params = init_encoder_params(spec, seed, dtype)
    for i in range(num_blocks):
        params.update(init_block_head_params(spec, i, seed, dtype))
    return BlockwiseModel(spec=spec, params=params, num_blocks=num_blocks)


def partition_encoder(model, num_blocks):
    """Split the encoder into contiguous, disjoint, order-preserving blocks."""
    depth = model.spec.depth
    if depth % num_blocks != 0:
        raise ContractError(
            f"depth {depth} is not divisible into {num_blocks} blocks")
    if model.num_blocks != num_blocks:
        raise ContractError(
            f"model was built for {model.num_blocks} blocks, asked for "
            f"{num_blocks}")
    per = depth // num_blocks
    units = []
    for i in range(num_blocks):
        layer_ids = tuple(range(i * per, (i + 1) * per))
        units.append(BlockUnit(
            block_id=i, layer_ids=layer_ids, model=model,
            param_names=_block_param_names(model.params, i, layer_ids)))
    seen = set()
    for u in units:
        names = set(u.param_names)
        if names & seen:
            raise IsolationError("block parameter sets overlap")
        seen |= names
    return units


def incremental_drop(tape, tokens, kept, keep, seed):
    """Uniformly drop each sample's visible tokens down to `keep`.

    `kept` [b, cur] holds each sample's visible patch ids in token order.
    Returns (tokens, kept) unchanged when `keep` equals cur.  Otherwise
    row i keeps the first `keep` entries of a stable argsort of cur
    uniforms drawn from split(seed, "sample", i), a subset of its visible
    tokens without replacement, so visibility nests.
    """
    cur = kept.shape[1]
    if keep > cur:
        raise ScheduleError(
            f"target keep {keep} exceeds current visible {cur} "
            f"(ratios must be non-decreasing)")
    if keep == cur:
        return tokens, kept
    noise = rng.uniforms([rng.split(seed, "sample", i)
                          for i in range(len(kept))], cur)
    take = np.argsort(noise, axis=-1, kind="stable")[:, :keep]
    return (tape.gather_rows(tokens, take),
            np.take_along_axis(kept, take, axis=-1))


def _run_step(blocks, images, plan, optimizer, lr, step_seed):
    """Shared forward/backward/release schedule for both training modes."""
    model = blocks[0].model
    spec = model.spec
    params = model.params
    num_blocks = len(blocks)
    batch = images.shape[0]
    tape = Tape()

    kept = mask_indices(spec.num_patches, plan.mask_schedule[0],
                        [rng.split(step_seed, "mask", i) for i in range(batch)])
    targets = patch_targets(images, spec)

    losses = []
    live_trace = []
    prev_boundary = None
    for unit in blocks:
        i = unit.block_id
        with tape.block(i):
            if i == 0:
                x = embed_visible(tape, params, spec, images, kept)
            else:
                x, kept = incremental_drop(
                    tape, prev_boundary, kept,
                    keep_count(spec.num_patches, plan.mask_schedule[i]),
                    rng.split(step_seed, "drop", i))
            for j in unit.layer_ids:
                x = encoder_block_layer(tape, params, f"enc.layer{j}", x,
                                        spec.heads)
            xb = tape.boundary(x) if i < num_blocks - 1 else None
            pred = local_decoder_forward(tape, params, spec, x, kept, i)
            loss = reconstruction_loss(tape, pred, targets, kept)
        table = tape.backward(loss)
        foreign = sorted(set(table) - set(unit.param_names))
        if foreign:
            raise IsolationError(
                f"gradient for {foreign[0]!r} leaked into block {i}")
        optimizer.step(params, table, lr)
        losses.append(float(loss.value))
        tape.release_block_activations(i, keep=xb)
        if prev_boundary is not None:
            tape.dispose(prev_boundary)
        prev_boundary = xb
        live_trace.append(tape.meter.live_activation_bytes)
    if tape.meter.live_activation_bytes != 0:
        raise IsolationError(
            f"{tape.meter.live_activation_bytes} activation bytes leaked "
            f"past the step")
    return StepReport(losses=losses, mean_loss=float(np.mean(losses)),
                      peak_activation_bytes=tape.meter.peak_activation_bytes,
                      live_after_release=live_trace)


def blockwise_train_step(blocks, images, plan, optimizer, lr, step_seed):
    """One gradient-isolated step over all blocks (forward, local update,
    release, drop)."""
    if plan.mode != "blockwise":
        raise ContractError("blockwise_train_step needs a blockwise plan")
    if len(blocks) != plan.num_blocks:
        raise ContractError(
            f"plan expects {plan.num_blocks} blocks, got {len(blocks)}")
    return _run_step(blocks, images, plan, optimizer, lr, step_seed)


def mae_train_step(blocks, images, ratio, optimizer, lr, step_seed):
    """End-to-end baseline: one forward, one full backward, one update."""
    if len(blocks) != 1:
        raise ContractError("the end-to-end baseline uses a single block")
    plan = BlockPlan(num_blocks=1, mask_schedule=(ratio,), mode="mae")
    return _run_step(blocks, images, plan, optimizer, lr, step_seed)
