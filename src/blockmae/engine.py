"""Block-wise training scheduler.

Partitions the encoder into gradient-isolated blocks with local decoders,
applies the incremental masking layer between blocks, and executes the
buffer/free pattern: forward block i, decode and update locally, release
it, record the tokens block i+1 keeps as its boundary, continue.  Block
i's output is held once: block i+1's boundary leaf, recorded after block
i's release, holds the rows block i+1 keeps (block i's array itself when
none is dropped).  Each block builds its own patch targets, which die
with its backward.

`BlockPlan` owns the schedule rules (name, ratio range, one ratio per
block, order) and `block_layers` the block layout.  The end-to-end
baseline is the one-block plan, named "mae", and runs through the same
step body, `blockwise_train_step`, so the two are bitwise comparable
under shared seeds.
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
    """Block count and per-block masking ratios; the one place a schedule
    is checked, each raising ScheduleError.  Only its own rule reads `mode`
    ("mae" only for one block), which stays for perfbench's `plan_of`."""

    num_blocks: int = 4
    mask_schedule: tuple = (0.75, 0.75, 0.75, 0.75)
    mode: str = "blockwise"  # "blockwise" | "mae"

    def __post_init__(self):
        self.mask_schedule = tuple(float(r) for r in self.mask_schedule)
        if self.mode not in ("blockwise", "mae"):
            raise ScheduleError(
                f"mode must be 'blockwise' or 'mae', got {self.mode!r}")
        if self.num_blocks < 1:
            raise ScheduleError(
                f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.mode == "mae" and self.num_blocks > 1:
            raise ScheduleError(
                f"the 'mae' plan has one block, got {self.num_blocks}")
        for r in self.mask_schedule:
            if not 0.0 <= r < 1.0:
                raise ScheduleError(
                    f"mask_schedule ratios must lie in [0, 1), got {r}")
        if len(self.mask_schedule) != self.num_blocks:
            raise ScheduleError(
                f"mask_schedule has {len(self.mask_schedule)} ratios for "
                f"{self.num_blocks} blocks")
        if any(b < a for a, b in zip(self.mask_schedule, self.mask_schedule[1:])):
            raise ScheduleError(
                f"mask_schedule ratios must be non-decreasing, got "
                f"{self.mask_schedule}")


def block_layers(depth, num_blocks):
    """Each block's encoder layer ids: the one owner of the block layout."""
    if depth % num_blocks:
        raise ScheduleError(
            f"depth {depth} is not divisible into {num_blocks} blocks")
    per = depth // num_blocks
    return tuple(tuple(range(i, i + per)) for i in range(0, depth, per))


@dataclass
class BlockwiseModel:
    """Encoder parameters plus per-block bridges/decoders, name-keyed."""

    spec: ModelSpec
    params: dict
    blocks: tuple  # each block's layer ids, from `block_layers`

    @property
    def num_blocks(self):
        return len(self.blocks)


@dataclass
class BlockUnit:
    """One contiguous encoder block with its bridge and local decoder.

    `layer_ids` is its entry of `model.blocks`, from `block_layers`.
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
    blocks = block_layers(spec.depth, num_blocks)
    params = init_encoder_params(spec, seed, dtype)
    for i in range(num_blocks):
        params.update(init_block_head_params(spec, i, seed, dtype))
    return BlockwiseModel(spec=spec, params=params, blocks=blocks)


def partition_encoder(model):
    """One BlockUnit per entry of `model.blocks`."""
    units = [BlockUnit(block_id=i, layer_ids=ids, model=model,
                       param_names=_block_param_names(model.params, i, ids))
             for i, ids in enumerate(model.blocks)]
    seen = set()
    for u in units:
        names = set(u.param_names)
        if names & seen:
            raise IsolationError("block parameter sets overlap")
        seen |= names
    return units


def incremental_drop(tape, out, kept, keep, seed):
    """Block i+1's boundary: the rows of block i's output array `out`
    [b, cur, d] that each sample keeps, and their visible patch ids.

    `kept` [b, cur] holds each sample's visible patch ids in token order.
    Returns (tape.boundary(out), kept) when `keep` equals cur.  Otherwise
    row i keeps the first `keep` entries of rng.permutation(split(seed,
    "sample", i), cur), a subset of its visible tokens without
    replacement, so visibility nests; the boundary holds a copy of those
    rows, and `out` is not kept.
    """
    cur = kept.shape[1]
    if keep > cur:
        raise ScheduleError(
            f"target keep {keep} exceeds current visible {cur} "
            f"(ratios must be non-decreasing)")
    if keep == cur:
        return tape.boundary(out), kept
    take = rng.permutation([rng.split(seed, "sample", i)
                            for i in range(len(kept))], cur)[:, :keep]
    return (tape.boundary(out[np.arange(len(take))[:, None], take]),
            np.take_along_axis(kept, take, axis=-1))


def blockwise_train_step(blocks, images, plan, optimizer, lr, step_seed):
    """One gradient-isolated step over all blocks: forward, local update,
    release, then the next block's boundary of the tokens it keeps.  A
    one-block plan is the end-to-end baseline step."""
    if len(blocks) != plan.num_blocks:
        raise ContractError(
            f"plan expects {plan.num_blocks} blocks, got {len(blocks)}")
    model = blocks[0].model
    spec = model.spec
    params = model.params
    batch = images.shape[0]
    tape = Tape()

    kept = mask_indices(spec.num_patches, plan.mask_schedule[0],
                        [rng.split(step_seed, "mask", i) for i in range(batch)])

    losses = []
    live_trace = []
    with tape.block(0):
        x = embed_visible(tape, params, spec, images, kept)
    for unit in blocks:
        i = unit.block_id
        with tape.block(i):
            for j in unit.layer_ids:
                x = encoder_block_layer(tape, params, f"enc.layer{j}", x,
                                        spec.heads)
            pred = local_decoder_forward(tape, params, spec, x, kept, i)
            loss = reconstruction_loss(tape, pred, patch_targets(images, spec),
                                       kept)
        # Backward drops x's value, so hold block i's output for block
        # i+1's boundary; the last block's output dies with its release.
        out = x.value if i < plan.num_blocks - 1 else None
        table = tape.backward(loss)
        foreign = sorted(set(table) - set(unit.param_names))
        if foreign:
            raise IsolationError(
                f"gradient for {foreign[0]!r} leaked into block {i}")
        optimizer.step(params, table, lr)
        losses.append(float(loss.value))
        tape.release_block_activations(i)
        if out is not None:
            # From here block i+1's boundary alone holds what it reads.
            with tape.block(i + 1):
                x, kept = incremental_drop(
                    tape, out, kept,
                    keep_count(spec.num_patches, plan.mask_schedule[i + 1]),
                    rng.split(step_seed, "drop", i + 1))
            del out
        live_trace.append(tape.meter.live_activation_bytes)
    if tape.meter.live_activation_bytes != 0:
        raise IsolationError(
            f"{tape.meter.live_activation_bytes} activation bytes leaked "
            f"past the step")
    return StepReport(losses=losses, mean_loss=float(np.mean(losses)),
                      peak_activation_bytes=tape.meter.peak_activation_bytes,
                      live_after_release=live_trace)


def mae_train_step(blocks, images, ratio, optimizer, lr, step_seed):
    """End-to-end baseline: one forward, one full backward, one update."""
    return blockwise_train_step(blocks, images,
                                BlockPlan(1, (ratio,), "mae"),
                                optimizer, lr, step_seed)
