"""Nested-backbone extraction and evaluation.

A jointly trained model yields one usable backbone per block boundary:
prefix k is the first k blocks plus that depth's bridge LayerNorm.  Each
prefix is probed by training only a linear classifier on mean-pooled
features; the fixed backbone is shared storage with the full model, so
prefixes nest by construction.

The backbone forward never runs backward, so `forward_tokens` runs the
embedding and the encoder layers on a `Forward` tape, which saves
nothing, and whose layer nodes write both residual sums over the input
they consume: each layer holds one [b, N, d] activation, plus one
chunk's temporaries per thread.  The embedding reads the patch rows as
`patchify` makes them and adds the [N, d] position table to each
sample's rows, so it holds no gathered copy of either.  Only the final
norm records on a `Tape`.  The probe reads its images a chunk at a time,
and the model it reads holds only the prefix's tensors (see
`runner._model_from_checkpoint`).
"""

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from . import rng
from .engine import BlockPlan
from .memory import flop_estimate
from .model import embed_visible, encoder_block_layer
from .optim import AdamW
from .tape import ContractError, Forward, Tape


@dataclass
class BackbonePrefix:
    """First k blocks of a jointly trained encoder, with a final norm.

    Weights are views into the parent model's storage.  parameters() is
    the embedding plus `layer_ids`, the first k blocks' layers from
    `engine.block_layers`; it nests strictly across depths.  The attached
    norm is the per-depth bridge LayerNorm used to read features out.
    """

    model: object
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.model.num_blocks:
            raise ContractError(
                f"prefix depth k={self.k} outside 1..{self.model.num_blocks}")

    @property
    def layer_ids(self):
        return sum(self.model.blocks[:self.k], ())

    def parameters(self):
        prefixes = ("embed.",) + tuple(f"enc.layer{j}." for j in self.layer_ids)
        return sorted(n for n in self.model.params if n.startswith(prefixes))

    def norm_params(self):
        pfx = f"block{self.k - 1}.bridge.ln"
        return (f"{pfx}.g", f"{pfx}.b")

    def param_hash(self):
        h = hashlib.sha256()
        for name in self.parameters() + list(self.norm_params()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.model.params[name]).tobytes())
        return h.hexdigest()


def truncate_backbone(model, k):
    """The k-block prefix of a partitioned model (shared weights)."""
    return BackbonePrefix(model=model, k=k)


def forward_tokens(prefix, images):
    """Norm-applied token features of the prefix over unmasked inputs,
    [b, N, d].

    Tokens stay in original patch order (identity visibility).  The
    embedding and the encoder layers run on one `Forward` tape, through
    the same layer functions as training, so the values are the same as
    on a `Tape`, but nothing is saved for a backward, and each layer
    writes both its residual sums over the array of the input it
    consumes: a layer holds one [b, N, d] activation, plus one chunk's
    temporaries per thread.  The embedding keeps every patch (`kept` None), so it holds
    only `patchify`'s rows and its output: the [N, d] position table is
    added to each sample's rows.  The final norm records on a `Tape`,
    whose meter reads its row statistics, the mean and inverse std of
    each of the b * N rows; it holds the last layer's output and its own,
    and sets the forward's heap peak.
    """
    spec = prefix.model.spec
    params = prefix.model.params
    fwd = Forward()
    x = embed_visible(fwd, params, spec, images)
    for j in prefix.layer_ids:
        x = encoder_block_layer(fwd, params, f"enc.layer{j}", x, spec.heads)
    tape = Tape()
    g, b = prefix.norm_params()
    return tape.layernorm(tape.leaf(x.value), tape.leaf(params[g]),
                          tape.leaf(params[b])).value


def extract_features(prefix, dataset, chunk=128):
    """Mean-pooled, norm-applied features of every image of `dataset`,
    [len(dataset), embed_dim].  Each chunk's images are read as f64 when
    the chunk runs, so only one chunk of them is held."""
    outs = []
    for s in range(0, len(dataset), chunk):
        images = dataset.images(slice(s, s + chunk), dtype=np.float64)
        outs.append(forward_tokens(prefix, images).mean(axis=1))
    return np.concatenate(outs, axis=0)


@dataclass
class ProbeConfig:
    epochs: int = 200
    lr: float = 3e-2
    batch_size: int = 64
    weight_decay: float = 0.0
    val_fraction: float = 0.25
    seed: int = 0


@dataclass
class ProbeResult:
    depth_index: int
    train_accuracy: float
    val_accuracy: float
    epochs: int
    config_hash: str

    def __post_init__(self):
        if not (0.0 <= self.train_accuracy <= 1.0
                and 0.0 <= self.val_accuracy <= 1.0):
            raise ContractError("accuracies must lie in [0, 1]")


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def fit_linear_classifier(feats, labels, num_classes, cfg):
    """Multinomial logistic regression with the package AdamW.

    Gradients of softmax cross-entropy for a linear head are closed form
    (dW = X^T (p - y) / m), so no tape is involved and the fixed features
    stay plain arrays.
    """
    m, d = feats.shape
    onehot = np.zeros((m, num_classes))
    onehot[np.arange(m), labels] = 1.0
    params = {"probe.w": np.zeros((d, num_classes)),
              "probe.b": np.zeros(num_classes)}
    opt = AdamW(weight_decay=cfg.weight_decay)
    order_seed = rng.split(cfg.seed, "probe-order")
    for epoch in range(cfg.epochs):
        perm = rng.permutation(rng.split(order_seed, epoch), m)
        for start in range(0, m, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            x, y = feats[idx], onehot[idx]
            p = _softmax(x @ params["probe.w"] + params["probe.b"])
            delta = (p - y) / len(idx)
            grads = {"probe.w": x.T @ delta, "probe.b": delta.sum(axis=0)}
            opt.step(params, grads, cfg.lr)
    return params


def _accuracy(params, feats, labels):
    pred = np.argmax(feats @ params["probe.w"] + params["probe.b"], axis=-1)
    return float((pred == labels).mean())


def linear_probe(prefix, dataset, cfg=None, num_classes=None):
    """Train a linear classifier on fixed prefix features."""
    if dataset.labels is None:
        raise ContractError("linear probing needs a labeled dataset")
    if len(dataset) < 2:
        raise ContractError(
            f"linear probing needs at least 2 images to split into train "
            f"and validation, got {len(dataset)}")
    cfg = cfg or ProbeConfig()
    labels = dataset.labels.astype(np.int64)
    num_classes = num_classes or int(labels.max()) + 1
    hash_before = prefix.param_hash()

    feats = extract_features(prefix, dataset)
    n_val = max(1, int(len(dataset) * cfg.val_fraction))
    tr_f, va_f = feats[:-n_val], feats[-n_val:]
    tr_y, va_y = labels[:-n_val], labels[-n_val:]

    params = fit_linear_classifier(tr_f, tr_y, num_classes, cfg)
    if prefix.param_hash() != hash_before:
        raise ContractError("probe training mutated the fixed backbone")
    cfg_hash = hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]
    return ProbeResult(depth_index=prefix.k,
                       train_accuracy=_accuracy(params, tr_f, tr_y),
                       val_accuracy=_accuracy(params, va_f, va_y),
                       epochs=cfg.epochs, config_hash=cfg_hash)


def training_cost_saving(depths, plan, spec, include_decoders=True):
    """Joint-training cost as a saving over independent runs per depth.

    cost(joint) / sum(cost(independent at depth_i)) in MAC units from the
    compute model; independent runs are end-to-end baselines at the plan's
    average visible fraction with a single decoder each.
    """
    depths = tuple(depths)
    if any(b <= a for a, b in zip(depths, depths[1:])) or not depths:
        raise ContractError(f"depths must be strictly increasing: {depths}")
    if depths[-1] != spec.depth:
        raise ContractError(
            f"largest depth {depths[-1]} must equal the joint depth "
            f"{spec.depth}")

    rep = flop_estimate(spec, plan)
    joint = rep.encoder_linear_units + rep.encoder_quad_units
    if include_decoders:
        joint += rep.decoder_units

    mean_ratio = 1.0 - float(np.mean(rep.visible_fractions))
    independent = 0.0
    for d in depths:
        sub = dataclasses.replace(spec, depth=d)
        sub_plan = BlockPlan(num_blocks=1, mask_schedule=(mean_ratio,))
        sub_rep = flop_estimate(sub, sub_plan)
        independent += sub_rep.encoder_linear_units + sub_rep.encoder_quad_units
        if include_decoders:
            independent += sub_rep.decoder_units
    return 1.0 - joint / independent
