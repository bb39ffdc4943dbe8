"""AdamW with decoupled weight decay, plus the lr scaling rule and the
warmup + cosine schedule."""

import math

import numpy as np

from .tape import NumericError


def scale_lr(base_lr, batch_size):
    """Linear scaling rule: lr = base_lr * batch_size / 256."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return base_lr * batch_size / 256.0


def lr_at_step(step, steps_per_epoch, config):
    """Linear warmup from 0 to peak, then half-cosine decay to 0.

    The peak is the batch-scaled lr; steps past the schedule end clamp to 0.
    """
    peak = scale_lr(config.base_lr, config.batch_size)
    warm = config.warmup_epochs * steps_per_epoch
    total = config.total_epochs * steps_per_epoch
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if step < warm:
        return peak * step / warm
    if step >= total:
        return 0.0
    span = total - warm
    return peak * 0.5 * (1.0 + math.cos(math.pi * (step - warm) / span))


class AdamW:
    """Decoupled-weight-decay Adam over a name-keyed parameter dict.

    theta <- theta - lr * (mhat / (sqrt(vhat) + eps) + wd * theta)

    Moments are kept per parameter name, so disjoint parameter groups
    (e.g. per-block updates) maintain fully independent states.
    """

    def __init__(self, beta1=0.9, beta2=0.95, weight_decay=0.05, eps=1e-8):
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ValueError(f"betas must lie in (0, 1): {beta1}, {beta2}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.eps = eps
        self.state = {}  # name -> {"t": int, "m": array, "v": array}

    def step(self, params, grads, lr):
        """Update every parameter that has a gradient entry, in place.

        All gradients are checked before any parameter or moment changes,
        so a rejected step leaves parameters and state untouched.
        """
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
            p = params[name]
            if g.shape != p.shape:
                raise ValueError(
                    f"gradient shape {g.shape} != param shape {p.shape} "
                    f"for {name!r}")
        for name, g in grads.items():
            p = params[name]
            st = self.state.get(name)
            if st is None:
                st = {"t": 0, "m": np.zeros_like(p), "v": np.zeros_like(p)}
                self.state[name] = st
            st["t"] += 1
            t = st["t"]
            st["m"] *= self.beta1
            st["m"] += (1.0 - self.beta1) * g
            st["v"] *= self.beta2
            st["v"] += (1.0 - self.beta2) * g * g
            mhat = st["m"] / (1.0 - self.beta1 ** t)
            vhat = st["v"] / (1.0 - self.beta2 ** t)
            p -= (lr * (mhat / (np.sqrt(vhat) + self.eps)
                        + self.weight_decay * p)).astype(p.dtype, copy=False)

    def state_tensors(self):
        """Flatten optimizer state into name-keyed arrays for checkpoints."""
        out = {}
        for name, st in self.state.items():
            out[f"opt.m.{name}"] = st["m"]
            out[f"opt.v.{name}"] = st["v"]
            out[f"opt.t.{name}"] = np.array([st["t"]], dtype=np.float64)
        return out

    def load_state_tensors(self, tensors, dtype):
        """Restore the state `state_tensors` flattened, each moment copied
        as `dtype`, the parameters' dtype, whatever dtype it was saved in."""
        self.state = {}
        for key, arr in tensors.items():
            if not key.startswith("opt.m."):
                continue
            name = key[len("opt.m."):]
            self.state[name] = {
                "t": int(tensors[f"opt.t.{name}"][0]),
                "m": arr.astype(dtype),
                "v": tensors[f"opt.v.{name}"].astype(dtype),
            }
