"""Run configuration: typed key=value files, training constants, presets.

The config file format is UTF-8 ``key = value`` lines ('#' comments and
blank lines allowed).  Unknown keys are rejected with the full list of
valid keys, so typos fail fast instead of silently using defaults.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import ModelSpec, keep_count


class ConfigError(Exception):
    pass


@dataclass
class TrainConfig:
    """Optimizer and schedule constants for one run."""

    base_lr: float = 2e-2          # per-256 lr, desk-scale default
    batch_size: int = 64
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.05
    warmup_epochs: int = 5
    total_epochs: int = 50
    seed: int = 0
    mode: str = "blockwise"        # "blockwise" | "mae"
    num_blocks: int = 4
    mask_schedule: tuple = (0.75, 0.75, 0.75, 0.75)
    dataset: str = "synthetic"     # "synthetic" or a .bimd file path
    dataset_size: int = 2048
    num_classes: int = 4
    dtype: str = "f32"

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in (0, 1): {self.beta1}, {self.beta2}")
        if self.total_epochs < 1:
            raise ConfigError(
                f"total_epochs must be >= 1, got {self.total_epochs}")
        if self.warmup_epochs > self.total_epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} exceeds total_epochs "
                f"{self.total_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.dataset_size < 1:
            raise ConfigError(f"dataset_size must be >= 1, got {self.dataset_size}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.warmup_epochs < 0:
            raise ConfigError(
                f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if not 0 <= self.base_lr < np.inf:
            raise ConfigError(
                f"base_lr must be >= 0 and finite, got {self.base_lr}")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError(
                f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.num_blocks < 1:
            raise ConfigError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.mode not in ("blockwise", "mae"):
            raise ConfigError(f"mode must be 'blockwise' or 'mae', got {self.mode!r}")
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"dtype must be f32 or f64, got {self.dtype!r}")
        self.mask_schedule = tuple(float(r) for r in self.mask_schedule)

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "f32" else np.float64


@dataclass
class RunConfig:
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        t, n = self.train, self.model.num_patches
        for r in t.mask_schedule:
            if not 0.0 <= r < 1.0:
                raise ConfigError(
                    f"mask_schedule ratios must lie in [0, 1), got {r}")
            if keep_count(n, r) < 1:
                raise ConfigError(
                    f"mask ratio {r} leaves no visible token "
                    f"(num_patches = {n})")
        if t.mode != "blockwise":
            return
        if self.model.depth % t.num_blocks != 0:
            raise ConfigError(
                f"depth {self.model.depth} is not divisible into "
                f"{t.num_blocks} blocks")
        if len(t.mask_schedule) != t.num_blocks:
            raise ConfigError(
                f"mask_schedule has {len(t.mask_schedule)} ratios for "
                f"{t.num_blocks} blocks")


def _parse_bool(v):
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {v!r}")


def _parse_schedule(v):
    return tuple(float(x) for x in v.replace(",", " ").split())


_MODEL_KEYS = {
    "image_size": int, "patch_size": int, "channels": int, "embed_dim": int,
    "depth": int, "heads": int, "mlp_ratio": int, "decoder_dim": int,
    "decoder_depth": int, "norm_pix": _parse_bool,
}
_TRAIN_KEYS = {
    "base_lr": float, "batch_size": int, "beta1": float, "beta2": float,
    "weight_decay": float, "warmup_epochs": int, "total_epochs": int,
    "seed": int, "mode": str, "num_blocks": int,
    "mask_schedule": _parse_schedule, "dataset": str, "dataset_size": int,
    "num_classes": int, "dtype": str,
}
VALID_KEYS = sorted(_MODEL_KEYS) + sorted(_TRAIN_KEYS)


def parse_config(text):
    """Parse key=value text into a RunConfig; unknown keys are errors."""
    model_kw, train_kw = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _MODEL_KEYS:
            kw, convert = model_kw, _MODEL_KEYS[key]
        elif key in _TRAIN_KEYS:
            kw, convert = train_kw, _TRAIN_KEYS[key]
        else:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; valid keys: "
                f"{', '.join(VALID_KEYS)}")
        try:
            kw[key] = convert(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from exc
    try:
        return RunConfig(model=ModelSpec(**model_kw),
                         train=TrainConfig(**train_kw))
    except Exception as exc:  # surface model-spec violations as config errors
        raise ConfigError(str(exc)) from exc


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# Named presets.  The paper-scale rows keep the published recipes on file
# for reference; only the desk presets are meant to be executed here.
PRESETS = {
    "desk-blockwise": (
        "mode = blockwise\nnum_blocks = 4\n"
        "mask_schedule = 0.75,0.75,0.75,0.75\n"
        "total_epochs = 50\nwarmup_epochs = 5\nbatch_size = 64\n"
        "dataset_size = 2048\nbase_lr = 2e-2\n"
    ),
    "desk-mae": (
        "mode = mae\nnum_blocks = 1\nmask_schedule = 0.75\n"
        "total_epochs = 50\nwarmup_epochs = 5\nbatch_size = 64\n"
        "dataset_size = 2048\nbase_lr = 2e-2\n"
    ),
    # Published pretraining recipe (AdamW, cosine decay, linear warmup).
    "paper-pretrain": (
        "base_lr = 1.5e-4\nweight_decay = 0.05\nbeta1 = 0.9\nbeta2 = 0.95\n"
        "warmup_epochs = 40\ntotal_epochs = 400\nbatch_size = 4096\n"
        "mode = blockwise\nnum_blocks = 4\nmask_schedule = 0.75,0.75,0.75,0.75\n"
    ),
}
