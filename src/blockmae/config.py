"""Run configuration: typed key=value files, training constants, presets.

The config file format is UTF-8 ``key = value`` lines ('#' comments and
blank lines allowed).  The valid keys are the fields of `ModelSpec` and
`TrainConfig`, each read by its annotated type.  Unknown keys are
rejected with the full list of valid keys, so typos fail fast instead of
silently using defaults.

`RunConfig` builds the run's `BlockPlan` once, as `cfg.plan`; the plan
checks the schedule and block count, `engine.block_layers` the depth,
and `RunConfig` only how many patches each ratio keeps.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .engine import BlockPlan, ScheduleError, block_layers
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
    plan: BlockPlan = field(init=False)

    def __post_init__(self):
        t, n = self.train, self.model.num_patches
        try:
            self.plan = BlockPlan(num_blocks=t.num_blocks,
                                  mask_schedule=t.mask_schedule, mode=t.mode)
            block_layers(self.model.depth, self.plan.num_blocks)
        except ScheduleError as exc:
            raise ConfigError(str(exc)) from exc
        for r in t.mask_schedule:
            # a token for the encoder to see, a patch for the loss to score
            k = keep_count(n, r)
            if not 1 <= k < n:
                what = "leaves no visible token" if k < 1 else "hides no patch"
                raise ConfigError(f"mask ratio {r} {what} (num_patches = {n})")


def _parse_bool(v):
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {v!r}")


def _parse_schedule(v):
    return tuple(float(x) for x in v.replace(",", " ").split())


_READERS = {int: int, float: float, str: str, bool: _parse_bool,
            tuple: _parse_schedule}
# key -> (RunConfig section, reader), from the two dataclasses' fields
_KEYS = {f.name: (section, _READERS[f.type])
         for section, cls in (("model", ModelSpec), ("train", TrainConfig))
         for f in fields(cls)}
VALID_KEYS = (sorted(f.name for f in fields(ModelSpec))
              + sorted(f.name for f in fields(TrainConfig)))


def parse_config(text):
    """Parse key=value text into a RunConfig; unknown keys are errors."""
    kw = {"model": {}, "train": {}}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; valid keys: "
                f"{', '.join(VALID_KEYS)}")
        section, convert = _KEYS[key]
        try:
            kw[section][key] = convert(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from exc
    try:
        return RunConfig(model=ModelSpec(**kw["model"]),
                         train=TrainConfig(**kw["train"]))
    except Exception as exc:  # surface model-spec violations as config errors
        raise ConfigError(str(exc)) from exc


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: {exc}") from exc
    return parse_config(text)


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
