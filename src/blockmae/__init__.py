"""Block-wise masked-autoencoder pretraining laboratory.

A numpy-backed autodiff tape with byte-exact activation accounting, toy
ViT masked-autoencoder components, a gradient-isolated block training
scheduler with incremental masking, analytic memory/compute estimators,
nested-backbone extraction, and a deterministic training harness.

Importing the package pins BLAS to one thread unless the environment
already sets a count: the tape's kernels run on threads of their own
(`tape._PARTS`), and BLAS threads beside them contend for the same
cores; under load a probe forward ran about 40 times slower.  BLAS reads
these variables when numpy loads, so they are set before any import of
numpy here; a process that loaded numpy first keeps its own.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import ConfigError, RunConfig, TrainConfig, load_config, parse_config
from .data import Dataset, FormatError, gen_synthetic_dataset, load_dataset, save_dataset
from .checkpoint import load_checkpoint, save_checkpoint
from .engine import (
    BlockPlan, BlockUnit, BlockwiseModel, IsolationError, ScheduleError,
    StepReport, blockwise_train_step, build_model, incremental_drop,
    partition_encoder,
)
from .memory import FlopReport, MemoryReport, analytic_peak, compare_peak, flop_estimate
from .model import ModelSpec, reconstruction_loss, sincos_pos_embed
from .ofa import (
    BackbonePrefix, ProbeConfig, ProbeResult, linear_probe,
    training_cost_saving, truncate_backbone,
)
from .optim import AdamW, lr_at_step, scale_lr
from .tape import (
    ContractError, DimensionError, LifecycleError, MemoryMeter, NumericError,
    Tape, TapeError, finite_diff,
)

__version__ = "0.1.0"
