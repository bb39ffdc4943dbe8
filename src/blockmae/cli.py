"""Command-line entry points.

    blockmae pretrain        --config C [--seed N] [--out DIR] [--resume F]
    blockmae baseline-mae    --config C [--seed N] [--out DIR] [--resume F]
    blockmae probe           --config C --checkpoint F --k K [--seed N] [--out DIR]
    blockmae export-backbone --config C --checkpoint F --k K [--out DIR]
    blockmae mem-report      --config C [--out DIR] [--batch N]
    blockmae flop-report     --config C [--out DIR]

`baseline-mae` trains the config's first mask ratio as one block (MAE).
Exit code 0 only if the run completed with every run-time invariant held.
"""

import argparse
import dataclasses
import sys

from .config import ConfigError, load_config
from .data import FormatError
from .engine import IsolationError, ScheduleError
from .memory import ResourceError
from .runner import (
    run_export_backbone, run_pretrain, run_probe, write_flop_report,
    write_mem_report,
)
from .tape import TapeError

_ERRORS = (ConfigError, FormatError, ScheduleError, IsolationError,
           ResourceError, TapeError, OSError, MemoryError)


def _add_common(sp, checkpoint=False, k=False, resume=False, batch=False):
    sp.add_argument("--config", required=True, help="key=value config file")
    sp.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    sp.add_argument("--out", default="runs/out", help="output directory")
    if checkpoint:
        sp.add_argument("--checkpoint", required=True, help="BIMC file")
    if k:
        sp.add_argument("--k", type=int, required=True,
                        help="prefix depth in blocks")
    if resume:
        sp.add_argument("--resume", default=None,
                        help="checkpoint to continue from")
    if batch:
        sp.add_argument("--batch", type=int, default=None,
                        help="instrumented batch size (default: the "
                             "smaller of batch_size and 8); block-wise / "
                             "MAE moves with it, since each decoder's "
                             "parameter gradients do not grow with batch")


def build_parser():
    p = argparse.ArgumentParser(
        prog="blockmae",
        description="Block-wise masked-autoencoder pretraining laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("pretrain", help="train per the config"),
                resume=True)
    _add_common(sub.add_parser("baseline-mae",
                               help="end-to-end baseline run"), resume=True)
    _add_common(sub.add_parser("probe", help="linear-probe a prefix"),
                checkpoint=True, k=True)
    _add_common(sub.add_parser("export-backbone",
                               help="write a truncated backbone"),
                checkpoint=True, k=True)
    _add_common(sub.add_parser("mem-report",
                               help="measured vs analytic peak bytes"),
                batch=True)
    _add_common(sub.add_parser("flop-report", help="compute-model totals"))
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(
                cfg, train=dataclasses.replace(cfg.train, seed=args.seed))
        if args.command == "pretrain":
            art = run_pretrain(cfg, args.out, resume_from=args.resume)
            print(f"metrics: {art.metrics_path}")
        elif args.command == "baseline-mae":
            cfg = dataclasses.replace(cfg, train=dataclasses.replace(
                cfg.train, mask_schedule=cfg.train.mask_schedule[:1]))
            art = run_pretrain(cfg, args.out, resume_from=args.resume)
            print(f"metrics: {art.metrics_path}")
        elif args.command == "probe":
            art, res = run_probe(cfg, args.checkpoint, args.k, args.out)
            print(f"k={res.depth_index} train={res.train_accuracy:.4f} "
                  f"val={res.val_accuracy:.4f} -> {art.probe_results_path}")
        elif args.command == "export-backbone":
            art = run_export_backbone(cfg, args.checkpoint, args.k, args.out)
            print(f"backbone: {art.backbone_path}")
        elif args.command == "mem-report":
            path = write_mem_report(cfg, args.out, batch=args.batch)
            print(f"memory report: {path}")
        elif args.command == "flop-report":
            path = write_flop_report(cfg, args.out)
            print(f"flop report: {path}")
    except _ERRORS as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
