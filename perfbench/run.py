"""Run one workload of the blockmae benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from --seed; the
package is imported from ./src.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  The exit code is 0 only when every
correctness check passed.  With --trace 1 the spans are also written to
.perfbench_out/trace-<workload>-seed<N>.json.
"""

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# One BLAS thread: run-to-run spread on a shared 2-core machine is far
# lower than with a thread per core, and step times were no slower.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_info():
    """(library, thread count) of the BLAS numpy loaded."""
    import ctypes
    import numpy as np

    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{dep.get('name')}-{dep.get('version')}"
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return name, getter()
    return name, int(os.environ["OPENBLAS_NUM_THREADS"])


def fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def main(argv=None):
    if not (ROOT / "src" / "blockmae" / "__init__.py").is_file():
        print(f"error: no blockmae package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np
    from perfbench import workloads as wl

    args = parse_args(argv, sorted(wl.WORKLOADS))
    workload = wl.WORKLOADS[args.workload]
    nproc = os.cpu_count()
    blas, threads = blas_info()
    print(f"env nproc={nproc} affinity={len(os.sched_getaffinity(0))} blas={blas} "
          f"blas_threads={threads} numpy={np.__version__} "
          f"python={platform.python_version()}")
    if threads > nproc:
        print(f"error: {threads} BLAS threads exceed nproc {nproc}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        res = wl.run_workload(workload, wl.DESK, args.seed, args.seconds,
                              bool(args.trace), str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = ("heap pass, plain call, traced call" if args.trace else
              f"{len(res.calls) - 1} timed calls, heap pass")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {passes}")
    units = dict(wl.PER_LAYER if args.trace else wl.END_TO_END)
    for name, value in res.metrics.items():
        print(f"metric {name} {fmt(value)} {units[name]}")
    x = res.extra
    if "speed_factor" in x:
        print(f"speed factor {fmt(x['speed_factor'])} (mean over the run); "
              f"unscaled step_ms_p50 {fmt(x['raw_step_ms_p50'])} ms")
    if "step_ms_tail" in x and x["step_ms_tail"] is not None:
        print(f"metric step_ms_tail {fmt(x['step_ms_tail'])} ms "
              f"(p{x['tail_percentile']} of {x['warm_units']} warm steps)")
    for name, unit in (("loss_final", ""), ("probe_s", "s"), ("probe_val_accuracy", "")):
        if name in x:
            print(f"metric {name} {fmt(x[name])} {unit}".rstrip())
    attempted = sum(c.attempted for c in res.calls)
    failed = sum(c.failed for c in res.calls)
    print(f"metric error_rate {fmt(failed / max(attempted, 1))} "
          f"({failed} of {attempted} operations failed)")
    for c in res.calls:
        if c.error:
            print(c.error, file=sys.stderr)
    for check, ok, detail in res.checks:
        print(f"check {'PASS' if ok else 'FAIL'} {check}" + (f": {detail}" if detail else ""))

    if res.traced is not None and res.traced.spans is not None:
        out = ROOT / ".perfbench_out" / f"trace-{workload.name}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        rec = res.traced.spans
        out.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                   "fields": ["name", "start", "end", "parent", "step"],
                                   "spans": [s.as_list() for s in rec.spans],
                                   "counts": rec.counts}))
        print(f"trace {len(rec.spans)} spans -> {out.relative_to(ROOT)}")

    correct = bool(res.metrics) and all(ok for _, ok, _ in res.checks)
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in res.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
