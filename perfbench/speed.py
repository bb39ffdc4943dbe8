"""Machine-speed references for the timed pass.

On a shared virtual machine the same training step takes from 0.3 to
0.5 s depending on what the neighbours do, for minutes at a time, with
CPU time equal to wall time.  A fixed reference kernel, timed just before
each unit of work, slows down with the machine.  Scaling each unit's time
by the kernel's nominal time over the time measured just before it
reports it at the reference speed.  Over six runs of pretrain-mae this
cut the spread of the median step time from 28% to 2% (quartile distance
over median).

The kernel has to load the machine the way the unit does, or the
scaling adds noise instead of removing it:
    compute  f32 and f64 GEMMs, exp and erf over cache-sized arrays, and
             interpreter-bound small-array work, like a training step.
    memory   f64 GEMM, erf and softmax over fresh 8 MB buffers kept alive
             to the end (64 MB), like the probe's forward-only tape that
             holds 1.2 GB per chunk.  With the compute kernel the probe's
             spread rose from 4% unscaled to 19%; with this one it was 3%.
Nominal times were measured on a quiet 2-core x86 VM (Python 3.11,
numpy 2.4, OpenBLAS 0.3.31 with one thread); they only set the units.
"""

import time

import numpy as np
from scipy.special import erf


def _compute_kernel(a32, b32, a64, b64, x):
    acc = 0.0
    for _ in range(2):
        acc += float((a32 @ b32)[0, 0])
        acc += float((a64 @ b64)[0, 0])
        acc += float(np.exp(x).sum() + erf(x).sum())
        for j in range(200):
            acc += float(x[j:j + 16].mean())
    return acc


def _memory_kernel(a64, w64):
    keep = []
    h = a64
    for _ in range(2):
        h = h @ w64
        g = 0.5 * h * (1.0 + erf(h / np.sqrt(2.0)))
        e = np.exp(g - g.max(axis=-1, keepdims=True))
        keep += [h, g, e]
        h = e / e.sum(axis=-1, keepdims=True)
        keep.append(h)
    return float(h[0, 0])


NOMINAL_S = {"compute": 0.015, "memory": 0.125}


class SpeedProbe:
    """Times one reference kernel and keeps every sample."""

    def __init__(self, kind, clock=time.perf_counter):
        rng = np.random.default_rng(0)
        self.clock = clock
        self.nominal_s = NOMINAL_S[kind]
        if kind == "compute":
            args = (rng.standard_normal((1024, 256)).astype(np.float32),
                    rng.standard_normal((256, 256)).astype(np.float32),
                    rng.standard_normal((512, 256)),
                    rng.standard_normal((256, 256)),
                    rng.standard_normal(100_000).astype(np.float32))
            self._run = lambda: _compute_kernel(*args)
        else:
            args = (rng.standard_normal((4096, 256)),
                    rng.standard_normal((256, 256)) / 16.0)
            self._run = lambda: _memory_kernel(*args)
        self.samples = []

    def sample(self):
        """Run the kernel once; returns the seconds it took."""
        start = self.clock()
        self._run()
        took = self.clock() - start
        self.samples.append(took)
        return took

    def scaled(self, seconds, ref):
        """`seconds` measured when the kernel took `ref`, at nominal speed."""
        return seconds * self.nominal_s / ref

    def factor(self):
        """Mean kernel time over nominal: above 1 when the machine was slow."""
        return sum(self.samples) / len(self.samples) / self.nominal_s
