"""Pin BLAS to one thread before numpy loads, as `perfbench/run.py` does.

The tape's kernels run on their own threads (`tape._PARTS`); BLAS
threads beside them contend for the same cores, and under load a probe
forward ran about 40 times slower.  pytest loads a root conftest before
any test module imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
