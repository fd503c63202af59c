"""One BLAS thread for the test process, set before any test module imports numpy.

``forked.run_forked`` forks this process, and forking a process whose BLAS
runs threads is unsafe.  The probe's eigensolves are at most 25 x 25, so
threads would only add noise, as ``benchmarks/run.py`` says of its own runs.
"""

import os

for var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[var] = "1"
