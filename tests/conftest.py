import os

# BLAS threads pinned before numpy loads OpenBLAS, as perfbench/run.py pins
# them, whatever the environment asks: a chunked series evaluation keeps the
# bits of one chunk only on thread counts that split its chunks evenly (see
# ``_accel.series_values``), and the pinned digests were taken on these
_BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = _BLAS_THREADS

import tracemalloc  # noqa: E402

import pytest  # noqa: E402


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)``: (fn(), the peak bytes tracemalloc traced during
    the call)."""
    def run(fn):
        tracemalloc.start()
        try:
            out = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak

    return run
