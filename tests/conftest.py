import os

# one BLAS thread, as in CI and the benchmark: small dense solves run
# several times slower with more threads on a small machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
