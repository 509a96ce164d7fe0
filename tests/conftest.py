import os

# BLAS and OpenMP at one thread before numpy loads, as the benchmark and the
# digest script run: on a 2-CPU host a second thread gains pre-training no
# wall time and doubles its CPU time, so suite times vary with the host's load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from fedembed.numerics import RowGrad  # noqa: E402


def central_diff(f, arrays, eps=1e-4):
    """Central-difference gradient of the scalar f() w.r.t. each array.

    f must re-read the arrays on every call; they are perturbed in place.
    Arrays should be float64 for the oracle to be meaningful.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + eps
            fp = f()
            arr[idx] = old - eps
            fm = f()
            arr[idx] = old
            g[idx] = (fp - fm) / (2 * eps)
        grads.append(g)
    return grads


def dense_grad(grad, like: np.ndarray) -> np.ndarray:
    """A gradient as an array shaped like its parameter `like`: a `RowGrad`
    holds its values on its rows and zeros elsewhere."""
    if not isinstance(grad, RowGrad):
        return grad
    out = np.zeros(like.shape, dtype=grad.values.dtype)
    out.reshape((-1,) + grad.values.shape[1:])[grad.rows] = grad.values
    return out


def relative_error(analytic, numeric: np.ndarray) -> float:
    """Normwise relative disagreement between two gradient tensors; a
    `RowGrad` is compared as the dense gradient it stands for."""
    analytic = dense_grad(analytic, numeric)
    num = np.linalg.norm(np.asarray(analytic) - np.asarray(numeric))
    den = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-8)
    return float(num / den)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
