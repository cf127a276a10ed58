"""Suite-wide guard: a test that leaves a blocked-engine worker running, or
numpy's OpenBLAS thread count changed, fails."""

import pytest

from _util import tile_threads
from smoothce import blocked

# the real calls, looked up before any test swaps them for a fake
_BLAS_CALLS = blocked._openblas_thread_calls()


def _blas_threads():
    return None if _BLAS_CALLS is None else _BLAS_CALLS[0]()


@pytest.fixture(autouse=True)
def no_leaked_workers():
    before = _blas_threads()
    yield
    assert tile_threads() == [], "engine workers still running after the test"
    assert _blas_threads() == before, "numpy's OpenBLAS thread count changed by the test"
