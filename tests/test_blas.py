"""blas: small products run on one OpenBLAS thread, restoring the count after.

The bit-equality test covers inner dimension 48 only: at other inner
dimensions (1000, say) a one-thread product can differ from a @ b split
over the threads.
"""

import numpy as np
import pytest

from capfed import blas, federation
from capfed.geometry import checked_row_norms


def _get_threads():
    functions = blas._thread_functions()
    if functions is None:
        pytest.skip("NumPy's BLAS is not OpenBLAS")
    return functions[0]


def test_one_thread_runs_the_block_on_one_thread_and_restores_the_count():
    get = _get_threads()
    before = get()
    with blas.one_thread():
        assert get() == 1
    assert get() == before


def test_one_thread_restores_the_count_when_the_block_raises():
    get = _get_threads()
    before = get()
    with pytest.raises(ZeroDivisionError):
        with blas.one_thread():
            1 / 0
    assert get() == before


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [7, 2000, 20000])
def test_embed_has_the_bits_of_the_operator(dtype, rows):
    # 2000 rows is the verification eval's small product, which a @ b splits
    # over the OpenBLAS threads; 20000 rows is above _SMALL_PRODUCT.
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((rows, 48)).astype(dtype)
    w = rng.standard_normal((32, 48)).astype(dtype)
    feats = x @ w.T
    assert np.array_equal(federation.embed(w, x), feats / checked_row_norms(feats)[:, None])


def test_only_products_below_the_bound_run_on_one_thread(monkeypatch):
    entered = []

    def recording_one_thread():
        entered.append(True)
        return blas.contextlib.nullcontext()

    monkeypatch.setattr(blas, "one_thread", recording_one_thread)
    monkeypatch.setattr(blas, "_SMALL_PRODUCT", 2 * 3 * 4)
    federation.embed(np.ones((3, 3)), np.ones((2, 3)))
    assert entered == [True]
    federation.embed(np.ones((4, 3)), np.ones((2, 3)))
    assert entered == [True]
