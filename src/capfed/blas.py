"""Small products on one thread of the OpenBLAS that NumPy links.

OpenBLAS splits a product over its worker threads once the product has a
few hundred thousand multiply-adds, and the woken workers then spin for a
while, waiting for the next product, before they sleep. At small shapes a
simulation makes one such product in every round, when it embeds the
verification pairs' distinct input rows, and its rounds are shorter than
that spin: the spinning worker holds a core through every local phase,
which slows the run while another process wants that core. one_thread runs
such a product on the calling thread, so the workers stay asleep.

A product on one thread does not always have the bits of the same product
split over threads: at some inner dimensions most of their entries differ,
also below _SMALL_PRODUCT. What holds is replay: small_product decides from
a product's shape alone whether to run it on one thread, so a shape gets
the same bits in every run with the same BLAS and thread setting. The eval
embeds each distinct row once, a block at a time, so a row's bits must not
depend on the other rows of its product: true for blocks, not for a few
rows, which can take another kernel (tests/test_synth_oracle.py).

The thread count is OpenBLAS's one process-wide setting, so one_thread is
not for products that other threads run at the same time. With another
BLAS, or where the OpenBLAS thread functions are not found, one_thread
changes nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

try:
    from numpy._core import _multiarray_umath
except ImportError:  # NumPy 1.x
    from numpy.core import _multiarray_umath

# Below this many multiply-adds (m * n * k) a product runs on one thread:
# splitting it saves less than the spin costs.
_SMALL_PRODUCT = 1 << 24

# (get, set) names of the thread functions: scipy-openblas builds (NumPy 2
# wheels) and plain OpenBLAS, each with and without the 64-bit-integer suffix.
_THREAD_FUNCTIONS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
)


@functools.cache
def _thread_functions():
    """OpenBLAS's get and set thread-count functions, or None.

    A symbol looked up through the handle of NumPy's core extension is
    searched in the libraries it loaded too, which is where its BLAS is.
    """
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for get_name, set_name in _THREAD_FUNCTIONS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            return get, set_
    return None


@contextlib.contextmanager
def one_thread():
    """Run the products of the block on the calling thread, then restore the count."""
    functions = _thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def small_product(m: int, k: int, n: int):
    """one_thread() for an (m, k) @ (k, n) product below _SMALL_PRODUCT, else a no-op context."""
    return one_thread() if m * k * n < _SMALL_PRODUCT else contextlib.nullcontext()
