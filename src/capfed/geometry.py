"""Unit-sphere primitives: normalization, cap areas, uniform directions.

Every row norm in the package is taken by `row_norms`, which gives the bits
of np.linalg.norm along the last axis and squares at most ROW_BLOCK_BYTES of
rows at once. Row norms and row normalization follow the array's dtype:
float32 rows (the training path's) stay float32, and anything else is taken
as float64. `has_unit_rows` and everything else here is double precision.
Cap areas go down to ~1e-10 for the margins and dimensions this package
targets, so the incomplete beta function is evaluated with a continued
fraction rather than a series.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ZeroVectorError

ZERO_NORM_FLOOR = 1e-12
UNIT_ROW_ATOL = 1e-9


def normalize(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||_2, preserving direction.

    Raises ZeroVectorError when ||v||_2 <= 1e-12, and DomainError when
    ||v||_2 is not finite (dividing by an overflowed norm gives 0 or NaN).
    """
    v = np.asarray(v, dtype=float)
    flat = v.ravel(order="K")
    norm = math.sqrt(flat.dot(flat))  # what np.linalg.norm computes, without its dispatch
    if norm <= ZERO_NORM_FLOOR:
        raise ZeroVectorError(f"cannot normalize vector with norm {norm:.3e}")
    if not math.isfinite(norm):
        raise DomainError(f"cannot normalize vector with norm {norm}")
    return v / norm


def float_array(m) -> np.ndarray:
    """m as an array of float32 if it is one, else of float64 (no copy when it already is)."""
    m = np.asarray(m)
    return m if m.dtype == np.float32 else m.astype(float, copy=False)


# Bytes of rows row_norms squares at once (128 rows of float64 at d = 512).
ROW_BLOCK_BYTES = 1 << 19


def block_rows(m: np.ndarray) -> int:
    """How many rows (along the last axis) of m make one ROW_BLOCK_BYTES block (at least 1)."""
    return max(1, ROW_BLOCK_BYTES // max(1, m.shape[-1] * m.itemsize))


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row (the last axis) of a float array.

    This is the reduction np.linalg.norm runs for ord=2 along one axis, so
    the bits are the same, without its dispatch and extra temporaries. An
    array larger than ROW_BLOCK_BYTES is squared block_rows(m) rows at a
    time, over its rows flattened across the leading axes. NumPy sums a
    contiguous row pairwise whatever rows share the reduction, so the bits
    stay; a strided last axis is reduced whole, because a block of one row
    would sum it in another order.
    """
    if m.nbytes <= ROW_BLOCK_BYTES or m.strides[-1] != m.itemsize:
        return np.sqrt(np.add.reduce(m * m, axis=-1))
    rows = m.reshape(-1, m.shape[-1])  # a view where the layout allows
    norms = np.empty(rows.shape[0], dtype=m.dtype)
    step = block_rows(m)
    for start in range(0, rows.shape[0], step):
        block = rows[start : start + step]
        np.sqrt(np.add.reduce(block * block, axis=-1), out=norms[start : start + step])
    return norms.reshape(m.shape[:-1])


def checked_row_norms(m: np.ndarray) -> np.ndarray:
    """row_norms, raising ZeroVectorError when a row's norm is <= 1e-12.

    The error names the row within its matrix, and for a stack of matrices
    also the matrix's index in the stack.
    """
    norms = row_norms(m)
    small = norms <= ZERO_NORM_FLOOR
    if np.any(small):
        index = tuple(int(i) for i in np.unravel_index(np.argmax(small), norms.shape))
        stack = f" of matrix {', '.join(map(str, index[:-1]))}" if len(index) > 1 else ""
        raise ZeroVectorError(f"row {index[-1]}{stack} has norm {float(norms[index]):.3e}")
    return norms


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Normalize every row of a matrix to unit length, in its float_array dtype."""
    m = float_array(m)
    return m / checked_row_norms(m)[..., None]


def has_unit_rows(m: np.ndarray) -> bool:
    """True when every row of the matrix m has norm 1 within UNIT_ROW_ATOL, in float64."""
    norms = row_norms(np.asarray(m, dtype=float))
    return bool(np.all(np.abs(norms - 1.0) <= UNIT_ROW_ATOL))


_BETACF_MAX_ITERATIONS = 1000
_BETACF_EPS = 1e-16
_BETACF_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz evaluation."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_FPMIN:
        d = _BETACF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITERATIONS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _BETACF_EPS:
            return h
    raise DomainError(f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Evaluated by the continued fraction with the symmetry switch at
    x = (a + 1) / (a + b + 2), which keeps the expansion in its fast-converging
    regime on both sides. Accurate to ~1e-15 absolute across the parameter
    ranges used here (including a = 255.5, b = 0.5).
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x={x} outside [0, 1]")
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"a={a}, b={b} must both be positive")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def occupancy_ratio(rho: float, d: int) -> float:
    """Fraction of the unit d-sphere's surface within angle rho of a point.

    For rho <= pi/2 this is the cap-area formula
    0.5 * I_{sin^2(rho)}((d - 1) / 2, 1 / 2); beyond a hemisphere the raw
    formula no longer describes a cap, so the complement of the opposite cap
    is returned instead.
    """
    if not (0.0 <= rho <= math.pi):
        raise DomainError(f"rho={rho} outside [0, pi]")
    if int(d) != d or d < 2:
        raise DomainError(f"dimension d={d} must be an integer >= 2")
    if rho > math.pi / 2.0:
        return 1.0 - occupancy_ratio(math.pi - rho, d)
    s = math.sin(rho)
    return 0.5 * reg_inc_beta(s * s, (d - 1) / 2.0, 0.5)


def sample_uniform_directions(count: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw count independent uniform directions as the rows of a matrix."""
    if int(d) != d or d < 2:
        raise DomainError(f"dimension d={d} must be an integer >= 2")
    m = rng.standard_normal((int(count), int(d)))
    m /= checked_row_norms(m)[:, None]  # in place: the bits of normalize_rows, no second copy
    return m
