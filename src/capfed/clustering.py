"""Greedy spherical-cap clustering of class centers with sanitized release.

Repeatedly finds the seed center whose rho-cap covers the most remaining
centers, releases the (optionally noised) cap mean, and removes everything
the noise-free mean covers. Release stops as soon as a candidate cluster
falls below the minimum size, so small groups are never published.

Neighbour counts are streamed, never held as an n x n matrix: the upper
triangle of the Gram matrix is computed once, at most _BLOCK_ROWS rows and
_BLOCK_COSINES cosines at a time, to count every row's rho-neighbours.
Removing rows can only lower a count, so after a release the counts are
upper bounds, and they are checked lazily (Minoux's accelerated greedy):
the seed's own query gives its exact count, and only when the top bound is
stale are the rows that could still win recounted, again in blocks. These
block products are float32, since sgemm is the faster product; the seed's
1 x n query and the removal test stay float64. Working memory is
O(n * d + _BLOCK_COSINES).

A block's neighbour mask is summed along each axis as its bytes, viewed as
uint8: bool's own sum goes through int64, which is slower. A sum along an
axis of at most 65,535 entries accumulates in uint16, a longer one in
int32, and the counts are int32. uint8 would not do: a block's column sums
reach _BLOCK_ROWS = 256. A row's count reaches n, past uint16 from
n = 65,536 on; int32 holds any n that fits in memory.

Two rows are neighbours when theta <= rho, theta the arccos of their
clipped dot product. Cosines are compared with cos(rho) directly; only
pairs within a band of 4 * d * eps of cos(rho), eps that of the block's
dtype, are recomputed as a float64 row-wise dot and tested with arccos, so
the decision for a pair does not depend on which block computed it, nor in
which precision. For float32 blocks the band is 4 * d * 2**-23 = 8 * d * u,
u = 2**-24, and it covers every error between a block cosine and the
float64 dot: rounding unit rows to float32 and taking their length-d dot
in float32 is off by at most (d + 2) * u (Higham, Accuracy and Stability
of Numerical Algorithms, sec. 3.1); NumPy 2 compares a float32 array with
a Python float in float32, so the threshold cos(rho) +- band is itself
rounded by at most u; the float64 dot adds under d * 2**-53. A row is
always its own neighbour, and so is an identical copy of it whose cosine
falls in that band: their angle is 0, though the rounded cosine may sit
below 1.

Removal decides on one float64 product over all n rows,
(centers @ direction)[active], with no copy of the active rows. A dgemv
row's last bit depends on the row's position in the matrix, but this
product and the gathered centers[active] @ direction are both length-d dots
of unit vectors, so they differ by at most about 2 * d * 2**-53, and a row
whose cosine lies more than 4 * d * eps (eps = 2**-52) from cos(rho) gets
the same arccos(...) > rho decision from either: the band rule above. A
query with an active cosine inside the band takes the gathered product
instead, so every removal keeps its bits. Removal against the released
direction, which changes those bits anyway, would delete this fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dp
from .errors import DomainError
from .geometry import has_unit_rows, normalize, normalize_rows

MODE_SANITIZED = "sanitized"
MODE_NOISE_FREE = "noise_free"
MODE_NAIVE_PER_CENTER = "naive_per_center"
MODES = (MODE_SANITIZED, MODE_NOISE_FREE, MODE_NAIVE_PER_CENTER)


@dataclass(frozen=True)
class ClusteringParams:
    """Knobs for one clustering release.

    rho: cap half-angle defining cluster membership, in (0, pi/2].
    min_cluster_size: smallest cluster that may be released.
    max_queries: cap on the number of released cluster centers.
    budget: per-release privacy budget.
    mode: "sanitized" (noise at the tight calibration), "noise_free"
          (sigma = 0, nothing charged), or "naive_per_center" (every center
          released individually at sensitivity 2).
    """

    rho: float = 1.3
    min_cluster_size: int = 512
    max_queries: int = 1
    budget: dp.PrivacyBudget = field(default_factory=dp.PrivacyBudget)
    mode: str = MODE_SANITIZED

    def __post_init__(self) -> None:
        if not 0.0 < self.rho <= math.pi / 2.0:
            raise DomainError(f"rho={self.rho} outside (0, pi/2]")
        if math.cos(self.rho) == 1.0:  # the weak sensitivity and sigma would be 0
            raise DomainError(f"rho={self.rho} too small: cos(rho) is 1.0 for rho <= 1.0537e-8")
        if int(self.min_cluster_size) != self.min_cluster_size or self.min_cluster_size < 1:
            raise DomainError(f"min_cluster_size={self.min_cluster_size} must be an integer >= 1")
        if int(self.max_queries) != self.max_queries or self.max_queries < 1:
            raise DomainError(f"max_queries={self.max_queries} must be an integer >= 1")
        if self.mode not in MODES:
            raise DomainError(f"mode={self.mode!r} not one of {MODES}")


@dataclass
class ClusteringReport:
    """Everything one clustering run produced.

    centers holds one released row per query, (queries_used, d) float64;
    in naive_per_center mode these are the n noised class centers, not
    renormalized (the noise magnitude is part of what attack evaluation
    measures). sizes holds each query's covered count, all 1 in naive mode.
    charged is how many releases at params.budget the run spends:
    queries_used when sanitized, n when naive_per_center, 0 when noise_free.
    fidelities holds the scalar cos(released center, noise-free direction)
    per query.
    """

    centers: np.ndarray
    sizes: list[int]
    charged: int
    fidelities: list[float]

    @property
    def queries_used(self) -> int:
        return len(self.sizes)


# Most cosines computed at once (8 MiB of float32), and most float64 entries of
# each of the two row gathers in a band re-check (16 MiB): the working-set bound.
_BLOCK_COSINES = 1 << 21
# Most rows in one block of the upper-triangle walk. A block of r rows also
# computes the r * (r - 1) / 2 cosines below its diagonal, which the walk does
# not need; capping r keeps them under a fraction _BLOCK_ROWS / n of the
# n^2 / 2 it needs (without the cap, n <= 1448 rows fit one n x n block).
_BLOCK_ROWS = 256
_UINT16_MAX = np.iinfo(np.uint16).max


def _within_rho(cos: np.ndarray, rows, cols, centers: np.ndarray, rho: float) -> np.ndarray:
    """Neighbour mask for a block of cosines, cos[a, b] ~ centers[rows[a]] . centers[cols[b]].

    The block may be float32 or float64; its dtype sets the band. Any two
    ways of computing the cosine of unit rows in that dtype, including the
    float32 rounding of the rows and of the Python-float threshold that
    NumPy 2 compares a float32 array with, differ from the float64 row-wise
    dot by well under 4 * d * eps (see the module docstring), so a cosine
    more than that from cos(rho) is on the same side of it whichever product
    computed it. Pairs inside the band are recomputed as a float64 row-wise
    dot, which gives the same bits for a pair in every block and in either
    order, and kept when arccos of it is <= rho or the two rows are
    identical. A pair the block holds twice, as (i, j) and (j, i), is
    recomputed once. They are recomputed at most _BLOCK_COSINES // d pairs
    at a time, so a block whose every pair is in the band stays within the
    working-set bound.
    """
    d = centers.shape[1]
    band = 4.0 * d * np.finfo(cos.dtype).eps
    cos_rho = math.cos(rho)
    mask = cos >= cos_rho + band
    in_band = cos >= cos_rho - band
    in_band ^= mask
    if not in_band.any():
        return mask
    a, b = np.nonzero(in_band)
    pair = np.minimum(rows[a], cols[b]) * centers.shape[0] + np.maximum(rows[a], cols[b])
    _, first, back = np.unique(pair, return_index=True, return_inverse=True)
    near = np.empty(first.size, dtype=bool)
    step = max(1, _BLOCK_COSINES // d)
    for start in range(0, first.size, step):
        cells = first[start : start + step]
        u = centers[rows[a[cells]]]  # one gather per statement: at most three chunk x d arrays live
        v = centers[cols[b[cells]]]
        exact = np.clip(np.sum(u * v, axis=1), -1.0, 1.0)
        near[start : start + step] = (np.arccos(exact) <= rho) | np.all(u == v, axis=1)
    mask[a, b] = near[back]
    return mask


def _mask_sum(mask: np.ndarray, axis: int) -> np.ndarray:
    """How many True entries a boolean mask holds along axis (see the module docstring)."""
    dtype = np.uint16 if mask.shape[axis] <= _UINT16_MAX else np.int32
    return np.add.reduce(mask.view(np.uint8), axis=axis, dtype=dtype)


def _neighbor_counts(centers: np.ndarray, rho: float, single: np.ndarray) -> np.ndarray:
    """Number of rows within rho of each row (itself included), over all n rows.

    Walks the upper triangle of the Gram matrix in blocks of whole rows, each
    block holding at most _BLOCK_ROWS rows and _BLOCK_COSINES cosines (one
    row at least): a pair is decided once and counted for both of its rows.
    The products are taken over single, centers as float32.
    """
    n = centers.shape[0]
    counts = np.zeros(n, dtype=np.int32)
    start = 0
    while start < n:
        stop = min(n, start + max(1, min(_BLOCK_ROWS, _BLOCK_COSINES // (n - start))))
        rows = np.arange(start, stop)
        mask = _within_rho(
            single[start:stop] @ single[start:].T, rows, np.arange(start, n), centers, rho
        )
        size = stop - start
        mask[np.arange(size), np.arange(size)] = True
        counts[start:stop] += _mask_sum(mask, 1)
        counts[stop:] += _mask_sum(mask[:, size:], 0)
        start = stop
    return counts


def _count_within(
    centers: np.ndarray, single: np.ndarray, rows: np.ndarray, cols: np.ndarray, rho: float
) -> np.ndarray:
    """For each of rows, how many of cols lie within rho of it.

    A row that is also one of cols counts itself, by _within_rho's rule for
    identical rows, so for rows a subset of cols these are the exact
    neighbour counts within cols. The products are taken over single,
    centers as float32, at most _BLOCK_COSINES cosines at a time.
    """
    counts = np.zeros(rows.size, dtype=np.int32)
    if rows.size == 0:
        return counts
    other = single[cols]
    step = max(1, _BLOCK_COSINES // cols.size)
    for start in range(0, rows.size, step):
        block = rows[start : start + step]
        mask = _within_rho(single[block] @ other.T, block, cols, centers, rho)
        counts[start : start + step] = _mask_sum(mask, 1)
    return counts


def _near_cos_rho(cos: np.ndarray, d: int, rho: float) -> bool:
    """Whether any of the float64 cosines of length-d unit rows is within 4 * d * eps of cos(rho).

    Outside that band, any two products of the rows decide theta > rho alike
    (see the module docstring).
    """
    return bool((np.abs(cos - math.cos(rho)) <= 4.0 * d * 2.0**-52).any())


def _seed_cap(centers: np.ndarray, active: np.ndarray, seed_pos: int, rho: float) -> np.ndarray:
    """Mask over active of the rows within rho of active[seed_pos], the seed included.

    The seed's 1 x n query is float64; its decisions are those of the block
    products (see the module docstring), so the mask's size is the seed's
    exact neighbour count within active.
    """
    seed = active[seed_pos : seed_pos + 1]
    cos = (centers[seed] @ centers.T)[:, active]
    within = _within_rho(cos, seed, active, centers, rho)[0]
    within[seed_pos] = True
    return within


def run_clustering(
    centers: np.ndarray,
    params: ClusteringParams,
    rng: np.random.Generator,
) -> ClusteringReport:
    """Run the full greedy covering release on one client's class centers.

    Per query: find the densest rho-cap among the remaining centers; if it
    covers at least min_cluster_size members, release the (noised, then
    normalized) cap mean and drop every center within rho of the noise-free
    mean direction; otherwise stop. Removal deliberately tests against the
    noise-free direction, so the local bookkeeping is sharper than what is
    released. The seed is always removed, also where rounding puts its
    cosine with the direction below cos(rho), as it can for rho near 1e-8;
    an identical copy of the seed that rounding keeps is released later as
    its own seed. noise_free mode consumes no randomness and charges
    nothing; naive_per_center ignores clustering entirely and charges one
    release per center at sensitivity 2. The noise covers one swapped row of
    centers, the other rows fixed, not an identity or the embedder; release
    counts, sizes and the seed choice carry no noise (see the dp module).
    The tight sensitivity covers only a swap that keeps a cap's members and
    seed; a swap that changes them can move the noise-free mean past it
    with an unchanged transcript (dp.tight_sensitivity names the witnesses).

    The densest cap is the active seed with the most active rho-neighbours
    (itself included), ties going to the lowest index. Neighbour counts are
    computed once, over all n rows, in blocks of at most _BLOCK_COSINES
    cosines; once rows leave they are upper bounds on the active counts.
    Each query takes r, the first active row with the highest bound, and its
    cap, whose size is r's exact count. If that equals r's bound, r is the
    densest seed: every other row's count is at most its bound, and a row
    whose bound ties r's has a higher index. Otherwise r's bound drops to
    its exact count, and the active rows with a higher bound, or an equal
    one and a lower index, are recounted in one pass; the first highest
    bound is then the seed. So a query makes at most one recount pass, of
    fewer than |active| rows against the |active| active rows: at worst
    about twice the cosines of the initial count, which decides each pair
    once, in the same blocks. Memory is O(n * d + _BLOCK_COSINES), not
    n x n. The neighbour test is theta <= rho, decided on float32 block
    cosines with a float64 arccos re-check near cos(rho); a row always
    neighbours itself (see the module docstring).

    Removal decides on (centers @ direction)[active], with no copy of the
    active rows, and a query with an active cosine within 4 * d * eps of
    cos(rho) falls back to centers[active] @ direction, so the removals are
    those of the gathered product; removal against the released direction
    would delete that fallback (see the module docstring).
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise DomainError("center matrix must have at least one row")
    if not has_unit_rows(centers):
        raise DomainError("center matrix rows must be unit norm")
    n, d = centers.shape
    budget = params.budget

    if params.mode == MODE_NAIVE_PER_CENTER:
        noised = dp.gaussian_perturb(centers, dp.gaussian_sigma(dp.NAIVE_SENSITIVITY, budget), rng)
        # an exact power-of-two scale keeps the squared norms of a huge sigma's rows finite
        _, exponent = np.frexp(np.max(np.abs(noised), axis=1, keepdims=True))
        fidelities = np.sum(normalize_rows(np.ldexp(noised, -exponent)) * centers, axis=1).tolist()
        return ClusteringReport(noised, [1] * n, n, fidelities)

    # float32 copy for the neighbour-count products: n * d * 4 bytes beside centers
    single = centers.astype(np.float32)
    counts = _neighbor_counts(centers, params.rho, single)
    active = np.arange(n)
    released_rows = []
    sizes: list[int] = []
    fidelities = []
    for _ in range(params.max_queries):
        if active.size == 0:
            break
        bounds = counts[active]
        seed_pos = int(bounds.argmax())  # first max: lowest index wins
        within = _seed_cap(centers, active, seed_pos, params.rho)
        exact = np.count_nonzero(within)
        if exact < bounds[seed_pos]:  # a stale top bound
            bounds[seed_pos] = exact
            ahead = bounds > exact
            ahead[:seed_pos] = bounds[:seed_pos] >= exact
            bounds[ahead] = _count_within(centers, single, active[ahead], active, params.rho)
            counts[active] = bounds
            top = int(bounds.argmax())
            if top != seed_pos:
                seed_pos = top
                within = _seed_cap(centers, active, seed_pos, params.rho)
        members = active[within]
        if members.size < params.min_cluster_size:
            break
        p = np.add.reduce(centers[members], axis=0) / members.size  # the bits of np.mean
        direction = normalize(p)
        if params.mode == MODE_SANITIZED:
            sigma = dp.gaussian_sigma(dp.tight_sensitivity(int(members.size), params.rho), budget)
            released = normalize(dp.gaussian_perturb(p, sigma, rng))
        else:
            released = direction
        released_rows.append(released)
        sizes.append(int(members.size))
        fidelities.append(float(np.dot(released, direction)))
        cos_to_direction = (centers @ direction)[active]
        if _near_cos_rho(cos_to_direction, d, params.rho):
            cos_to_direction = centers[active] @ direction
        np.maximum(cos_to_direction, -1.0, out=cos_to_direction)  # clip into arccos's domain
        np.minimum(cos_to_direction, 1.0, out=cos_to_direction)
        keep = np.arccos(cos_to_direction) > params.rho
        keep[seed_pos] = False
        active = active[keep]

    rows = np.array(released_rows, dtype=float).reshape(len(sizes), d)
    charged = len(sizes) if params.mode == MODE_SANITIZED else 0
    return ClusteringReport(rows, sizes, charged, fidelities)
