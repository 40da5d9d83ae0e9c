"""Greedy spherical-cap clustering of class centers with sanitized release.

Repeatedly finds the seed center whose rho-cap covers the most remaining
centers, releases the (optionally noised) cap mean, and removes everything
the noise-free mean covers. Release stops as soon as a candidate cluster
falls below the minimum size, so small groups are never published.

Neighbour counts are streamed, never held as an n x n matrix: the upper
triangle of the Gram matrix is computed once, at most _BLOCK_ROWS rows and
_BLOCK_COSINES cosines at a time, to count every row's rho-neighbours, and
after a release only the removed rows' contribution is subtracted, again in
blocks. These
block products are float32 (sgemm runs about twice as fast as dgemm); the
seed's 1 x n query and the removal test stay float64. Working memory is
O(n * d + _BLOCK_COSINES).

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dp
from .errors import DomainError, EmptyInputError
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
    per query. member_indexes / removed_indexes are local ground truth for
    evaluation harnesses (which rows each query covered and which it knocked
    out of the active set); they are never part of a release payload.
    """

    centers: np.ndarray
    sizes: list[int]
    charged: int
    fidelities: list[float]
    member_indexes: list[np.ndarray] = field(default_factory=list)
    removed_indexes: list[np.ndarray] = field(default_factory=list)

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


def _neighbor_counts(centers: np.ndarray, rho: float, single: np.ndarray) -> np.ndarray:
    """Number of rows within rho of each row (itself included), over all n rows.

    Walks the upper triangle of the Gram matrix in blocks of whole rows, each
    block holding at most _BLOCK_ROWS rows and _BLOCK_COSINES cosines (one
    row at least): a pair is decided once and counted for both of its rows.
    The products are taken over single, centers as float32.
    """
    n = centers.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    start = 0
    while start < n:
        stop = min(n, start + max(1, min(_BLOCK_ROWS, _BLOCK_COSINES // (n - start))))
        rows = np.arange(start, stop)
        mask = _within_rho(
            single[start:stop] @ single[start:].T, rows, np.arange(start, n), centers, rho
        )
        size = stop - start
        mask[np.arange(size), np.arange(size)] = True
        counts[start:stop] += mask.sum(axis=1)
        counts[stop:] += mask[:, size:].sum(axis=0)
        start = stop
    return counts


def _count_within(
    centers: np.ndarray, single: np.ndarray, rows: np.ndarray, cols: np.ndarray, rho: float
) -> np.ndarray:
    """For each of rows, how many of cols lie within rho of it; rows and cols disjoint.

    The products are taken over single, centers as float32.
    """
    counts = np.zeros(rows.size, dtype=np.int64)
    if cols.size == 0:
        return counts
    other = single[cols]
    step = max(1, _BLOCK_COSINES // cols.size)
    for start in range(0, rows.size, step):
        block = rows[start : start + step]
        mask = _within_rho(single[block] @ other.T, block, cols, centers, rho)
        counts[start : start + step] = mask.sum(axis=1)
    return counts


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

    The densest cap is the active seed with the most active rho-neighbours
    (itself included), ties going to the lowest index. Neighbour counts are
    computed once in blocks of at most _BLOCK_COSINES cosines and reduced
    by the removed rows after each release, so memory is O(n * d +
    _BLOCK_COSINES), not n x n. The neighbour test is theta <= rho, decided
    on float32 block cosines with a float64 arccos re-check near cos(rho); a
    row always neighbours itself (see the module docstring).
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise EmptyInputError("center matrix must have at least one row")
    if not has_unit_rows(centers):
        raise DomainError("center matrix rows must be unit norm")
    n, d = centers.shape
    budget = params.budget

    if params.mode == MODE_NAIVE_PER_CENTER:
        noised = dp.gaussian_perturb(centers, dp.naive_sigma(budget).sigma, rng)
        fidelities = np.sum(normalize_rows(noised) * centers, axis=1).tolist()
        return ClusteringReport(noised, [1] * n, n, fidelities)

    # float32 copy for the neighbour-count products: n * d * 4 bytes beside centers
    single = centers.astype(np.float32)
    counts = _neighbor_counts(centers, params.rho, single)
    active = np.arange(n)
    released_rows = []
    sizes: list[int] = []
    fidelities = []
    member_indexes: list[np.ndarray] = []
    removed_indexes: list[np.ndarray] = []
    for _ in range(params.max_queries):
        if active.size == 0:
            break
        seed_pos = int(np.argmax(counts[active]))  # first max: lowest index wins
        seed = active[seed_pos : seed_pos + 1]
        cos = (centers[seed] @ centers.T)[:, active]
        within = _within_rho(cos, seed, active, centers, params.rho)[0]
        within[seed_pos] = True
        members = active[within]
        if members.size < params.min_cluster_size:
            break
        p = centers[members].mean(axis=0)
        member_indexes.append(members.copy())
        direction = normalize(p)
        if params.mode == MODE_SANITIZED:
            calibration = dp.sigma_tight(int(members.size), params.rho, budget)
            released = normalize(dp.gaussian_perturb(p, calibration.sigma, rng))
        else:
            released = direction
        released_rows.append(released)
        sizes.append(int(members.size))
        fidelities.append(float(np.dot(released, direction)))
        cos_to_direction = np.clip(centers[active] @ direction, -1.0, 1.0)
        keep = np.arccos(cos_to_direction) > params.rho
        keep[seed_pos] = False
        removed = active[~keep]
        removed_indexes.append(removed)
        active = active[keep]
        if len(sizes) < params.max_queries:
            counts[active] -= _count_within(centers, single, active, removed, params.rho)

    rows = np.array(released_rows, dtype=float).reshape(len(sizes), d)
    charged = len(sizes) if params.mode == MODE_SANITIZED else 0
    return ClusteringReport(rows, sizes, charged, fidelities, member_indexes, removed_indexes)
