"""Dense reference for densest-cap clustering: the full n x n angle matrix.

`capfed.clustering` streams neighbour counts over blocks of cosines; this
module keeps the straightforward dense version that tests compare it
against. It holds n^2 float64 angles, so use it on small inputs only.
"""

from __future__ import annotations

import numpy as np

from capfed import dp
from capfed.clustering import (
    MODE_SANITIZED,
    ClusteringParams,
    ClusteringReport,
)
from capfed.errors import DomainError
from capfed.geometry import normalize


def pairwise_angles(centers: np.ndarray) -> np.ndarray:
    """n x n matrix of angles between rows; symmetric, and 0 between identical rows.

    A row and an identical copy of it are at angle 0, as they are to
    `capfed.clustering`, though their rounded dot product may sit below 1.
    """
    centers = np.asarray(centers, dtype=float)
    gram = np.clip(centers @ centers.T, -1.0, 1.0)
    theta = np.arccos(gram)
    _, copies = np.unique(centers, axis=0, return_inverse=True)
    copies = copies.ravel()
    theta[copies[:, None] == copies[None, :]] = 0.0  # the diagonal included
    return theta


def densest_cap(
    centers: np.ndarray,
    active: np.ndarray,
    rho: float,
    theta: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Largest seed-neighborhood among the active rows, its mean and its seed.

    For each active seed i the candidate set is every active j with
    theta[i, j] <= rho (the seed included). Returns the member indexes of the
    winning seed (ties broken by the lowest seed index), the plain
    arithmetic mean of those rows, not normalized, and the seed's index.
    """
    centers = np.asarray(centers, dtype=float)
    active = np.asarray(active, dtype=int)
    if active.size == 0:
        raise DomainError("active index set is empty")
    if theta is None:
        theta = pairwise_angles(centers)
    sub = theta[np.ix_(active, active)]
    neighbor = sub <= rho
    counts = neighbor.sum(axis=1)
    seed_pos = int(np.argmax(counts))  # argmax takes the first max: lowest index wins
    members = active[neighbor[seed_pos]]
    p = centers[members].mean(axis=0)
    return members, p, int(active[seed_pos])


def dense_run_clustering(
    centers: np.ndarray, params: ClusteringParams, rng: np.random.Generator
) -> tuple[ClusteringReport, list[np.ndarray], list[np.ndarray]]:
    """`run_clustering` in sanitized or noise_free mode over the dense angle matrix.

    Returns the report with each query's members and the rows each query
    removed from the active set, which the report does not hold.
    """
    centers = np.asarray(centers, dtype=float)
    budget = params.budget
    theta = pairwise_angles(centers)
    active = np.arange(centers.shape[0])
    released_rows, sizes, fidelities, member_indexes, removed_indexes = [], [], [], [], []
    for _ in range(params.max_queries):
        if active.size == 0:
            break
        members, p, seed = densest_cap(centers, active, params.rho, theta)
        if members.size < params.min_cluster_size:
            break
        member_indexes.append(members)
        direction = normalize(p)
        if params.mode == MODE_SANITIZED:
            sigma = dp.gaussian_sigma(dp.tight_sensitivity(int(members.size), params.rho), budget)
            released = normalize(dp.gaussian_perturb(p, sigma, rng))
        else:
            released = direction.copy()
        released_rows.append(released)
        sizes.append(int(members.size))
        fidelities.append(float(np.dot(released, direction)))
        keep = np.arccos(np.clip(centers[active] @ direction, -1.0, 1.0)) > params.rho
        keep[active == seed] = False  # the seed is always removed
        removed_indexes.append(active[~keep])
        active = active[keep]
    report = ClusteringReport(
        np.array(released_rows, dtype=float).reshape(len(sizes), centers.shape[1]),
        sizes,
        len(sizes) if params.mode == MODE_SANITIZED else 0,
        fidelities,
    )
    return report, member_indexes, removed_indexes
