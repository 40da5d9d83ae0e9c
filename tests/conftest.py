import dataclasses
import math
from typing import NamedTuple

import numpy as np

from capfed import dp
from capfed.clustering import MODE_NOISE_FREE, ClusteringParams, run_clustering
from capfed.geometry import normalize, normalize_rows
from capfed.losses import GradientBundle, stacked_loss_gradients
from dense_oracle import dense_run_clustering


def planted_bundle(center: np.ndarray, count: int, max_angle: float, rng) -> np.ndarray:
    """Unit rows concentrated around a direction, all within max_angle of it.

    The tangential Gaussian is scaled so the draw concentrates safely inside
    max_angle; any stragglers are pulled back onto the boundary.
    """
    center = normalize(center)
    d = center.size
    tau = math.tan(0.8 * max_angle) / math.sqrt(d)
    pts = normalize_rows(center[None, :] + tau * rng.standard_normal((count, d)))
    cos_limit = math.cos(max_angle)
    cos = pts @ center
    bad = cos < cos_limit
    if np.any(bad):
        # project stragglers to the cap boundary, keeping their tangential direction
        tangent = pts[bad] - cos[bad, None] * center[None, :]
        tangent = normalize_rows(tangent)
        pts[bad] = cos_limit * center[None, :] + math.sin(max_angle) * tangent
    return pts


def with_shard_dtype(fed, dtype):
    """The same federation with its client shards cast to dtype."""
    return dataclasses.replace(fed, client_inputs=[x.astype(dtype) for x in fed.client_inputs])


def one_client_loss(f, labels, w, foreign, config):
    """stacked_loss_gradients on a stack of one: 2-d gradients and the loss as a float."""
    bundle = stacked_loss_gradients(f[None], labels[None], w[None], [foreign], config)
    return GradientBundle(bundle.d_embeddings[0], bundle.d_centers[0], float(bundle.loss[0]))


class SwapMatch(NamedTuple):
    """One query of the noise-free releases of two neighbouring center matrices."""

    ratio: float  # ||p - p'|| / the larger stated tight sensitivity of the two caps
    transcript_differs: bool  # the release count, this query's size or its sigma differs
    members: np.ndarray  # the cap's rows in x
    swapped_members: np.ndarray  # the cap's rows in x with the row swapped


def noise_free_members(x: np.ndarray, params: ClusteringParams) -> list[np.ndarray]:
    """Each noise-free query's members of x, taken from the dense oracle.

    The report holds no members, the oracle does; its release count, sizes
    and centers must first agree with run_clustering's bit for bit.
    """
    params = dataclasses.replace(params, mode=MODE_NOISE_FREE)
    got = run_clustering(x, params, np.random.default_rng(0))
    want, members, _ = dense_run_clustering(x, params, np.random.default_rng(0))
    assert got.queries_used == want.queries_used
    assert got.sizes == want.sizes
    assert got.centers.tobytes() == want.centers.tobytes()
    return members


def swap_witness(x: np.ndarray, i: int, row: np.ndarray, params: ClusteringParams) -> list[SwapMatch]:
    """Compare the noise-free releases of x and of x with row i swapped for row, query by query.

    p is a cap's mean x[members].mean(axis=0), the point the Gaussian is
    calibrated for, and the ratio divides ||p - p'|| by tight_sensitivity of
    the cap's size (the larger of the two sides'). A ratio above 1 is a
    neighbour the stated sensitivity does not cover. Queries are matched by
    their order; a query only one side makes is not matched but shows as a
    differing transcript.
    """
    swapped = x.copy()
    swapped[i] = row
    before = noise_free_members(x, params)
    after = noise_free_members(swapped, params)
    count_differs = len(before) != len(after)
    matches = []
    for members, other in zip(before, after):
        move = x[members].mean(axis=0) - swapped[other].mean(axis=0)
        delta = max(dp.tight_sensitivity(int(m.size), params.rho) for m in (members, other))
        differs = count_differs or members.size != other.size  # sigma follows the size
        matches.append(SwapMatch(float(np.linalg.norm(move)) / delta, differs, members, other))
    return matches
