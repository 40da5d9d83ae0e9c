import dataclasses
import math

import numpy as np

from capfed.geometry import normalize, normalize_rows
from capfed.losses import GradientBundle, stacked_loss_gradients


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
