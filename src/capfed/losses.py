"""The consensus-aware margin-softmax loss: CosFace plus foreign-cluster terms.

For one embedding f with label y, n class centers w_j and K foreign cluster
centers p (cap half-angle rho), every angle is taken between normalized
rows, and the logits are

    target class      s * (cos theta_y - m)           (CosFace, Wang et al. 2018)
    other classes     s * cos theta_j
    foreign clusters  s * cos(max(theta_p - rho, 0))

The loss is the batch mean of logsumexp(logits) minus the target logit.
A cluster logit saturates at s inside the cap (theta_p <= rho), where its
gradient is 0, and decays beyond it, so pushing an embedding out of foreign
clusters lowers the loss, which is what couples the clients. With K = 0
the loss is the plain CosFace margin softmax.

Losses and gradients are defined for raw (not necessarily unit) inputs: every
cosine is computed between internally normalized rows, so the returned
gradients are the ambient gradients through the normalization map and are
tangent to the sphere whenever the inputs are already unit.

The kernel works in place, but only on temporaries it allocated itself: it
never writes the caller's arrays, and the returned gradients are fresh
arrays the caller owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from .clustering import SanitizedCluster
from .errors import DomainError, LabelOutOfRangeError, ShapeMismatchError
from .geometry import row_norms

# Keeps the cluster cosines away from arccos's domain edges when differentiating.
_COS_EPS = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """The CosFace scale s and additive cosine margin m."""

    scale: float = 64.0
    margin: float = 0.35

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"scale={self.scale} must be finite and positive")
        if not (math.isfinite(self.margin) and self.margin >= 0.0):
            raise DomainError(f"margin={self.margin} must be finite and nonnegative")


@dataclass(frozen=True)
class ConsensusContext:
    """Foreign cluster centers repelling this client's embeddings.

    Own clusters are excluded: a client is not pushed away from its own data.
    """

    centers: np.ndarray  # (K, d), unit rows; K may be 0

    @classmethod
    def empty(cls, dim: int) -> "ConsensusContext":
        return cls(np.zeros((0, dim)))

    @classmethod
    def from_clusters(
        cls,
        clusters: Iterable[SanitizedCluster],
        own_client: Hashable,
        dim: int,
    ) -> "ConsensusContext":
        foreign = [c.center for c in clusters if c.client != own_client]
        if not foreign:
            return cls.empty(dim)
        return cls(np.asarray(foreign, dtype=float))


@dataclass
class GradientBundle:
    """Loss value with ambient gradients for the embeddings and class centers."""

    d_embeddings: np.ndarray  # same shape as the embedding batch
    d_centers: np.ndarray  # same shape as the center matrix
    loss: float


def _check_batch(embeddings: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> None:
    if embeddings.ndim != 2 or centers.ndim != 2:
        raise ShapeMismatchError("embeddings and centers must be 2-d arrays")
    if embeddings.shape[1] != centers.shape[1]:
        raise ShapeMismatchError(
            f"embedding dim {embeddings.shape[1]} != center dim {centers.shape[1]}"
        )
    if labels.shape != (embeddings.shape[0],):
        raise ShapeMismatchError("labels must be one integer per batch row")
    n = centers.shape[0]
    if labels.size and (labels.min() < 0 or labels.max() >= n):
        raise LabelOutOfRangeError(f"labels must lie in [0, {n - 1}]")


def _unit_rows_and_norms(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = row_norms(m)
    return m / norms[:, None], norms


def loss_gradients(
    embeddings: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
    context: ConsensusContext,
    rho: float,
    config: LossConfig,
) -> GradientBundle:
    """Consensus loss with analytic gradients for embeddings and centers.

    The loss equals the plain margin-softmax loss exactly when the context is
    empty, and is never smaller otherwise: each foreign cluster adds a
    positive term to every denominator.

    Logit layout per row: n class logits followed by K cluster logits, as
    the module docstring states them.

    Every (batch, n + K) pass runs in place on the kernel's own buffers, in
    the floating-point order of the one-array-per-expression form kept in
    tests/train_oracle.py, so the bits are the same.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    labels = np.asarray(labels, dtype=int)
    centers = np.asarray(centers, dtype=float)
    cluster_centers = np.asarray(context.centers, dtype=float).reshape(-1, embeddings.shape[1])
    _check_batch(embeddings, labels, centers)

    batch, _ = embeddings.shape
    n = centers.shape[0]
    k = cluster_centers.shape[0]
    s, m = config.scale, config.margin

    f_hat, f_norm = _unit_rows_and_norms(embeddings)
    w_hat, w_norm = _unit_rows_and_norms(centers)
    # Class cosines in the first n columns, cluster cosines in the last K.
    cos_all = np.empty((batch, n + k))
    cos_cls = cos_all[:, :n]
    np.matmul(f_hat, w_hat.T, out=cos_cls)
    np.clip(cos_cls, -1.0, 1.0, out=cos_cls)

    rows = np.arange(batch)
    logits = np.empty((batch, n + k))
    np.multiply(cos_cls, s, out=logits[:, :n])
    # d(logit)/d(cos) is s for every class logit and cluster_gprime for the
    # cluster logits.
    logits[rows, labels] = s * (cos_cls[rows, labels] - m)

    if k:
        cos_clu = cos_all[:, n:]
        np.matmul(f_hat, cluster_centers.T, out=cos_clu)
        np.clip(cos_clu, -1.0 + _COS_EPS, 1.0 - _COS_EPS, out=cos_clu)
        theta_p = np.arccos(cos_clu)
        beyond = theta_p > rho
        logits[:, n:] = s * np.cos(np.where(beyond, theta_p - rho, 0.0))
        # Subgradient 0 at theta == rho: inside the margin the term is flat.
        cluster_gprime = np.where(beyond, s * np.sin(theta_p - rho) / np.sin(theta_p), 0.0)

    target_logits = logits[rows, labels]
    row_max = logits.max(axis=1, keepdims=True)
    a = logits
    a -= row_max
    np.exp(a, out=a)
    denom = a.sum(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(denom[:, 0])
    loss = float(np.mean(lse - target_logits))

    # a = (softmax - onehot) * gprime / batch
    a /= denom
    a[rows, labels] -= 1.0
    a[:, :n] *= s / batch
    if k:
        cluster_gprime /= batch
        a[:, n:] *= cluster_gprime

    d_f_hat = a[:, :n] @ w_hat
    if k:
        d_f_hat += a[:, n:] @ cluster_centers
    d_w_hat = a[:, :n].T @ f_hat
    # a * cos, row sums for the embeddings and class-column sums for the centers.
    a_cos = cos_all
    a_cos *= a
    proj_f = a_cos.sum(axis=1, keepdims=True)
    proj_w = a_cos[:, :n].sum(axis=0)

    # The unit rows are not read again: they take the products proj * unit.
    f_hat *= proj_f
    d_f_hat -= f_hat
    d_f_hat /= f_norm[:, None]
    w_hat *= proj_w[:, None]
    d_w_hat -= w_hat
    d_w_hat /= w_norm[:, None]
    return GradientBundle(d_f_hat, d_w_hat, loss)
