"""Margin-softmax embedding losses, with and without foreign-cluster repulsion.

The consensus-aware variant extends the plain margin softmax by appending one
extra denominator term per foreign cluster: exp(mu), where mu saturates at the
full scale s inside the cluster's margin and decays with the angle beyond it.
Pushing a sample's embedding out of foreign clusters therefore lowers the
loss, which is what couples the clients.

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

KIND_COSFACE = "cosface"
KIND_ARCFACE = "arcface"

_DEFAULT_MARGINS = {KIND_COSFACE: 0.35, KIND_ARCFACE: 0.5}

# Keeps cos/arccos chains away from their domain edges when differentiating.
_COS_EPS = 1e-12
_ARC_CLAMP_TINY = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """Loss family plus its scale s and margin m.

    margin=None picks the family's customary default (0.35 for cosface,
    0.5 for arcface).
    """

    kind: str = KIND_COSFACE
    scale: float = 64.0
    margin: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_COSFACE, KIND_ARCFACE):
            raise DomainError(f"kind={self.kind!r} not one of ('cosface', 'arcface')")
        if not self.scale > 0.0:
            raise DomainError(f"scale={self.scale} must be positive")
        if self.margin is None:
            object.__setattr__(self, "margin", _DEFAULT_MARGINS[self.kind])
        if self.margin < 0.0:
            raise DomainError(f"margin={self.margin} must be nonnegative")


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

    Logit layout per row: n class logits followed by K cluster logits. The
    target class logit uses the margin form, the other class logits the plain
    s*cos form, and cluster logits the saturating cluster similarity.

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
    # d(logit)/d(cos) is s for every class logit but an arcface target, and
    # cluster_gprime for the cluster logits.
    target_gprime = None

    target_cos = cos_cls[rows, labels]
    if config.kind == KIND_COSFACE:
        logits[rows, labels] = s * (target_cos - m)
    else:
        ct = np.clip(target_cos, -1.0 + _COS_EPS, 1.0 - _COS_EPS)
        theta = np.arccos(ct)
        clamp_limit = math.pi - m + _ARC_CLAMP_TINY
        clamped = theta > clamp_limit
        theta_eff = np.where(clamped, clamp_limit, theta)
        logits[rows, labels] = s * np.cos(theta_eff - m)
        target_gprime = np.where(clamped, 0.0, s * np.sin(theta_eff - m) / np.sin(theta))

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
    target_a = a[rows, labels]
    a[:, :n] *= s / batch
    if target_gprime is not None:  # an arcface target's derivative is not s
        a[rows, labels] = target_a * (target_gprime / batch)
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
