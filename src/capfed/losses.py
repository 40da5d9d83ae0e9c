"""The consensus-aware margin-softmax loss: CosFace plus foreign-cluster terms.

For one embedding f with label y, n class centers w_j and K foreign cluster
centers p (cap half-angle rho), every angle is taken between normalized
rows, and the logits are

    target class      s * (cos theta_y - m)           (CosFace, Wang et al. 2018)
    other classes     s * cos theta_j
    foreign clusters  s * cos(max(theta_p - rho, 0))

The loss is the batch mean of logsumexp(logits) minus the target logit,
where logsumexp floors each logit at softmax_floor below the row's largest.
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

Precision follows the inputs: float32 embeddings and centers (the training
path's, since the synthetic shards are float32) give float32 cosines,
logits, softmax and gradients, float64 inputs float64 throughout. One block
is float64 in either case: the (batch, K) cluster angles, because float32
rounds the clip bound 1 - 1e-12 to 1.0, where theta_p = 0 and the cluster
derivative sin(theta_p - rho) / sin(theta_p) is 0 / 0. Their logits and
derivatives are rounded to the input dtype before they enter the softmax.
The foreign centers are released in float64 and cast to the training dtype
once per round, by federation.foreign_centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LabelOutOfRangeError, ShapeMismatchError
from .geometry import float_array, row_norms

# Keeps the cluster cosines away from arccos's domain edges when differentiating;
# the clip and the angles are float64 for every input dtype.
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
    """The (K, d) foreign cluster centers for loss_gradients; K may be 0.

    A bare array would do; the holder stays because the benchmark harness
    (benchmarks/tracing.py) counts K from the `.centers` of this argument.
    """

    centers: np.ndarray


@dataclass
class GradientBundle:
    """Loss value with ambient gradients for the embeddings and class centers."""

    d_embeddings: np.ndarray  # same shape as the embedding batch
    d_centers: np.ndarray  # same shape as the center matrix
    loss: float


def softmax_floor(dtype) -> float:
    """Smallest shifted logit the softmax exponentiates: ln(sqrt(tiny)) of the dtype.

    That is -43.7 in float32 and -354 in float64. It keeps the softmax terms
    and the gradient products made from them normal numbers: at s = 64 the
    float32 terms go subnormal, which makes exp, the divisions and sgemm
    several times slower. Such a term is far below the rounding error of the
    row's largest, which is 1. Shifted logits are at least -(2 + m) * s, so
    in float64 the floor binds only for s above about 150.
    """
    return 0.5 * math.log(np.finfo(dtype).tiny)


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

    context holds the K foreign cluster centers, (K, d), K may be 0; a
    client is not pushed away from its own clusters, so they are not
    among them. The loss equals the plain margin-softmax loss exactly when
    K = 0, and is never smaller otherwise: each foreign cluster adds a
    positive term to every denominator.

    Logit layout per row: n class logits followed by K cluster logits, as
    the module docstring states them.

    Every (batch, n + K) pass runs in place on the kernel's own buffers, in
    the floating-point order of the one-array-per-expression form kept in
    tests/train_oracle.py, so the bits are the same.
    """
    embeddings = float_array(embeddings)
    labels = np.asarray(labels, dtype=int)
    centers = float_array(centers)
    dtype = np.result_type(embeddings, centers)
    cluster_centers = np.asarray(context.centers, dtype=dtype).reshape(-1, embeddings.shape[1])
    _check_batch(embeddings, labels, centers)

    batch, _ = embeddings.shape
    n = centers.shape[0]
    k = cluster_centers.shape[0]
    s, m = config.scale, config.margin

    f_hat, f_norm = _unit_rows_and_norms(embeddings)
    w_hat, w_norm = _unit_rows_and_norms(centers)
    # Class cosines in the first n columns, cluster cosines in the last K.
    cos_all = np.empty((batch, n + k), dtype=dtype)
    cos_cls = cos_all[:, :n]
    np.matmul(f_hat, w_hat.T, out=cos_cls)
    np.clip(cos_cls, -1.0, 1.0, out=cos_cls)

    rows = np.arange(batch)
    logits = np.empty((batch, n + k), dtype=dtype)
    np.multiply(cos_cls, s, out=logits[:, :n])
    # d(logit)/d(cos) is s for every class logit and cluster_gprime for the
    # cluster logits.
    logits[rows, labels] = s * (cos_cls[rows, labels] - m)

    if k:
        cos_clu = cos_all[:, n:]
        np.matmul(f_hat, cluster_centers.T, out=cos_clu)
        clipped = np.clip(cos_clu.astype(float), -1.0 + _COS_EPS, 1.0 - _COS_EPS)
        cos_clu[...] = clipped
        theta_p = np.arccos(clipped)
        beyond = theta_p > rho
        logits[:, n:] = s * np.cos(np.where(beyond, theta_p - rho, 0.0))
        # Subgradient 0 at theta == rho: inside the margin the term is flat.
        cluster_gprime = np.where(beyond, s * np.sin(theta_p - rho) / np.sin(theta_p), 0.0)

    target_logits = logits[rows, labels]
    row_max = logits.max(axis=1, keepdims=True)
    a = logits
    a -= row_max
    np.maximum(a, softmax_floor(dtype), out=a)
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
        a[:, n:] *= cluster_gprime.astype(dtype, copy=False)

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
