"""The consensus-aware margin-softmax loss: CosFace plus foreign negative columns.

For one embedding f with label y, n class centers w_j and K foreign cluster
centers p, every angle is taken between normalized rows, and the logits are

    target class      s * (cos theta_y - m)           (CosFace, Wang et al. 2018)
    other classes     s * cos theta_j
    foreign centers   s * cos theta_p

so each foreign center is one more negative column of the one margin
softmax, with d(logit)/d(cos) = s like any other class. The loss is the
batch mean of logsumexp(logits) minus the target logit, where logsumexp
floors each logit at softmax_floor below the row's largest. Moving an
embedding away from the other clients' released centers lowers the loss,
which is what couples the clients. With K = 0 the loss is the plain CosFace
margin softmax. A foreign logit does not saturate inside a cap: a saturated
logit s has zero gradient there, and when most samples sat inside some
foreign cap its constant mass swamped the class softmax and training
collapsed.

Losses and gradients are defined for raw (not necessarily unit) inputs: every
cosine is computed between internally normalized rows, so the returned
gradients are the ambient gradients through the normalization map and are
tangent to the sphere whenever the inputs are already unit.

One kernel, stacked_loss_gradients, serves a stack of C clients, each with
its own batch, class centers and K_c foreign centers; one client is a stack
of one. Every client's logit rows are padded to n + K columns, K = max K_c,
and a client's bits are those of its call as a stack of one:
- Passes that treat each element alone or reduce over the batch or over d
  run once on the whole stack: the row norms, the three class-center
  products (np.matmul on stacks runs one gemm per client), the clip, the
  softmax and gradient passes, the class-column sums and the padding
  writes. At small shapes a step is mostly NumPy dispatch, so each pass is
  one call for the whole stack wherever the bits allow.
- What reduces along a logit row runs per client, on its own n + K_c
  columns: the softmax denominator, the projection row sum, and both
  products with its foreign centers, which a client with K_c = 0 skips. A
  pairwise sum's grouping and a gemm's blocking depend on the length they
  run over, so a padded row or product would change the bits. Padded
  cosines are 0 and padded logits -inf, which the row maxima skip, and no
  sum reads a padded column.

The kernel works in place, but only on temporaries it allocated itself: it
never writes the caller's arrays, and the returned gradients are fresh
arrays the caller owns.

Precision follows the inputs: float32 embeddings and centers (the training
path's, since the synthetic shards are float32) give float32 cosines,
logits, softmax and gradients, float64 inputs float64 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import row_norms


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


@dataclass
class GradientBundle:
    """Per-client losses with ambient gradients for the embeddings and class centers."""

    d_embeddings: np.ndarray  # (C, b, d), the shape of the embedding stack
    d_centers: np.ndarray  # (C, n, d), the shape of the center stack
    loss: np.ndarray  # (C,), one batch-mean loss per client


def softmax_floor(dtype) -> float:
    """Smallest shifted logit the softmax exponentiates: ln(sqrt(tiny)) of the dtype.

    That is -43.7 in float32 and -354 in float64. It keeps the softmax terms
    and the gradient products made from them normal numbers: at s = 64 the
    float32 terms go subnormal, which slows exp, the divisions and sgemm.
    Such a term is far below the rounding error of the row's largest, which
    is 1. Shifted logits are at least -(2 + m) * s, so in float64 the floor
    binds only for s above about 150.
    """
    return 0.5 * math.log(np.finfo(dtype).tiny)


def _unit_rows_and_norms(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = row_norms(m)
    return m / norms[..., None], norms


def stacked_loss_gradients(
    embeddings: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
    foreign: list[np.ndarray],
    config: LossConfig,
) -> GradientBundle:
    """The consensus loss with analytic gradients for a stack of C clients.

    embeddings is (C, b, d), labels (C, b) integers, centers (C, n, d) and
    foreign C blocks of (K_c, d) foreign centers in the dtype of the
    embeddings and centers. Labels are not range-checked: the caller checks
    them. Returns the (C, b, d) and (C, n, d) gradients and a (C,) array of
    losses, each client's bits those of its call as a stack of one.

    Logit layout per row: n class logits followed by the client's K_c
    foreign logits, padded to K = max K_c, as the module docstring states
    them: every column but the target is s * cos theta, and none saturates.
    Every (C, b, n + K) pass runs in place on the kernel's own buffers, in
    the floating-point order of the one-array-per-expression form kept in
    tests/train_oracle.py, so the bits are the same.
    """
    dtype = np.result_type(embeddings, centers)
    stack, batch, _ = embeddings.shape
    n = centers.shape[1]
    ks = [p.shape[0] for p in foreign]
    k = max(ks)
    s, m = config.scale, config.margin

    f_hat, f_norm = _unit_rows_and_norms(embeddings)
    w_hat, w_norm = _unit_rows_and_norms(centers)
    # Class cosines in the first n columns, foreign cosines in the last K.
    cos_all = np.empty((stack, batch, n + k), dtype=dtype)
    np.matmul(f_hat, w_hat.swapaxes(1, 2), out=cos_all[..., :n])
    cos_all[..., n:] = 0.0  # padding: finite, and never read by a sum
    for c, p in enumerate(foreign):
        if ks[c]:
            np.matmul(f_hat[c], p.T, out=cos_all[c, :, n : n + ks[c]])
    np.clip(cos_all, -1.0, 1.0, out=cos_all)

    # Each row's target column, as one flat index into the (C, b, n + K) buffers.
    target = (np.arange(stack * batch) * (n + k)).reshape(stack, batch) + labels
    logits = np.multiply(cos_all, s)
    flat_logits = logits.reshape(-1)
    flat_logits[target] = s * (cos_all.reshape(-1)[target] - m)
    # The row maxima skip padded columns.
    padded = np.arange(k) >= np.array(ks)[:, None, None]
    np.copyto(logits[..., n:], -np.inf, where=padded)

    target_logits = flat_logits[target]
    row_max = np.maximum.reduce(logits, axis=-1, keepdims=True)
    a = logits
    a -= row_max
    np.maximum(a, softmax_floor(dtype), out=a)
    np.exp(a, out=a)
    denom = np.empty_like(row_max)
    for c in range(stack):
        np.add.reduce(a[c, :, : n + ks[c]], axis=-1, keepdims=True, out=denom[c])
    lse = row_max[..., 0] + np.log(denom[..., 0])
    # The batch mean's bits: np.mean divides in float64 and rounds once, which
    # is the correctly rounded quotient in float32 too.
    loss = np.add.reduce(lse - target_logits, axis=-1)
    loss /= batch

    # a = (softmax - onehot) * s / batch; d(logit)/d(cos) is s in every column.
    a /= denom
    flat_logits[target] -= 1.0
    a *= s / batch

    d_f_hat = a[..., :n] @ w_hat
    d_w_hat = a[..., :n].swapaxes(1, 2) @ f_hat
    # a * cos, row sums for the embeddings and class-column sums for the centers.
    a_cos = cos_all
    a_cos *= a
    proj_f = np.empty_like(denom)
    for c, p in enumerate(foreign):
        if ks[c]:
            d_f_hat[c] += a[c, :, n : n + ks[c]] @ p
        np.add.reduce(a_cos[c, :, : n + ks[c]], axis=-1, keepdims=True, out=proj_f[c])
    proj_w = np.add.reduce(a_cos[..., :n], axis=1)

    # The unit rows are not read again: they take the products proj * unit.
    f_hat *= proj_f
    d_f_hat -= f_hat
    d_f_hat /= f_norm[..., None]
    w_hat *= proj_w[..., None]
    d_w_hat -= w_hat
    d_w_hat /= w_norm[..., None]
    return GradientBundle(d_f_hat, d_w_hat, loss)
