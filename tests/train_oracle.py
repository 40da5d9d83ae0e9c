"""Reference training path: the allocating loss kernel and local SGD round.

`capfed.losses.stacked_loss_gradients` and
`capfed.federation.client_local_round` work in place on their own buffers
and step a group of clients as one stack; this module keeps the
straightforward versions they replaced, one fresh array per expression and
one client at a time, so tests can demand the same loss bits and gradient
bytes from both. The row norms go through np.linalg.norm, as they did
before `geometry.row_norms`. Like the package, every function here follows
its inputs' dtype (`geometry.float_array`): float64 inputs give the float64
bits, float32 inputs the float32 bits. Helpers whose behaviour did not
change (`GradientBundle`, the loss constants, `float_array`) are imported
from the package. `margin_similarity` is the scalar, one-angle form of the
kernel's logits (a foreign center's logit is the "negative" one), and
`finite_diff_check` is the central-difference check the gradient tests
judge the kernel by.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from capfed import losses, synth
from capfed.errors import DomainError, ZeroVectorError
from capfed.federation import ClientState, FederationConfig, derive_rng
from capfed.geometry import ZERO_NORM_FLOOR, float_array
from capfed.losses import GradientBundle, LossConfig


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Normalize every row of a matrix to unit length."""
    m = float_array(m)
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    if np.any(norms <= ZERO_NORM_FLOOR):
        bad = int(np.argmax(norms <= ZERO_NORM_FLOOR))
        raise ZeroVectorError(f"row {bad} has norm {float(norms[bad, 0]):.3e}")
    return m / norms


def margin_similarity(config: LossConfig, theta: float, role: str) -> float:
    """Scaled similarity logit for one angle.

    role "positive" subtracts the margin from the cosine; role "negative" is
    s * cos(theta).
    """
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta={theta} outside [0, pi]")
    if role == "negative":
        return config.scale * math.cos(theta)
    if role != "positive":
        raise DomainError(f"role={role!r} not 'positive' or 'negative'")
    return config.scale * (math.cos(theta) - config.margin)


def finite_diff_check(
    fn: Callable[[np.ndarray], float],
    point: np.ndarray,
    analytic: np.ndarray,
    h: float = 1e-5,
) -> float:
    """Worst relative disagreement between central differences and a gradient.

    Per-coordinate error |fd - analytic| is normalized by
    max(|fd|, |analytic|, 0.001 * max(1, ||analytic||_inf)) so that
    coordinates near zero are judged against the overall gradient scale
    instead of blowing up.
    """
    if h <= 0.0:
        raise DomainError(f"h={h} must be positive")
    point = np.asarray(point, dtype=float)
    analytic = np.asarray(analytic, dtype=float)
    if point.shape != analytic.shape:
        raise DomainError("analytic gradient must match the point's shape")
    flat = point.ravel()
    fd = np.zeros(flat.size)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        hi = fn(bumped.reshape(point.shape))
        bumped[i] = flat[i] - h
        lo = fn(bumped.reshape(point.shape))
        fd[i] = (hi - lo) / (2.0 * h)
    an = analytic.ravel()
    floor = 1e-3 * max(1.0, float(np.max(np.abs(an))) if an.size else 1.0)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), floor)
    if fd.size == 0:
        return 0.0
    return float(np.max(np.abs(fd - an) / denom))


def _unit_rows_and_norms(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / norms, norms[:, 0]


def _core(
    embeddings: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
    cluster_centers: np.ndarray,
    config: LossConfig,
) -> GradientBundle:
    """The allocating reference for one client of capfed.losses.stacked_loss_gradients.

    Logit layout per row: n class logits followed by K foreign logits. The
    target class logit uses the margin form and every other logit, class or
    foreign, the plain s*cos form, so d(logit)/d(cos) is s in every column.
    """
    embeddings = float_array(embeddings)
    labels = np.asarray(labels, dtype=int)
    centers = float_array(centers)
    dtype = np.result_type(embeddings, centers)
    cluster_centers = np.asarray(cluster_centers, dtype=dtype).reshape(-1, embeddings.shape[1])

    batch, _ = embeddings.shape
    n = centers.shape[0]
    s, m = config.scale, config.margin

    f_hat, f_norm = _unit_rows_and_norms(embeddings)
    w_hat, w_norm = _unit_rows_and_norms(centers)
    cos_cls = np.clip(f_hat @ w_hat.T, -1.0, 1.0)
    cos_clu = np.clip(f_hat @ cluster_centers.T, -1.0, 1.0)
    cos_all = np.concatenate([cos_cls, cos_clu], axis=1)

    rows = np.arange(batch)
    logits = s * cos_all
    logits[rows, labels] = s * (cos_cls[rows, labels] - m)

    row_max = logits.max(axis=1, keepdims=True)
    shifted = logits - row_max
    exp = np.exp(np.maximum(shifted, losses.softmax_floor(dtype)))
    denom = exp.sum(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(denom[:, 0])
    loss = float(np.mean(lse - logits[rows, labels]))

    soft = exp / denom
    a = soft.copy()
    a[rows, labels] -= 1.0
    a = a * (s / batch)

    d_f_hat = a[:, :n] @ w_hat
    if cluster_centers.shape[0]:
        d_f_hat = d_f_hat + a[:, n:] @ cluster_centers
    proj_f = np.sum(a * cos_all, axis=1, keepdims=True)
    d_embeddings = (d_f_hat - proj_f * f_hat) / f_norm[:, None]

    d_w_hat = a[:, :n].T @ f_hat
    proj_w = np.sum(a[:, :n] * cos_cls, axis=0)
    d_centers = (d_w_hat - proj_w[:, None] * w_hat) / w_norm[:, None]

    return GradientBundle(d_embeddings, d_centers, loss)


def client_local_round(
    group: list[ClientState],
    broadcast_embedder: np.ndarray,
    foreign: list[np.ndarray],
    config: FederationConfig,
    rngs: list[np.random.Generator],
) -> tuple[list[ClientState], list[float]]:
    """The group signature of the package's local round, one client at a time."""
    rounds = [
        _one_client_round(state, broadcast_embedder, p, config, rng)
        for state, p, rng in zip(group, foreign, rngs, strict=True)
    ]
    return [state for state, _ in rounds], [loss for _, loss in rounds]


def _one_client_round(
    state: ClientState,
    broadcast_embedder: np.ndarray,
    foreign: np.ndarray,
    config: FederationConfig,
    rng: np.random.Generator,
) -> tuple[ClientState, float]:
    """One client's local optimization pass for a fedavg round.

    Syncs the broadcast embedder, then runs local_epochs passes of minibatch
    SGD on the consensus loss. Class-center rows are renormalized after every
    step. Returns the updated state and the mean minibatch loss.
    """
    n = state.inputs.shape[0]
    if n == 0:
        raise DomainError(f"client {state.client_id} has no data")
    a = np.array(broadcast_embedder, dtype=state.inputs.dtype)
    w = state.centers.copy()
    lr, wd = config.learning_rate, config.weight_decay
    batch = min(config.batch_size, n)
    batch_losses = []
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            rows = order[start : start + batch]
            x = state.inputs[rows]
            raw = x @ a.T
            bundle = _core(raw, state.labels[rows], w, foreign, config.loss)
            batch_losses.append(bundle.loss)
            d_a = bundle.d_embeddings.T @ x
            a -= lr * (d_a + wd * a)
            w = normalize_rows(w - lr * bundle.d_centers)
    new_state = replace(state, embedder=a, centers=w)
    return new_state, float(np.mean(batch_losses))


def embed(embedder: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Unit-normalized linear features for a batch of raw inputs."""
    return normalize_rows(np.asarray(inputs) @ embedder.T)


def initialize_clients(
    fed: synth.SyntheticFederation,
    config: FederationConfig,
    seed: int,
) -> tuple[list[ClientState], np.ndarray]:
    """Build per-client states and the shared initial embedder.

    The embedder init is broadcast (identical for every client). Class
    centers start as the normalized per-class feature means under that init,
    standing in for a warm start.
    """
    d, d_in = fed.params.embed_dim, fed.params.input_dim
    x0 = fed.client_inputs[0]
    init_rng = derive_rng(seed, "init")
    embedder0 = (init_rng.standard_normal((d, d_in)) / np.sqrt(d_in)).astype(x0.dtype)

    states = []
    for c in range(fed.params.clients):
        x = fed.client_inputs[c]
        y_global = fed.client_labels[c]
        ids = np.unique(y_global)
        local_of = {int(g): i for i, g in enumerate(ids)}
        y_local = np.array([local_of[int(g)] for g in y_global])

        feats = embed(embedder0, x)
        centers = np.stack([feats[y_local == i].mean(axis=0) for i in range(ids.size)])
        centers = normalize_rows(centers)
        states.append(
            ClientState(
                client_id=c,
                embedder=embedder0.copy(),
                centers=centers,
                inputs=x,
                labels=y_local,
            )
        )
    return states, embedder0
