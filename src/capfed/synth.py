"""Synthetic federations, verification evaluation, and the neighbor-retrieval attack.

Identity directions are drawn uniformly on the embedding sphere and dealt
round-robin across clients, which maximizes inter-client crowding: nearby
identities usually belong to different clients, so cross-client consensus has
something to resolve. Raw inputs live in a higher-dimensional space reached
through a fixed random isometry, and the embedder has to undo it.

The raw client shards are float32, the dtype the training
path then follows (sgemm runs about twice as fast as dgemm, and the shards
take half the memory): each is lifted in float64 and rounded once. The
lift runs a block of block_rows(lift) rows at a time, written into the
float32 shard, so no float64 temporary is as large as a shard; a row of a
float64 product does not depend on the other rows multiplied with it, and
the generator fills normals in C order, so the shards have the bits and the
generator the state of lifting each shard whole. The ground truth (identity
directions and the lift, float64) is drawn, used and dropped: nothing reads
it after generation. Verification pairs keep only the ids of the shard rows
they use; the eval and the cross-client margin work in the dtype they get.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import DomainError
from .geometry import (
    block_rows, checked_row_norms, has_unit_rows, normalize_rows, sample_uniform_directions,
)


@dataclass(frozen=True)
class SynthParams:
    """Generation knobs for a synthetic federation.

    concentration kappa sets the per-coordinate sample noise variance to
    1/kappa around each identity direction.
    """

    clients: int = 4
    ids_per_client: int = 64
    samples_per_identity: int = 8
    embed_dim: int = 32
    input_dim: int = 48
    concentration: float = 64.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise DomainError(f"clients={self.clients} must be >= 1")
        if self.ids_per_client < 1:
            raise DomainError(f"ids_per_client={self.ids_per_client} must be >= 1")
        if self.samples_per_identity < 1:
            raise DomainError(f"samples_per_identity={self.samples_per_identity} must be >= 1")
        if self.embed_dim < 2:
            raise DomainError(f"embed_dim={self.embed_dim} must be >= 2")
        if self.input_dim < self.embed_dim:
            raise DomainError(
                f"input_dim={self.input_dim} must be >= embed_dim={self.embed_dim}"
            )
        if not self.concentration > 0.0:
            raise DomainError(f"concentration={self.concentration} must be positive")


@dataclass
class SyntheticFederation:
    """Per-client raw shards, without the ground truth that generated them.

    Identity labels are dense global integers, dealt round-robin: client c
    of C holds identities c, c + C, c + 2C, ... The identity directions and
    the lift are not kept (tests/synth_oracle.py returns them beside its
    federation).
    """

    params: SynthParams
    client_inputs: list[np.ndarray]  # per client, (N_c, input_dim), float32
    client_labels: list[np.ndarray]  # per client, (N_c,) global identity ids


def _sample_inputs(
    directions: np.ndarray,
    ids: np.ndarray,
    per_identity: int,
    concentration: float,
    lift: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    d = directions.shape[1]
    labels = np.repeat(ids, per_identity)
    scale = 1.0 / math.sqrt(concentration)
    x = np.empty((labels.size, lift.shape[0]), dtype=np.float32)
    step = block_rows(lift)
    for start in range(0, labels.size, step):
        block = labels[start : start + step]
        points = rng.normal(0.0, scale, size=(block.size, d))
        points += directions[block]  # addition commutes: the bits of directions[block] + noise
        points /= checked_row_norms(points)[:, None]
        x[start : start + step] = points @ lift.T  # rounds to float32 as astype does
    return x, labels


def generate_federation(params: SynthParams, rng: np.random.Generator) -> SyntheticFederation:
    """Draw a full synthetic federation from one stream.

    Identity directions are uniform on the embedding sphere; each sample is
    the identity direction plus isotropic Gaussian noise, renormalized, then
    lifted to input space by a fixed random isometry and rounded to float32.
    The directions and the isometry are dropped on return.
    """
    g = params.clients * params.ids_per_client
    directions = sample_uniform_directions(g, params.embed_dim, rng)
    lift = np.linalg.qr(rng.standard_normal((params.input_dim, params.embed_dim)))[0]

    client_inputs = []
    client_labels = []
    for c in range(params.clients):
        ids = np.arange(c, g, params.clients)
        x, y = _sample_inputs(
            directions, ids, params.samples_per_identity, params.concentration, lift, rng
        )
        client_inputs.append(x)
        client_labels.append(y)
    return SyntheticFederation(
        params=params, client_inputs=client_inputs, client_labels=client_labels
    )


@dataclass
class VerificationPairs:
    """Pairs of shard rows with a same-identity flag; no pair appears twice.

    Pair i is rows (ids[ia[i]], ids[ib[i]]) of the shards laid end to end; ids
    holds each row the pairs use once, ascending, so an eval embeds it once.
    """

    ids: np.ndarray  # (U,) the distinct rows, ascending
    ia: np.ndarray  # (P,) index into ids of each pair's first row
    ib: np.ndarray  # (P,) of its second
    same: np.ndarray  # (P,) bool


def _pair_of_rank(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (i, j), i < j, at each rank of the order (0, 1), (0, 2), (1, 2), (0, 3), ...

    Pair (i, j) has rank j(j - 1)/2 + i. The float square root gives j to
    within one, and one integer step either way makes it exact.
    """
    j = ((1.0 + np.sqrt(8.0 * rank + 1.0)) / 2.0).astype(np.int64)
    j -= j * (j - 1) // 2 > rank
    j += (j + 1) * j // 2 <= rank
    return rank - j * (j - 1) // 2, j


def make_verification_pairs(
    fed: SyntheticFederation,
    positives: int,
    negatives: int,
    rng: np.random.Generator,
) -> VerificationPairs:
    """Sample distinct verification pairs from the federation's private shards.

    Positives are uniform over the distinct pairs of two samples of one
    identity, negatives over the distinct pairs of one sample from each of
    two clients (the regime consensus is supposed to improve): with k_g
    samples of identity g and N_c in shard c, sum_g k_g (k_g - 1)/2 and
    sum_{c<c'} N_c N_c' pairs. A request above either count raises
    DomainError before rng is used. Else one rng.choice(count, size,
    replace=False) per kind draws ranks: positives by identity, then by
    _pair_of_rank over its ascending rows; negatives by client pair (c < c',
    row-major), then row in c, then row in c'. Rows number the shards laid
    end to end; each row a pair uses is listed once, in ascending order, and
    the pairs, positives first, index that list.
    """
    labels = np.concatenate(fed.client_labels)
    order = np.argsort(labels, kind="stable")  # each identity's rows, ascending
    _, id_start, k = np.unique(labels[order], return_index=True, return_counts=True)
    pos_start = np.concatenate(([0], np.cumsum(k * (k - 1) // 2)))
    n = np.array([y.size for y in fed.client_labels], dtype=np.int64)
    row_start = np.concatenate(([0], np.cumsum(n)))
    first, second = np.triu_indices(n.size, 1)
    neg_start = np.concatenate(([0], np.cumsum(n[first] * n[second])))
    if pos_start[-1] < positives or neg_start[-1] < negatives:
        raise DomainError("could not assemble the requested number of distinct pairs: "
                          f"{positives} positives of {pos_start[-1]} and "
                          f"{negatives} negatives of {neg_start[-1]}")
    rank = rng.choice(pos_start[-1], size=positives, replace=False)
    g = np.searchsorted(pos_start, rank, side="right") - 1
    i, j = _pair_of_rank(rank - pos_start[g])
    pos_a, pos_b = order[id_start[g] + i], order[id_start[g] + j]
    rank = rng.choice(neg_start[-1], size=negatives, replace=False)
    block = np.searchsorted(neg_start, rank, side="right") - 1
    i, j = np.divmod(rank - neg_start[block], n[second[block]])
    used, index = np.unique(
        np.concatenate((pos_a, row_start[first[block]] + i, pos_b, row_start[second[block]] + j)),
        return_inverse=True,
    )
    ia, ib = np.split(index, 2)
    return VerificationPairs(used, ia, ib, np.arange(positives + negatives) < positives)


def gather_buffer(shards: list[np.ndarray], pairs: VerificationPairs) -> np.ndarray:
    """verification_eval's buffer: block_rows of shard rows, at most as many as pairs uses."""
    x = shards[0]
    return np.empty((min(pairs.ids.size, block_rows(x)), x.shape[1]), dtype=x.dtype)


def verification_eval(embedder, shards, pairs, far_targets, buffer) -> dict[float, float]:
    """True-accept rate at each false-accept target, by score threshold sweep.

    A score is the cosine of a pair's rows embedded as federation.embed does.
    Each distinct row is gathered into buffer (gather_buffer's, which a caller
    keeps across calls) and embedded into the features min(U, buffer rows) at
    a time, the last block reaching back, on one BLAS thread when all U rows
    make a small product: the bits of embedding the pairs' rows side by side
    (tests/synth_oracle.py; the blas module docstring says why). The
    threshold for a target is the (k+1)-th largest negative score with k =
    floor(target * #negatives), and acceptance is strict (score > thr): the
    largest attainable TAR whose realized FAR is guaranteed <= target.
    """
    same = np.asarray(pairs.same, dtype=bool)
    if same.all() or (~same).all():
        raise DomainError("verification needs both positive and negative pairs")
    ids, (d, d_in) = pairs.ids, embedder.shape
    step = min(buffer.shape[0], ids.size)
    f = np.empty((ids.size, d), dtype=np.result_type(buffer, embedder))
    offsets = np.cumsum([0] + [x.shape[0] for x in shards])
    bounds = np.searchsorted(ids, offsets).tolist()  # each shard's run of ids, which ascend
    with blas.small_product(ids.size, d_in, d):
        for start in range(0, ids.size, step):
            start = min(start, ids.size - step)
            for c, x in enumerate(shards):
                lo, hi = max(bounds[c], start), min(bounds[c + 1], start + step)
                if lo < hi:  # ids are in range, so "clip" never clips: it writes into buffer
                    np.take(x, ids[lo:hi] - offsets[c], 0, buffer[lo - start : hi - start], "clip")
            np.matmul(buffer[:step], embedder.T, out=f[start : start + step])
    f /= checked_row_norms(f)[:, None]
    # Products a block of pairs at a time, in place: no temporary is as large as f.
    scores = np.empty(pairs.ia.size, dtype=f.dtype)
    step = block_rows(f)
    for start in range(0, scores.size, step):
        products = f[pairs.ia[start : start + step]]
        products *= f[pairs.ib[start : start + step]]
        np.add.reduce(products, axis=1, out=scores[start : start + step])
    pos = scores[same]
    neg = np.sort(scores[~same])
    out: dict[float, float] = {}
    for target in far_targets:
        if not 0.0 <= target <= 1.0:
            raise DomainError(f"far target {target} outside [0, 1]")
        k = int(math.floor(target * neg.size))
        thr = neg[neg.size - 1 - k] if k < neg.size else -np.inf
        out[float(target)] = float(np.mean(pos > thr))
    return out


def cross_client_margin(centers_per_client: list[np.ndarray]) -> float:
    """Smallest angle between class centers owned by different clients."""
    if len(centers_per_client) < 2:
        raise DomainError("need centers from at least 2 clients")
    best = math.pi
    mats = [normalize_rows(m) for m in centers_per_client]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            cos = np.clip((mats[i] @ mats[j].T).max(), -1.0, 1.0)
            best = min(best, float(np.arccos(cos)))
    return best


def knn_attack(
    exposed: np.ndarray,
    gallery: np.ndarray,
    k: int,
    targets: list,
) -> np.ndarray:
    """Top-k cosine retrieval of exposed vectors against the gallery's unit rows.

    Gallery row i is identity i. targets gives, per exposed vector, the
    gallery row or set of rows it was derived from; the per-vector score is
    the fraction of those rows among its top-k retrieved rows. Returns the
    (E,) scores. The gallery is used as given, so its rows must be unit
    (has_unit_rows; DomainError otherwise); exposed vectors need not be (noised
    centers are matched by direction). Exposed rows are normalized and scored
    a block at a time, so no similarity block is larger than ROW_BLOCK_BYTES
    and no normalized copy of them is whole; tests/synth_oracle.py normalizes
    and ranks the whole product at once, and the scores are the same.
    """
    exposed = np.atleast_2d(np.asarray(exposed, dtype=float))
    if exposed.shape[1] != gallery.shape[1]:
        raise DomainError(f"exposed dim {exposed.shape[1]} != gallery dim {gallery.shape[1]}")
    if gallery.shape[0] == 0:
        raise DomainError("gallery is empty")
    if not has_unit_rows(gallery):
        raise DomainError("gallery rows must be unit vectors")
    if len(targets) != exposed.shape[0]:
        raise DomainError("one target set per exposed vector is required")
    if k < 1:
        raise DomainError(f"k={k} must be >= 1")
    norms = checked_row_norms(exposed)[:, None]
    scores = np.zeros(exposed.shape[0])
    step = block_rows(gallery.T)  # exposed rows whose (step, G) similarities fill one block
    for start in range(0, exposed.shape[0], step):
        sims = (exposed[start : start + step] / norms[start : start + step]) @ gallery.T
        np.negative(sims, out=sims)
        top = np.argsort(sims, axis=1, kind="stable")[:, :k]
        for i, got in enumerate(top.tolist(), start):
            want = {int(t) for t in np.atleast_1d(targets[i])}
            scores[i] = len(want.intersection(got)) / len(want)
    return scores
