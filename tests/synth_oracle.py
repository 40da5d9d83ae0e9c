"""Reference sampling and evaluation: the federation's allocating versions.

`capfed.synth` samples inputs in place a block of rows at a time and drops
the ground truth, unranks verification pairs with array arithmetic and
gathers their rows straight from the clients' shards. This module keeps
versions that sample each shard whole and normalize out of place (the
identity directions too), return the ground truth beside the federation,
list every distinct pair over the concatenated shards and index that list
with the same draws, so tests can demand the same shard, pair and TAR bytes
from both. Its eval concatenates the shards and embeds every pair's rows,
where `capfed.synth` gathers each distinct row once, a block at a time.
`knn_attack` ranks the gallery rows for one exposed row at a time, so
tests can demand the same scores from the vectorized top-k.
The reference `embed` lives in train_oracle.
"""

from __future__ import annotations

import math

import numpy as np

from capfed.errors import DomainError
from capfed.geometry import normalize_rows
from capfed.synth import SynthParams, SyntheticFederation, VerificationPairs


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
    noise = rng.normal(0.0, 1.0 / math.sqrt(concentration), size=(labels.size, d))
    points = normalize_rows(directions[labels] + noise)
    return (points @ lift.T).astype(np.float32), labels


def generate_federation(
    params: SynthParams, rng: np.random.Generator
) -> tuple[SyntheticFederation, np.ndarray, np.ndarray]:
    """The federation from the same draws, with its ground truth: (fed, directions, lift).

    directions (G, d) holds the unit direction of every identity and lift
    (input_dim, d) the isometry with orthonormal columns, both float64.
    """
    g = params.clients * params.ids_per_client
    directions = normalize_rows(rng.standard_normal((g, params.embed_dim)))
    lift, _ = np.linalg.qr(rng.standard_normal((params.input_dim, params.embed_dim)))
    shards = [
        _sample_inputs(directions, np.arange(c, g, params.clients), params.samples_per_identity,
                       params.concentration, lift, rng)
        for c in range(params.clients)
    ]
    fed = SyntheticFederation(params, [x for x, _ in shards], [y for _, y in shards])
    return fed, directions, lift


def make_verification_pairs(
    fed: SyntheticFederation,
    positives: int,
    negatives: int,
    rng: np.random.Generator,
) -> VerificationPairs:
    """Every distinct pair listed in rank order, then the same draws by rank.

    Positives are each identity's pairs of rows (ascending identity), listed
    as (rows[i], rows[j]) for j ascending and i < j ascending; negatives are
    each client pair's row pairs, client pairs and rows in row-major order.
    The rows the drawn pairs use are listed once each, in ascending order.
    """
    all_y = np.concatenate(fed.client_labels, axis=0)
    pos = []
    for g in np.unique(all_y):
        rows = np.flatnonzero(all_y == g).tolist()
        pos += [(rows[i], rows[j]) for j in range(len(rows)) for i in range(j)]
    offsets = np.cumsum([0] + [y.size for y in fed.client_labels]).tolist()
    neg = [
        (i, j)
        for c in range(len(offsets) - 1)
        for e in range(c + 1, len(offsets) - 1)
        for i in range(offsets[c], offsets[c + 1])
        for j in range(offsets[e], offsets[e + 1])
    ]
    if len(pos) < positives or len(neg) < negatives:
        raise DomainError("could not assemble the requested number of distinct pairs")
    picked = [pos[r] for r in rng.choice(len(pos), size=positives, replace=False)]
    picked += [neg[r] for r in rng.choice(len(neg), size=negatives, replace=False)]
    used = sorted({i for pair in picked for i in pair})
    row_of = {i: r for r, i in enumerate(used)}
    ia = np.array([row_of[i] for i, _ in picked], dtype=np.intp)
    ib = np.array([row_of[j] for _, j in picked], dtype=np.intp)
    same = np.array([True] * positives + [False] * negatives)
    return VerificationPairs(np.array(used, dtype=np.int64), ia, ib, same)


def pairs_of_rows(a, b, same) -> tuple[list[np.ndarray], VerificationPairs]:
    """Pairs (a[i], b[i]) as one shard, the rows of a then those of b, and pairs over it."""
    a, b = np.asarray(a), np.asarray(b)
    pairs = VerificationPairs(np.arange(a.shape[0] + b.shape[0]), np.arange(a.shape[0]),
                              a.shape[0] + np.arange(b.shape[0]), same)
    return [np.concatenate([a, b])], pairs


def _embed(embedder, rows):
    """train_oracle's embed."""
    return normalize_rows(rows @ embedder.T)


def verification_eval(
    embedder, shards, pairs: VerificationPairs, far_targets, buffer=None, *, embed=_embed
) -> dict[float, float]:
    """True-accept rate at each false-accept target, by score threshold sweep.

    It concatenates the shards and embeds the pairs' first rows in one call
    and their second rows in another, so a row that several pairs share is
    embedded once per pair, by embed(embedder, rows). buffer is ignored.
    The threshold for a target is the (k+1)-th largest negative score with
    k = floor(target * #negatives), and acceptance is strict (score > thr):
    the largest attainable TAR whose realized FAR is guaranteed <= target.
    """
    same = np.asarray(pairs.same, dtype=bool)
    if same.all() or (~same).all():
        raise DomainError("verification needs both positive and negative pairs")
    rows = np.concatenate(shards)
    fa = np.asarray(embed(embedder, rows[pairs.ids[pairs.ia]]))
    fb = np.asarray(embed(embedder, rows[pairs.ids[pairs.ib]]))
    scores = np.sum(fa * fb, axis=1)
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


def knn_attack(exposed, gallery: np.ndarray, k: int, targets: list) -> np.ndarray:
    """Top-k retrieval of gallery rows, one exposed row at a time."""
    exposed = np.atleast_2d(np.asarray(exposed, dtype=float))
    sims = normalize_rows(exposed) @ normalize_rows(gallery).T
    scores = np.zeros(exposed.shape[0])
    for i in range(exposed.shape[0]):
        want = {int(t) for t in np.atleast_1d(targets[i])}
        got = np.argsort(-sims[i], kind="stable")[:k].tolist()
        scores[i] = len(want.intersection(got)) / len(want)
    return scores
