"""Reference sampling and evaluation: the federation's allocating versions.

`capfed.synth` samples inputs and evaluates pairs in place, and gathers pair
rows straight from the clients' shards; this module keeps the versions they
replaced, which concatenate the shards, group samples by identity with one
mask per identity and normalize out of place, so tests can demand the same
shard, pair and TAR bytes from both. `knn_attack` keeps the per-row loop
that skipped repeated gallery identities, so tests can demand the same scores
from the vectorized top-k. The reference `embed` lives in train_oracle.
"""

from __future__ import annotations

import math

import numpy as np

from capfed.errors import DegenerateInputError, DomainError
from capfed.geometry import normalize_rows
from capfed.synth import AttackGallery, AttackResult, SyntheticFederation, VerificationPairs


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


def make_verification_pairs(
    fed: SyntheticFederation,
    positives: int,
    negatives: int,
    rng: np.random.Generator,
) -> VerificationPairs:
    """Sample balanced verification pairs from the federation's private shards.

    Positive pairs take two distinct samples of one identity. Negative pairs
    take one sample each from two identities of different clients, which is
    the regime federation consensus is supposed to improve.
    """
    all_x = np.concatenate(fed.client_inputs, axis=0)
    all_y = np.concatenate(fed.client_labels, axis=0)
    by_id: dict[int, np.ndarray] = {
        int(g): np.flatnonzero(all_y == g) for g in np.unique(all_y)
    }
    client_of = {int(g): int(fed.identity_client[g]) for g in by_id}

    seen: set[tuple[int, int]] = set()
    idx_a: list[int] = []
    idx_b: list[int] = []
    same: list[bool] = []

    def _push(i: int, j: int, flag: bool) -> bool:
        key = (min(i, j), max(i, j))
        if key in seen or i == j:
            return False
        seen.add(key)
        idx_a.append(i)
        idx_b.append(j)
        same.append(flag)
        return True

    ids = np.array(sorted(by_id))
    eligible = np.array([g for g in ids if by_id[int(g)].size >= 2])
    if eligible.size == 0 and positives > 0:
        raise DegenerateInputError("no identity has two samples; cannot build positive pairs")
    tries = 0
    limit = 50 * (positives + negatives) + 1000
    made_pos = 0
    while made_pos < positives and tries < limit:
        tries += 1
        g = int(rng.choice(eligible))
        i, j = rng.choice(by_id[g], size=2, replace=False)
        if _push(int(i), int(j), True):
            made_pos += 1
    made_neg = 0
    while made_neg < negatives and tries < limit:
        tries += 1
        g, h = rng.choice(ids, size=2, replace=False)
        g, h = int(g), int(h)
        if client_of[g] == client_of[h]:
            continue
        i = int(rng.choice(by_id[g]))
        j = int(rng.choice(by_id[h]))
        if _push(i, j, False):
            made_neg += 1
    if made_pos < positives or made_neg < negatives:
        raise DegenerateInputError("could not assemble the requested number of distinct pairs")
    return VerificationPairs(all_x[idx_a], all_x[idx_b], np.array(same, dtype=bool))


def verification_eval(embed, pairs: VerificationPairs, far_targets) -> dict[float, float]:
    """True-accept rate at each false-accept target, by cosine threshold sweep.

    The threshold for a target is the (k+1)-th largest negative score with
    k = floor(target * #negatives), and acceptance is strict (score > thr):
    the largest attainable TAR whose realized FAR is guaranteed <= target.
    """
    same = np.asarray(pairs.same, dtype=bool)
    if same.all() or (~same).all():
        raise DegenerateInputError("verification needs both positive and negative pairs")
    fa = np.asarray(embed(pairs.a))
    fb = np.asarray(embed(pairs.b))
    scores = np.sum(normalize_rows(fa) * normalize_rows(fb), axis=1)
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



def knn_attack(exposed, gallery: AttackGallery, k: int, targets: list) -> AttackResult:
    """Top-k retrieval that walks each row's ranking and skips repeated identities."""
    exposed = np.atleast_2d(np.asarray(exposed, dtype=float))
    sims = normalize_rows(exposed) @ normalize_rows(gallery.vectors).T
    scores = np.zeros(exposed.shape[0])
    for i in range(exposed.shape[0]):
        want = {int(t) for t in np.atleast_1d(targets[i])}
        order = np.argsort(-sims[i], kind="stable")
        got: list[int] = []
        for e in order:
            gid = int(gallery.ids[e])
            if gid not in got:
                got.append(gid)
            if len(got) == k:
                break
        scores[i] = len(want.intersection(got)) / len(want)
    return AttackResult(float(np.mean(scores)), scores)
