"""Synthetic federations, verification evaluation, and the neighbor-retrieval attack.

Identity directions are drawn uniformly on the embedding sphere and dealt
round-robin across clients, which maximizes inter-client crowding: nearby
identities usually belong to different clients, so cross-client consensus has
something to resolve. Raw inputs live in a higher-dimensional space reached
through a fixed random isometry, and the embedder has to undo it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
)
from .geometry import checked_row_norms, normalize_rows, sample_uniform_directions


@dataclass(frozen=True)
class SynthParams:
    """Generation knobs for a synthetic federation.

    concentration kappa sets the per-coordinate sample noise variance to
    1/kappa around each identity direction; public_identities > 0 adds a
    block of identities shared by every client (a stand-in for a small
    public dataset).
    """

    clients: int = 4
    ids_per_client: int = 64
    samples_per_identity: int = 8
    embed_dim: int = 32
    input_dim: int = 48
    concentration: float = 64.0
    public_identities: int = 0
    public_samples_per_identity: int = 4

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
        if self.public_identities < 0:
            raise DomainError("public_identities must be >= 0")
        if self.public_samples_per_identity < 1:
            raise DomainError(
                f"public_samples_per_identity={self.public_samples_per_identity} must be >= 1"
            )


@dataclass
class SyntheticFederation:
    """Per-client raw shards plus the generating ground truth.

    Identity labels are dense global integers, disjoint across clients;
    identity g belongs to client g mod C. directions holds the true unit
    direction of every identity (private + public) and lift the fixed
    isometry from embedding space to input space.
    """

    params: SynthParams
    directions: np.ndarray  # (G_total, d)
    identity_client: np.ndarray  # (G_private,) owning client per private identity
    lift: np.ndarray  # (input_dim, embed_dim), orthonormal columns
    client_inputs: list[np.ndarray]  # per client, (N_c, input_dim)
    client_labels: list[np.ndarray]  # per client, (N_c,) global identity ids
    public_inputs: np.ndarray | None = None
    public_labels: np.ndarray | None = None


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
    points = rng.normal(0.0, 1.0 / math.sqrt(concentration), size=(labels.size, d))
    points += directions[labels]  # addition commutes: the bits of directions[labels] + noise
    points /= checked_row_norms(points)[:, None]
    return points @ lift.T, labels


def generate_federation(params: SynthParams, rng: np.random.Generator) -> SyntheticFederation:
    """Draw a full synthetic federation from one stream.

    Identity directions are uniform on the embedding sphere; each sample is
    the identity direction plus isotropic Gaussian noise, renormalized, then
    lifted to input space by a fixed random isometry.
    """
    g_private = params.clients * params.ids_per_client
    g_total = g_private + params.public_identities
    directions = sample_uniform_directions(g_total, params.embed_dim, rng)
    identity_client = np.arange(g_private) % params.clients

    raw = rng.standard_normal((params.input_dim, params.embed_dim))
    lift, _ = np.linalg.qr(raw)

    client_inputs = []
    client_labels = []
    for c in range(params.clients):
        ids = np.arange(g_private)[identity_client == c]
        x, y = _sample_inputs(
            directions, ids, params.samples_per_identity, params.concentration, lift, rng
        )
        client_inputs.append(x)
        client_labels.append(y)

    public_inputs = None
    public_labels = None
    if params.public_identities:
        public_ids = np.arange(g_private, g_total)
        public_inputs, public_labels = _sample_inputs(
            directions,
            public_ids,
            params.public_samples_per_identity,
            params.concentration,
            lift,
            rng,
        )
    return SyntheticFederation(
        params=params,
        directions=directions,
        identity_client=identity_client,
        lift=lift,
        client_inputs=client_inputs,
        client_labels=client_labels,
        public_inputs=public_inputs,
        public_labels=public_labels,
    )


@dataclass
class VerificationPairs:
    """Raw input pairs with a same-identity flag; no pair appears twice."""

    a: np.ndarray  # (P, input_dim)
    b: np.ndarray
    same: np.ndarray  # (P,) bool


def _gather_rows(shards: list[np.ndarray], idx: np.ndarray) -> np.ndarray:
    """The rows at idx of the shards' concatenation, gathered without building it."""
    offsets = np.cumsum([0] + [x.shape[0] for x in shards])
    shard = np.searchsorted(offsets, idx, side="right") - 1
    out = np.empty((idx.size, shards[0].shape[1]), dtype=np.result_type(*shards))
    for c, x in enumerate(shards):
        hit = shard == c
        out[hit] = x[idx[hit] - offsets[c]]
    return out


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

    Samples are numbered by their row in the shards laid end to end, but the
    shards are never concatenated: only the pairs' rows are copied out.
    """
    all_y = np.concatenate(fed.client_labels, axis=0)
    order = np.argsort(all_y, kind="stable")  # each identity's rows ascending, as flatnonzero
    ids, starts, sizes = np.unique(all_y[order], return_index=True, return_counts=True)
    by_id = {int(g): order[i : i + n] for g, i, n in zip(ids, starts, sizes)}
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

    eligible = ids[sizes >= 2]
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
    a, b = (_gather_rows(fed.client_inputs, np.array(i, dtype=np.intp)) for i in (idx_a, idx_b))
    return VerificationPairs(a, b, np.array(same, dtype=bool))


def verification_eval(embed, pairs: VerificationPairs, far_targets) -> dict[float, float]:
    """True-accept rate at each false-accept target, by cosine threshold sweep.

    The threshold for a target is the (k+1)-th largest negative score with
    k = floor(target * #negatives), and acceptance is strict (score > thr):
    the largest attainable TAR whose realized FAR is guaranteed <= target.
    What embed returns is never written: the unit rows are new arrays.
    """
    same = np.asarray(pairs.same, dtype=bool)
    if same.all() or (~same).all():
        raise DegenerateInputError("verification needs both positive and negative pairs")
    prod = normalize_rows(embed(pairs.a))
    prod *= normalize_rows(embed(pairs.b))
    scores = np.sum(prod, axis=1)
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
    mats = [normalize_rows(np.asarray(m, dtype=float)) for m in centers_per_client]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            cos = np.clip((mats[i] @ mats[j].T).max(), -1.0, 1.0)
            best = min(best, float(np.arccos(cos)))
    return best


@dataclass
class AttackGallery:
    """Reference embeddings an attacker compares exposed vectors against.

    The gallery keeps one entry (a centroid) per identity.
    """

    ids: np.ndarray  # (E,) identity id per entry
    vectors: np.ndarray  # (E, d) unit rows

    def __post_init__(self) -> None:
        if self.ids.shape[0] != self.vectors.shape[0]:
            raise DomainError("gallery ids and vectors must align")
        if np.unique(self.ids).size != self.ids.size:
            raise DomainError("gallery must have exactly one entry per identity")


@dataclass
class AttackResult:
    success_rate: float
    per_exposed: np.ndarray  # (E,) fraction of each target set retrieved


def knn_attack(
    exposed: np.ndarray,
    gallery: AttackGallery,
    k: int,
    targets: list,
) -> AttackResult:
    """Top-k cosine retrieval of exposed vectors against the gallery.

    targets gives, per exposed vector, the identity or set of identities it
    was derived from; the per-vector score is the fraction of those
    identities appearing among the top-k retrieved identities. Exposed
    vectors need not be unit (noised centers are matched by direction).
    """
    exposed = np.atleast_2d(np.asarray(exposed, dtype=float))
    if exposed.shape[1] != gallery.vectors.shape[1]:
        raise DimensionMismatchError(
            f"exposed dim {exposed.shape[1]} != gallery dim {gallery.vectors.shape[1]}"
        )
    if gallery.vectors.shape[0] == 0:
        raise EmptyInputError("gallery is empty")
    if len(targets) != exposed.shape[0]:
        raise DomainError("one target set per exposed vector is required")
    if k < 1:
        raise DomainError(f"k={k} must be >= 1")
    sims = normalize_rows(exposed) @ normalize_rows(gallery.vectors).T
    # Gallery ids are distinct, so the k best entries are the k best identities.
    top = gallery.ids[np.argsort(-sims, axis=1, kind="stable")[:, :k]]
    scores = np.zeros(exposed.shape[0])
    for i, got in enumerate(top.tolist()):
        want = {int(t) for t in np.atleast_1d(targets[i])}
        scores[i] = len(want.intersection(got)) / len(want)
    return AttackResult(float(np.mean(scores)), scores)
