"""Simulated federated training rounds with cluster exchange and FedAvg.

Each round: every online client releases sanitized (or noise-free) clusters
of its class centers, receives everyone else's clusters, starts from the
broadcast embedder and runs local SGD on the consensus loss, and the server
replaces the broadcast embedder with the coordinate-wise mean of the
returned ones (FedAvg). Class centers never leave their client; the server
only ever holds embedder parameters and released cluster centers.

All randomness is drawn from streams keyed by (seed, purpose, round, client),
so identical runs replay identically.

Training follows the dtype of the client shards, which
synth.generate_federation makes float32: the embedders, features, class
centers, loss kernel, SGD updates, FedAvg and the verification eval run in
it, and float64 shards give the float64 bits of the same code. What decides
or releases a private vector stays float64: run_clustering receives the
centers upcast to float64 and renormalized (its unit-row check holds rows
to 1e-9, which float32 normalization misses by about sqrt(d) * 6e-8), and
the cap mean, the noise calibration and draw, the normalization of the
released centers and the ledger are float64 there. The released centers
are cast to the training dtype once per round, when each client's
ConsensusContext is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import clustering, dp, losses, synth
from .errors import EmptyShardError, ShapeMismatchError, ValidationError
from .geometry import checked_row_norms, normalize_rows

MODE_PHI = "phi"  # conventional: no clusters exchanged
MODE_PHI_HAT = "phi-hat"  # sanitized clusters
MODE_PHI_P = "phi-p"  # noise-free clusters
RUN_MODES = (MODE_PHI, MODE_PHI_HAT, MODE_PHI_P)

_CLUSTER_MODE_FOR_RUN = {
    MODE_PHI_HAT: clustering.MODE_SANITIZED,
    MODE_PHI_P: clustering.MODE_NOISE_FREE,
}


def derive_rng(seed: int, *key) -> np.random.Generator:
    """Independent generator for one (purpose, round, client, ...) slot.

    Strings in the key are folded into integers so distinct purposes get
    distinct streams.
    """
    ints = [int(seed) & 0xFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            ints.append(sum((i + 1) * b for i, b in enumerate(part.encode())) & 0xFFFFFFFF)
        else:
            ints.append(int(part) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(ints))


@dataclass(frozen=True)
class FederationConfig:
    """Everything one simulated training run needs besides the data and seed."""

    rounds: int = 10
    mode: str = MODE_PHI_HAT
    clustering_params: clustering.ClusteringParams = field(
        default_factory=clustering.ClusteringParams
    )
    loss: losses.LossConfig = field(default_factory=losses.LossConfig)
    learning_rate: float = 0.1
    weight_decay: float = 5e-4
    batch_size: int = 64
    local_epochs: int = 1
    offline_probability: float = 0.0
    eval_positives: int = 1000
    eval_negatives: int = 1000
    far_targets: tuple[float, ...] = (1e-2,)

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValidationError("rounds must be >= 1")
        if self.mode not in RUN_MODES:
            raise ValidationError(f"mode={self.mode!r} not one of {RUN_MODES}")
        if not 0.0 <= self.offline_probability <= 1.0:
            raise ValidationError("offline_probability must lie in [0, 1]")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.local_epochs < 1:
            raise ValidationError("local_epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValidationError(f"learning_rate={self.learning_rate} must be finite and > 0")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValidationError(f"weight_decay={self.weight_decay} must be finite and >= 0")
        if self.eval_positives < 1 or self.eval_negatives < 1:
            raise ValidationError("eval_positives and eval_negatives must be >= 1")
        if not self.far_targets or not all(0.0 <= t <= 1.0 for t in self.far_targets):
            raise ValidationError(f"far_targets={self.far_targets} must be nonempty, in [0, 1]")


@dataclass
class ClientState:
    """One client's private world: embedder copy, class centers, and shard."""

    client_id: int
    embedder: np.ndarray  # (embed_dim, input_dim), in the inputs' dtype
    centers: np.ndarray  # (n_classes, embed_dim), unit rows, in the inputs' dtype
    inputs: np.ndarray  # (N, input_dim), the shard as generated (float32 from synth)
    labels: np.ndarray  # (N,) local class indexes in [0, n_classes)
    global_ids: np.ndarray  # (n_classes,) global identity per local class


@dataclass
class ServerState:
    """What the coordinator is allowed to hold: no class centers, ever."""

    embedder: np.ndarray
    received_clusters: list[clustering.SanitizedCluster] = field(default_factory=list)
    ledger: dp.PrivacyLedger = field(default_factory=dp.PrivacyLedger)


def embed(embedder: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Unit-normalized linear features for a batch of raw inputs, in their dtype."""
    feats = np.asarray(inputs) @ embedder.T
    feats /= checked_row_norms(feats)[:, None]
    return feats


def initialize_clients(
    fed: synth.SyntheticFederation,
    config: FederationConfig,
    seed: int,
) -> tuple[list[ClientState], np.ndarray]:
    """Build per-client states and the shared initial embedder.

    The embedder init is broadcast (identical for every client). Class
    centers start as the normalized per-class feature means under that init,
    standing in for a warm start. The embedder is drawn in float64 and cast
    to the shards' dtype, which everything here then follows. No field of
    config is read.
    """
    d, d_in = fed.params.embed_dim, fed.params.input_dim
    init_rng = derive_rng(seed, "init")
    embedder0 = init_rng.standard_normal((d, d_in)) / np.sqrt(d_in)
    embedder0 = embedder0.astype(fed.client_inputs[0].dtype, copy=False)

    states = []
    for c in range(fed.params.clients):
        x = fed.client_inputs[c]
        ids, y_local = np.unique(fed.client_labels[c], return_inverse=True)
        centers = normalize_rows(_class_means(embed(embedder0, x), y_local, ids.size))
        states.append(
            ClientState(
                client_id=c,
                embedder=embedder0.copy(),
                centers=centers,
                inputs=x,
                labels=y_local,
                global_ids=ids,
            )
        )
    return states, embedder0


def _class_means(feats: np.ndarray, labels: np.ndarray, classes: int) -> np.ndarray:
    """Per-class mean rows, bit-identical to feats[labels == i].mean(axis=0).

    That mean adds a class's rows to 0.0 one after another in sample order,
    then divides by the count. Here the j-th sample of every class is added
    in one vectorized step, for j = 0, 1, ...: the same additions in the same
    order, with one step per sample of the largest class.
    """
    counts = np.bincount(labels, minlength=classes)
    by_class = np.argsort(labels, kind="stable")
    rank = np.empty_like(by_class)
    rank[by_class] = np.arange(labels.size) - np.repeat(np.cumsum(counts) - counts, counts)
    by_rank = np.argsort(rank, kind="stable")
    sums = np.zeros((classes, feats.shape[1]), dtype=feats.dtype)
    start = 0
    for end in np.cumsum(np.bincount(rank)):
        rows = by_rank[start:end]
        sums[labels[rows]] += feats[rows]
        start = end
    return sums / counts[:, None].astype(feats.dtype)


def client_local_round(
    state: ClientState,
    broadcast_embedder: np.ndarray,
    foreign: losses.ConsensusContext,
    config: FederationConfig,
    rng: np.random.Generator,
) -> tuple[ClientState, float]:
    """One client's local optimization pass for a round.

    Syncs the broadcast embedder, then runs local_epochs passes of minibatch
    SGD on the consensus loss. Class-center rows are renormalized after every
    step. Returns the updated state and the mean minibatch loss. The local
    embedder is a copy of the broadcast one in the shard's dtype.
    """
    n = state.inputs.shape[0]
    if n == 0:
        raise EmptyShardError(f"client {state.client_id} has no data")
    a = broadcast_embedder.astype(state.inputs.dtype)
    w = state.centers.copy()
    rho = config.clustering_params.rho
    lr, wd = config.learning_rate, config.weight_decay
    batch = min(config.batch_size, n)
    batch_losses = []
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            rows = order[start : start + batch]
            x = state.inputs[rows]
            raw = x @ a.T
            bundle = losses.loss_gradients(
                raw, state.labels[rows], w, foreign, rho, config.loss
            )
            batch_losses.append(bundle.loss)
            # a -= lr * (d_a + wd * a) and w = normalize_rows(w - lr * d_w),
            # in the same floating-point order, in place on arrays this round owns.
            step = bundle.d_embeddings.T @ x
            step += wd * a
            step *= lr
            a -= step
            d_w = bundle.d_centers
            d_w *= lr
            w -= d_w
            w /= checked_row_norms(w)[:, None]
    new_state = replace(state, embedder=a, centers=w)
    return new_state, float(np.mean(batch_losses))


def _pairwise_tree_sum(items: list[np.ndarray]) -> np.ndarray:
    while len(items) > 1:
        merged = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def aggregate_fedavg(models: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise mean of the received embedder parameters.

    Values are sorted per coordinate before a pairwise-tree summation, so the
    result is bit-identical under any reordering of the models, and the mean
    of 2^k identical models is exactly that model.
    """
    if not models:
        raise EmptyShardError("cannot average an empty list of models")
    shapes = {m.shape for m in models}
    if len(shapes) != 1:
        raise ShapeMismatchError(f"mismatched shapes {sorted(shapes)}")
    stack = np.sort(np.stack(models), axis=0)
    total = _pairwise_tree_sum([stack[i] for i in range(stack.shape[0])])
    return total / len(models)


def tar_payload(tar_by_far: dict[float, float]) -> dict[str, float]:
    """JSON form of a TAR-by-FAR dict: each target keyed by its repr."""
    return {repr(far): tar for far, tar in tar_by_far.items()}


def totals_payload(totals: dict[int, tuple[float, float]]) -> dict[str, list[float]]:
    """JSON form of per-client ledger totals: client -> [epsilon, delta]."""
    return {str(client): list(total) for client, total in totals.items()}


@dataclass
class RoundRecord:
    round_index: int
    online_clients: list[int]
    queries_by_client: dict[int, int]
    loss_by_client: dict[int, float]
    tar_by_far: dict[float, float]
    cross_client_margin: float
    ledger_totals: dict[int, tuple[float, float]]
    fidelities: list[float]

    def to_dict(self) -> dict:
        """JSON form of the round's public results; the fidelities stay out."""
        return {
            "round": self.round_index,
            "online_clients": self.online_clients,
            "queries_by_client": {str(k): v for k, v in self.queries_by_client.items()},
            "loss_by_client": {str(k): v for k, v in self.loss_by_client.items()},
            "tar_by_far": tar_payload(self.tar_by_far),
            "cross_client_margin": self.cross_client_margin,
            "ledger_totals": totals_payload(self.ledger_totals),
        }


@dataclass
class RunReport:
    """Per-round metrics plus the final client and server state of one run."""

    rounds: list[RoundRecord]
    final_clients: list[ClientState]
    server: ServerState


def run_federation(
    config: FederationConfig,
    fed: synth.SyntheticFederation,
    seed: int,
) -> RunReport:
    """Execute the full training scheme and return its report.

    Round structure: pick online clients, run the cluster release on every
    online client (skipped in mode "phi"), gather and redistribute clusters,
    let each online client optimize locally from the broadcast embedder, and
    average the returned embedders (FedAvg). The ledger charges each online
    client queries_used releases per round in sanitized mode. Identical
    (config, fed, seed) replay bit-identically.

    Privacy is claimed only for each release, for one swapped row of a
    client's center matrix with the other rows fixed; release counts,
    covered_count and seed choices are published without noise. One
    identity's samples move every trained center and the embedder, and
    FedAvg averages embedders without noise, so neither identity-level
    privacy nor the embedder's privacy is claimed.

    Held for the whole run: the federation's arrays, whose shards the client
    states share, each client's embedder and centers, the server's embedder
    and the verification pairs' rows.
    """
    clients, embedder0 = initialize_clients(fed, config, seed)
    server = ServerState(embedder=embedder0)  # replaced each round, never written in place
    del embedder0  # so the first round's replacement frees it
    eval_rng = derive_rng(seed, "eval")
    pairs = synth.make_verification_pairs(
        fed, config.eval_positives, config.eval_negatives, eval_rng
    )
    cluster_mode = _CLUSTER_MODE_FOR_RUN.get(config.mode)
    n_clients, dim = fed.params.clients, fed.params.embed_dim
    records: list[RoundRecord] = []

    for t in range(1, config.rounds + 1):
        online = list(range(n_clients))
        if config.offline_probability > 0.0:
            off_rng = derive_rng(seed, "offline", t)
            if off_rng.random() < config.offline_probability:
                online.remove(int(off_rng.integers(n_clients)))

        queries_by_client: dict[int, int] = {c: 0 for c in online}
        round_fidelities: list[float] = []
        released: list[clustering.SanitizedCluster] = []
        if cluster_mode is not None:
            params = replace(config.clustering_params, mode=cluster_mode)
            for c in online:
                centers = clients[c].centers
                if centers.dtype != np.float64:  # renormalized: float32 rows miss the 1e-9 check
                    centers = normalize_rows(centers.astype(np.float64))
                report = clustering.run_clustering(
                    centers,
                    params,
                    derive_rng(seed, "cluster", t, c),
                    client=c,
                )
                released.extend(report.clusters)
                queries_by_client[c] = report.queries_used
                round_fidelities.extend(report.fidelities)
                if cluster_mode == clustering.MODE_SANITIZED:
                    server.ledger = server.ledger.compose(
                        c, t, config.clustering_params.budget, report.queries_used
                    )
        server.received_clusters = released

        loss_by_client = {}
        for c in online:
            clients[c], loss_by_client[c] = client_local_round(
                clients[c],
                server.embedder,
                losses.ConsensusContext.from_clusters(released, c, dim, clients[c].inputs.dtype),
                config,
                derive_rng(seed, "local", t, c),
            )
        server.embedder = aggregate_fedavg([clients[c].embedder for c in online])

        tar = synth.verification_eval(
            lambda x: embed(server.embedder, x), pairs, config.far_targets
        )
        margin = synth.cross_client_margin([s.centers for s in clients])
        records.append(
            RoundRecord(
                round_index=t,
                online_clients=online,
                queries_by_client=queries_by_client,
                loss_by_client=loss_by_client,
                tar_by_far=tar,
                cross_client_margin=margin,
                ledger_totals=server.ledger.totals(),
                fidelities=round_fidelities,
            )
        )

    return RunReport(records, clients, server)
