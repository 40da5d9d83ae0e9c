"""Simulated federated training rounds with cluster exchange and FedAvg.

Each round: every online client releases sanitized (or noise-free) clusters
of its class centers, receives everyone else's clusters, starts from the
broadcast embedder and runs local SGD on the consensus loss, in which
every received center is one more negative column of the margin softmax
(losses), and the server replaces the broadcast embedder with the
coordinate-wise mean of the returned ones (FedAvg). Class centers never
leave their client; the server only ever holds embedder parameters and
released cluster centers.

All randomness is drawn from streams keyed by (seed, purpose, round, client),
so identical runs replay identically.

Local SGD steps the online clients in lockstep. Clients with equal shard
shape, class count and dtype are stacked along a leading client axis, and
each SGD step makes one chain of NumPy calls for the whole group: one
batch gather into a (C, b, d_in) buffer, one stacked loss kernel call and
one update of the (C, d, d_in) embedders and (C, n, d) centers. At small
shapes a step is mostly NumPy dispatch, which this pays once per group
instead of once per client. Each client's shuffle, reductions and bits are
those of stepping it alone (losses states which reductions run per client
and why). A group's stacked step arrays stay within _LOCKSTEP_BYTES, so a
paper-shaped client, with 2 MB of centers, steps alone: stacking those
buys no dispatch and costs memory and time.

Training follows the dtype of the client shards, which
synth.generate_federation makes float32: the embedders, features, class
centers, loss kernel, SGD updates, FedAvg and the verification eval run in
it, and float64 shards give the float64 bits of the same code. What decides
or releases a private vector stays float64: run_clustering receives the
centers upcast to float64 and renormalized (its unit-row check holds rows
to 1e-9, which float32 normalization misses by about sqrt(d) * 6e-8), and
the cap mean, the noise calibration and draw, the normalization of the
released centers and the ledger are float64 there. The released centers
are cast to the training dtype once per round, by foreign_centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import blas, clustering, dp, losses, synth
from .errors import DomainError, ValidationError
from .geometry import checked_row_norms, normalize_rows

MODE_PHI = "phi"  # conventional: no clusters exchanged
MODE_PHI_HAT = "phi-hat"  # sanitized clusters
MODE_PHI_P = "phi-p"  # noise-free clusters
RUN_MODES = (MODE_PHI, MODE_PHI_HAT, MODE_PHI_P)

_CLUSTER_MODE_FOR_RUN = {
    MODE_PHI_HAT: clustering.MODE_SANITIZED,
    MODE_PHI_P: clustering.MODE_NOISE_FREE,
}

# Bound on one lockstep group's stacked step arrays, in bytes (module docstring).
_LOCKSTEP_BYTES = 1 << 18


def derive_rng(seed: int, *key) -> np.random.Generator:
    """Independent generator for one (purpose, round, client, ...) slot.

    A string part folds to sum((i + 1) * byte_i) over its UTF-8 bytes, and
    every part to 32 bits. The fold is not injective ("ad" and "cc" both give
    297, and share a stream); test_package_stream_keys_fold_to_distinct_integers
    checks that the package's own purpose keys fold apart.
    """
    ints = [int(seed) & 0xFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            ints.append(sum((i + 1) * b for i, b in enumerate(part.encode())) & 0xFFFFFFFF)
        else:
            ints.append(int(part) & 0xFFFFFFFF)
    # An array of 32-bit words is the entropy the list gives, without coercing each int.
    return np.random.default_rng(np.random.SeedSequence(np.array(ints, dtype=np.uint32)))


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


@dataclass
class ServerState:
    """What the coordinator is allowed to hold: no class centers, ever."""

    embedder: np.ndarray
    ledger: dp.PrivacyLedger = field(default_factory=dp.PrivacyLedger)


def embed(embedder: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Unit-normalized linear features for a batch of raw inputs, in their dtype.

    A small batch is embedded on one BLAS thread (blas module docstring);
    synth.verification_eval embeds its rows the same way, a block at a time.
    The norms are taken in blocks, so no temporary is as large as the features.
    """
    feats = blas.matmul(np.asarray(inputs), embedder.T)
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
        states.append(ClientState(c, embedder0.copy(), centers, x, y_local))
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


def foreign_centers(released: dict[int, np.ndarray], own: int, dim: int, dtype) -> np.ndarray:
    """The other clients' released rows, (K, dim), in released's order, then query order.

    Own rows are left out, since a client is not pushed away from its own
    data. The float64 releases are cast to the training dtype once, here.
    """
    rows = [block for c, block in released.items() if c != own]
    return np.concatenate([np.empty((0, dim)), *rows], dtype=dtype)


def _shape_key(state: ClientState) -> tuple:
    return state.inputs.shape, state.centers.shape, state.inputs.dtype


def client_local_round(
    group: Sequence[ClientState],
    broadcast_embedder: np.ndarray,
    foreign: Sequence[np.ndarray],
    config: FederationConfig,
    rngs: Sequence[np.random.Generator],
) -> tuple[list[ClientState], list[float]]:
    """The local optimization pass of a round for a group of clients, stepped together.

    The clients of group share shard shape, class count and dtype; foreign
    and rngs hold each one's (K_c, d) foreign cluster centers and shuffle
    stream. Each client syncs the broadcast embedder, then runs
    local_epochs passes of minibatch SGD on the consensus loss, its
    class-center rows renormalized after every step. Each step gathers
    every client's batch into one stack and makes one kernel call and one
    update for all of them; each client's bits are those of stepping it
    alone. Returns the updated states, whose embedder and centers are views
    of the group's stacks in the shard dtype, and the mean minibatch losses.
    """
    shape = _shape_key(group[0])
    (n, d_in), (classes, d), dtype = shape
    for state in group:
        if state.inputs.shape[0] == 0:
            raise DomainError(f"client {state.client_id} has no data")
        if _shape_key(state) != shape:
            raise DomainError("a lockstep group needs equal shards, class counts and dtypes")
        # The labels are fixed for the round, so they are checked once, here.
        if state.labels.min() < 0 or state.labels.max() >= classes:
            raise DomainError(f"client {state.client_id}: labels must lie in [0, {classes - 1}]")
    a = np.empty((len(group), d, d_in), dtype=dtype)
    a[...] = broadcast_embedder
    w = np.stack([state.centers for state in group])
    labels = np.stack([state.labels for state in group])
    client_rows = np.arange(len(group))[:, None]
    foreign = [np.asarray(p, dtype=dtype).reshape(-1, d) for p in foreign]
    lr, wd = config.learning_rate, config.weight_decay
    batch = min(config.batch_size, n)
    batch_losses = []
    for _ in range(config.local_epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs])
        for start in range(0, n, batch):
            rows = orders[:, start : start + batch]
            x = np.empty((len(group), rows.shape[1], d_in), dtype=dtype)
            for c, state in enumerate(group):
                # Rows of a permutation are in range, so "clip" never clips; it
                # writes into x directly, where take's "raise" goes through a buffer.
                np.take(state.inputs, rows[c], axis=0, out=x[c], mode="clip")
            raw = x @ a.swapaxes(1, 2)
            bundle = losses.stacked_loss_gradients(
                raw, labels[client_rows, rows], w, foreign, config.loss
            )
            batch_losses.append(bundle.loss)
            # a -= lr * (d_a + wd * a) and w = normalize_rows(w - lr * d_w),
            # in the same floating-point order, in place on arrays this round owns.
            step = bundle.d_embeddings.swapaxes(1, 2) @ x
            step += wd * a
            step *= lr
            a -= step
            d_w = bundle.d_centers
            d_w *= lr
            w -= d_w
            w /= checked_row_norms(w)[..., None]
            del bundle, step, d_w  # freed before the next step's kernel call, not after it
    # One 1-d mean per client: a mean over axis 0 of the table would sum in another order.
    by_step = np.array(batch_losses, dtype=float)
    new_states = [replace(state, embedder=a[c], centers=w[c]) for c, state in enumerate(group)]
    return new_states, [float(np.mean(by_step[:, c])) for c in range(len(group))]


def _lockstep_groups(states: Sequence[ClientState], batch_size: int) -> list[list[int]]:
    """The client ids of states in groups that client_local_round steps together.

    A group's clients have equal shard shape, class count and dtype, and
    its stacked step arrays (embedders, centers, a batch of rows and its
    class logits per client) stay within _LOCKSTEP_BYTES; a client whose
    own arrays exceed that steps alone. Ids keep states' order.
    """
    by_shape: dict[tuple, list[int]] = {}
    for state in states:
        by_shape.setdefault(_shape_key(state), []).append(state.client_id)
    groups = []
    for ((rows, d_in), (classes, d), dtype), ids in by_shape.items():
        b = min(batch_size, rows)
        per_client = dtype.itemsize * (d * d_in + classes * d + b * (d_in + classes))
        size = max(1, _LOCKSTEP_BYTES // per_client)
        groups += [ids[i : i + size] for i in range(0, len(ids), size)]
    return groups


def _pairwise_tree_sum(items: list[np.ndarray]) -> np.ndarray:
    while len(items) > 1:
        merged = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def _flip_negatives(keys: np.ndarray) -> None:
    """Map floats' integer bits to total-order keys, or back (the map is its own inverse).

    A key is the bits with the magnitude bits flipped when the sign bit is
    set: as signed integers the keys order as the floats do, with -0 below +0
    and each sign's NaNs beyond that sign's infinity.
    """
    mask = keys >> (8 * keys.itemsize - 1)
    mask &= np.iinfo(keys.dtype).max
    keys ^= mask


def aggregate_fedavg(models: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise mean of the received embedder parameters.

    Values are sorted per coordinate before a pairwise-tree summation, so the
    result is bit-identical under any reordering of the models, and the mean
    of 2^k identical models is exactly that model.

    The sort is an odd-even transposition network: k rounds of
    compare-exchanges of neighbouring models, two whole-model NumPy calls
    each, where sort(axis=0) walks every coordinate's strided column. It
    compares integer total-order keys, not the floats: on a {+0.0, -0.0}
    pair np.minimum and np.maximum both return the same operand, which would
    turn a mean of +0 into -0. Keys are made and undone one model at a
    time, so _flip_negatives' sign mask is one model, not the stack. The
    mean has the bits of sorting with np.sort (kept in
    tests/test_federation.py) except in a NaN's sign and payload: np.sort
    writes every NaN as the positive quiet NaN.
    """
    if not models:
        raise DomainError("cannot average an empty list of models")
    shapes = {m.shape for m in models}
    if len(shapes) != 1:
        raise DomainError(f"mismatched shapes {sorted(shapes)}")
    k = len(models)
    stack = np.empty((k + 1, *models[0].shape), dtype=np.result_type(np.float32, *models))
    keys = stack.view(f"i{stack.itemsize}")
    for j, m in enumerate(models):  # row k is the network's spare
        stack[j] = m
        _flip_negatives(keys[j])
    order, spare = list(range(k)), k
    for r in range(k):
        for i in range(r % 2, k - 1, 2):
            lo, hi = keys[order[i]], keys[order[i + 1]]
            np.minimum(lo, hi, out=keys[spare])
            np.maximum(lo, hi, out=hi)
            order[i], spare = spare, order[i]
    for j in order:
        _flip_negatives(keys[j])
    total = _pairwise_tree_sum([stack[j] for j in order])
    return total / k


@dataclass
class RoundRecord:
    """One round's results; cli writes all but the fidelities to the rounds file."""

    round_index: int
    online_clients: list[int]
    queries_by_client: dict[int, int]
    loss_by_client: dict[int, float]
    tar_by_far: dict[float, float]
    cross_client_margin: float
    ledger_totals: dict[int, tuple[float, float]]
    fidelities: list[float]


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
    client the releases its report charges: queries_used per round in
    sanitized mode, none in noise-free mode. Identical
    (config, fed, seed) replay bit-identically.

    Privacy is claimed only for each release, for one swapped row of a
    client's center matrix with the other rows fixed; release counts,
    cluster sizes and seed choices are published without noise. One
    identity's samples move every trained center and the embedder, and
    FedAvg averages embedders without noise, so neither identity-level
    privacy nor the embedder's privacy is claimed.

    Held for the whole run: the federation's shards and labels (it keeps no
    ground truth), which the client states share, each client's embedder and
    centers, the server's embedder, the eval pairs' row ids and one gather
    buffer of at most ROW_BLOCK_BYTES. A client's embedder and centers are
    views of the stacks of its last lockstep group, so a client that goes
    offline keeps that group's stacks, at most _LOCKSTEP_BYTES, alive. The
    local phase holds one group's stacks at a time.
    """
    clients, embedder0 = initialize_clients(fed, config, seed)
    server = ServerState(embedder=embedder0)  # replaced each round, never written in place
    del embedder0  # so the first round's replacement frees it
    eval_rng = derive_rng(seed, "eval")
    pairs = synth.make_verification_pairs(
        fed, config.eval_positives, config.eval_negatives, eval_rng
    )
    buffer = synth.gather_buffer(fed.client_inputs, pairs)  # reused: one allocation per run
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
        released: dict[int, np.ndarray] = {}
        if cluster_mode is not None:
            params = replace(config.clustering_params, mode=cluster_mode)
            for c in online:
                centers = clients[c].centers
                if centers.dtype != np.float64:  # renormalized: float32 rows miss the 1e-9 check
                    centers = normalize_rows(centers.astype(np.float64))
                cluster_rng = derive_rng(seed, "cluster", t, c)
                report = clustering.run_clustering(centers, params, cluster_rng)
                released[c] = report.centers
                queries_by_client[c] = report.queries_used
                round_fidelities.extend(report.fidelities)
                server.ledger.charge(c, params.budget, report.charged)

        round_losses = {}
        for ids in _lockstep_groups([clients[c] for c in online], config.batch_size):
            new_states, group_losses = client_local_round(
                [clients[c] for c in ids],
                server.embedder,
                [foreign_centers(released, c, dim, clients[c].inputs.dtype) for c in ids],
                config,
                [derive_rng(seed, "local", t, c) for c in ids],
            )
            for state, loss in zip(new_states, group_losses):
                clients[state.client_id] = state
                round_losses[state.client_id] = loss
        loss_by_client = {c: round_losses[c] for c in online}
        server.embedder = aggregate_fedavg([clients[c].embedder for c in online])

        tar = synth.verification_eval(
            server.embedder, fed.client_inputs, pairs, config.far_targets, buffer
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
