"""Stepping a group of clients together against stepping each one alone.

client_local_round stacks a group's clients and makes one kernel call per
SGD step; every client's embedder, centers and loss must be the bytes of
its own one-client round, and of the reference round in train_oracle.
Each check runs with float32 and float64 shards.
"""

import dataclasses

import numpy as np
import pytest

import train_oracle as oracle
from capfed import federation, losses
from capfed.clustering import ClusteringParams
from capfed.dp import PrivacyBudget
from capfed.errors import DomainError, ZeroVectorError
from capfed.federation import (
    ClientState,
    FederationConfig,
    client_local_round,
    derive_rng,
    initialize_clients,
    run_federation,
)
from capfed.geometry import normalize_rows
from capfed.losses import LossConfig, stacked_loss_gradients
from capfed.synth import SynthParams, generate_federation
from conftest import one_client_loss, with_shard_dtype

DTYPES = [np.float32, np.float64]
ARRAY_FIELDS = ("embedder", "centers", "inputs", "labels")


def small_fed(dtype, seed=0, **kw):
    """4 clients of 10 identities x 5 samples: 50 rows, which a batch of 16 does not divide."""
    base = dict(
        clients=4,
        ids_per_client=10,
        samples_per_identity=5,
        embed_dim=8,
        input_dim=12,
        concentration=48.0,
    )
    base.update(kw)
    fed = generate_federation(SynthParams(**base), np.random.default_rng(seed))
    return with_shard_dtype(fed, dtype)


def small_config(**kw):
    base = dict(
        rounds=3,
        mode="phi-hat",
        clustering_params=ClusteringParams(
            rho=1.3, min_cluster_size=1, max_queries=2, budget=PrivacyBudget(1.0, 5e-5)
        ),
        loss=LossConfig(16.0),
        learning_rate=0.2,
        batch_size=16,
        local_epochs=2,
        eval_positives=60,
        eval_negatives=60,
        far_targets=(0.1,),
    )
    base.update(kw)
    return FederationConfig(**base)


def foreign_blocks(dim, ks, dtype, seed=2):
    rng = np.random.default_rng(seed)
    return [normalize_rows(rng.standard_normal((k, dim))).astype(dtype) for k in ks]


def assert_same_rounds(got, want):
    (got_states, got_losses), (want_states, want_losses) = got, want
    assert got_losses == want_losses
    for a, b in zip(got_states, want_states, strict=True):
        assert a.client_id == b.client_id
        assert a.embedder.dtype == b.embedder.dtype
        assert a.embedder.tobytes() == b.embedder.tobytes()
        assert a.centers.tobytes() == b.centers.tobytes()


def one_at_a_time(group, embedder, foreign, config, seeds):
    rounds = [
        client_local_round([s], embedder, [p], config, [derive_rng(*seed)])
        for s, p, seed in zip(group, foreign, seeds, strict=True)
    ]
    return [s for (s,), _ in rounds], [loss for _, (loss,) in rounds]


# the foreign block of the stack: ragged with one client at K = 0, all K = 0, all equal
@pytest.mark.parametrize("ks", [[3, 0, 7, 5], [0, 0, 0, 0], [4, 4, 4, 4]],
                         ids=["ragged", "zero", "equal"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_group_steps_are_each_clients_own_steps(ks, dtype):
    # two epochs and a last batch of 2 rows; the group's own arrays are left as they were
    fed = small_fed(dtype)
    config = small_config()
    states, embedder0 = initialize_clients(fed, config, 5)
    foreign = foreign_blocks(fed.params.embed_dim, ks, dtype)
    seeds = [(5, "local", 1, c) for c in range(4)]
    arrays = [embedder0, *foreign, *(getattr(s, f) for s in states for f in ARRAY_FIELDS)]
    before = [x.tobytes() for x in arrays]
    lockstep = client_local_round(
        states, embedder0, foreign, config, [derive_rng(*s) for s in seeds]
    )
    assert [x.tobytes() for x in arrays] == before
    assert lockstep[0][0].embedder.dtype == dtype
    assert_same_rounds(lockstep, one_at_a_time(states, embedder0, foreign, config, seeds))
    reference = oracle.client_local_round(
        states, embedder0, foreign, config, [derive_rng(*s) for s in seeds]
    )
    assert_same_rounds(lockstep, reference)


# At these shapes a padded foreign product changes the bits: padding K = 3 to 90
# moves float32 sgemm's sums over K, and padding K = 1 to 24 turns a
# matrix-vector product into a gemm. The stacks with no padding have every
# K_c = 0 or every K_c equal. With every cosine negative ("far"), a padded
# logit that were not -inf would be a row's largest.
@pytest.mark.parametrize(
    "ks, d, far",
    [
        pytest.param([40, 0, 3, 90], 8, False, id="ks0-8"),
        pytest.param([24, 3, 6, 1], 32, False, id="ks1-32"),
        pytest.param([0, 0, 0, 0], 8, False, id="zero-8"),
        pytest.param([6, 6, 6, 6], 32, False, id="equal-32"),
        pytest.param([40, 0, 3, 90], 8, True, id="far-8"),
    ],
)
@pytest.mark.parametrize("dtype", DTYPES)
def test_stacked_kernel_is_each_clients_stack_of_one(ks, d, far, dtype):
    rng = np.random.default_rng(3)
    batch, n = 13, 11
    f = (rng.standard_normal((4, batch, d)) * 2.0).astype(dtype)
    w = rng.standard_normal((4, n, d)).astype(dtype)
    labels = rng.integers(0, n, size=(4, batch))
    foreign = foreign_blocks(d, ks, dtype)
    if far:
        f, w, foreign = -np.abs(f), np.abs(w), [np.abs(p) for p in foreign]
    config = LossConfig(30.0)
    stacked = stacked_loss_gradients(f, labels, w, foreign, config)
    assert stacked.loss.shape == (4,)
    for c in range(4):
        alone = one_client_loss(f[c], labels[c], w[c], foreign[c], config)
        assert alone.loss == float(stacked.loss[c])
        assert alone.d_embeddings.tobytes() == stacked.d_embeddings[c].tobytes()
        assert alone.d_centers.tobytes() == stacked.d_centers[c].tobytes()


def uneven_fed(dtype):
    """small_fed with the last 3 rows of client 1's shard and 7 of client 3's dropped."""
    fed = small_fed(dtype, seed=4)
    inputs, labels = list(fed.client_inputs), list(fed.client_labels)
    for c, drop in ((1, 3), (3, 7)):
        inputs[c], labels[c] = inputs[c][:-drop], labels[c][:-drop]
    return dataclasses.replace(fed, client_inputs=inputs, client_labels=labels)


def assert_same_runs(a, b):
    assert a.rounds == b.rounds
    assert a.server.embedder.tobytes() == b.server.embedder.tobytes()
    for x, y in zip(a.final_clients, b.final_clients, strict=True):
        assert x.embedder.tobytes() == y.embedder.tobytes()
        assert x.centers.tobytes() == y.centers.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_unequal_shards_step_in_separate_groups(monkeypatch, dtype):
    fed = uneven_fed(dtype)
    config = small_config(offline_probability=0.3)
    states, _ = initialize_clients(fed, config, 21)
    assert [s.inputs.shape[0] for s in states] == [50, 47, 50, 43]
    assert federation._lockstep_groups(states, config.batch_size) == [[0, 2], [1], [3]]
    live = run_federation(config, fed, 21)
    with monkeypatch.context() as patched:
        patched.setattr(federation, "client_local_round", oracle.client_local_round)
        assert_same_runs(live, run_federation(config, fed, 21))


def shaped_state(client_id, rows, classes, d, d_in, dtype=np.float32):
    """A client whose arrays have the given shapes and take no memory (for grouping only)."""
    zeros = lambda *shape: np.broadcast_to(np.zeros((), dtype), shape)  # noqa: E731
    return ClientState(
        client_id=client_id,
        embedder=zeros(d, d_in),
        centers=zeros(classes, d),
        inputs=zeros(rows, d_in),
        labels=np.zeros(rows, dtype=int),
    )


@pytest.mark.parametrize(
    "shape, batch, groups",
    [
        # sim-small-long's clients: 64 ids x 8 samples at d=32, input 48
        pytest.param((512, 64, 32, 48), 64, [[0, 1, 2, 3]], id="small-long"),
        # the shape of test_run_peak_memory_is_a_bounded_multiple_of_the_shards
        pytest.param((800, 200, 128, 160), 64, [[0], [1], [2], [3]], id="peak-memory"),
        # sim-paper's clients: 1000 ids x 4 samples at d=512, input 640
        pytest.param((4000, 1000, 512, 640), 256, [[0], [1], [2], [3]], id="paper"),
    ],
)
def test_groups_stay_within_the_bound(shape, batch, groups):
    states = [shaped_state(c, *shape) for c in range(4)]
    assert federation._lockstep_groups(states, batch) == groups


def test_a_shape_above_the_bound_steps_one_client_at_a_time(monkeypatch):
    fed = small_fed(np.float32, seed=6)
    config = small_config()
    together = run_federation(config, fed, 8)
    calls = []

    def counted(group, *args):
        calls.append(len(group))
        return client_local_round(group, *args)

    with monkeypatch.context() as patched:
        patched.setattr(federation, "_LOCKSTEP_BYTES", 1)
        patched.setattr(federation, "client_local_round", counted)
        alone = run_federation(config, fed, 8)
    assert calls == [1] * 4 * config.rounds
    assert_same_runs(together, alone)


def round_inputs(dtype=np.float64):
    fed = small_fed(dtype, seed=7)
    config = small_config(local_epochs=1)
    states, embedder0 = initialize_clients(fed, config, 9)
    foreign = foreign_blocks(fed.params.embed_dim, [2, 0, 1, 3], dtype)
    return states, embedder0, foreign, config, [derive_rng(9, "x", c) for c in range(4)]


def test_a_zero_center_row_is_named_by_its_row_in_the_client(monkeypatch):
    # client 2's center row 3 gets the gradient w / lr, so the step zeroes it exactly
    states, embedder0, foreign, config, rngs = round_inputs()
    config = dataclasses.replace(config, learning_rate=1.0)
    kernel = losses.stacked_loss_gradients

    def zeroing(embeddings, labels, centers, *args):
        bundle = kernel(embeddings, labels, centers, *args)
        bundle.d_centers[2, 3] = centers[2, 3]
        return bundle

    monkeypatch.setattr(losses, "stacked_loss_gradients", zeroing)
    with pytest.raises(ZeroVectorError, match="^row 3 of matrix 2 has norm 0"):
        client_local_round(states, embedder0, foreign, config, rngs)


def test_an_out_of_range_label_names_its_client():
    # the bad label is the shard's last, so it is checked even if no early batch holds it
    states, embedder0, foreign, config, rngs = round_inputs()
    for bad in (-1, states[1].centers.shape[0]):
        labels = states[1].labels.copy()
        labels[-1] = bad
        group = list(states)
        group[1] = dataclasses.replace(states[1], labels=labels)
        with pytest.raises(DomainError, match="^client 1: labels must lie in"):
            client_local_round(group, embedder0, foreign, config, rngs)


def test_an_empty_shard_names_its_client():
    states, embedder0, foreign, config, rngs = round_inputs()
    group = list(states)
    group[3] = dataclasses.replace(
        states[3], inputs=states[3].inputs[:0], labels=states[3].labels[:0]
    )
    with pytest.raises(DomainError, match="^client 3 has no data"):
        client_local_round(group, embedder0, foreign, config, rngs)
