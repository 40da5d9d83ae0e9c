import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from capfed import clustering, federation
from capfed.clustering import ClusteringParams
from capfed.dp import PrivacyBudget
from capfed.errors import DomainError, ValidationError
from capfed.federation import (
    ClientState,
    FederationConfig,
    ServerState,
    aggregate_fedavg,
    client_local_round,
    derive_rng,
    embed,
    foreign_centers,
    initialize_clients,
    run_federation,
)
from capfed.geometry import normalize_rows
from capfed.losses import LossConfig
from capfed.synth import SynthParams, generate_federation
from conftest import one_client_loss


def tiny_config(**kw):
    base = dict(
        rounds=3,
        mode="phi-hat",
        clustering_params=ClusteringParams(
            rho=1.3, min_cluster_size=1, max_queries=1, budget=PrivacyBudget(1.0, 5e-5)
        ),
        loss=LossConfig(16.0),
        learning_rate=0.2,
        batch_size=16,
        eval_positives=60,
        eval_negatives=60,
        far_targets=(0.1,),
    )
    base.update(kw)
    return FederationConfig(**base)


def tiny_fed(seed=0, **kw):
    base = dict(
        clients=4,
        ids_per_client=12,
        samples_per_identity=4,
        embed_dim=8,
        input_dim=12,
        concentration=48.0,
    )
    base.update(kw)
    return generate_federation(SynthParams(**base), np.random.default_rng(seed))


def record_releases(monkeypatch):
    """Patch foreign_centers to record the released dict of each of its calls; returns the list."""
    received = []
    select = federation.foreign_centers

    def recording(released, own, dim, dtype):
        received.append(released)
        return select(released, own, dim, dtype)

    monkeypatch.setattr(federation, "foreign_centers", recording)
    return received


def sorted_tree_mean(models):
    """FedAvg as np.sort along the model axis, then the pairwise tree sum and the division."""
    items = list(np.sort(np.stack(models), axis=0))
    while len(items) > 1:
        merged = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0] / len(models)


def special_models(rng, k, dtype, values):
    """k (6, 7) models whose every coordinate is drawn from values."""
    return [rng.choice(np.array(values, dtype=dtype), size=(6, 7)) for _ in range(k)]


class TestAggregation:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_network_gives_the_bits_of_the_sorted_sum(self, dtype):
        # random values, ties, signed zeros with infinities (inf - inf is NaN) and
        # positive quiet NaNs; np.sort rewrites a negative NaN as the positive one and
        # the network keeps its bits, which no output file shows (JSON writes NaN)
        rng = np.random.default_rng(17)
        for k in range(1, 10):
            cases = [
                [rng.standard_normal((6, 7)).astype(dtype) for _ in range(k)],
                special_models(rng, k, dtype, [-1.5, -0.25, 0.25, 1.0, 3.0]),
                special_models(rng, k, dtype, [0.0, -0.0, np.inf, -np.inf, 2.0, -2.0]),
                special_models(rng, k, dtype, [np.nan, 0.0, -0.0, 1.0, -3.0, np.inf]),
            ]
            for models in cases:
                with np.errstate(invalid="ignore"):
                    got, want = aggregate_fedavg(models), sorted_tree_mean(models)
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()

    def test_identical_models(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 6))
        out = aggregate_fedavg([a.copy() for _ in range(4)])
        np.testing.assert_array_equal(out, a)

    def test_opposite_pair_cancels(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(aggregate_fedavg([a, -a]), np.zeros((3, 5)))

    def test_single_client_identity(self):
        a = np.random.default_rng(2).standard_normal((2, 2))
        np.testing.assert_array_equal(aggregate_fedavg([a]), a)

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(3)
        models = [rng.standard_normal((5, 7)) for _ in range(5)]
        base = aggregate_fedavg(models)
        for perm_seed in range(4):
            order = np.random.default_rng(perm_seed).permutation(5)
            np.testing.assert_array_equal(aggregate_fedavg([models[i] for i in order]), base)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError, match=r"^mismatched shapes \[\(2, 2\), \(3, 2\)\]$"):
            aggregate_fedavg([np.zeros((2, 2)), np.zeros((3, 2))])

    def test_empty(self):
        with pytest.raises(DomainError, match="^cannot average an empty list of models$"):
            aggregate_fedavg([])


class TestForeignCenters:
    def test_own_clusters_filtered(self):
        rows = normalize_rows(np.random.default_rng(0).standard_normal((7, 3)))
        released = {0: rows[0:2], 1: rows[2:3], 2: rows[3:5], 3: rows[5:7]}
        foreign = foreign_centers(released, 1, 3, np.float64)
        assert foreign.tobytes() == rows[[0, 1, 3, 4, 5, 6]].tobytes()

    def test_float32_rows_are_the_float64_rows_rounded_once(self):
        rows = normalize_rows(np.random.default_rng(1).standard_normal((5, 4)))
        foreign = foreign_centers({0: rows[:2], 1: rows[2:]}, 2, 4, np.float32)
        assert foreign.dtype == np.float32
        want = np.array([[np.float32(v) for v in row] for row in rows])
        assert foreign.tobytes() == want.tobytes()

    def test_nothing_foreign_is_an_empty_block(self):
        rows = normalize_rows(np.random.default_rng(2).standard_normal((2, 5)))
        for released, own in (({0: rows}, 0), ({0: rows, 1: np.zeros((0, 5))}, 0), ({}, 0)):
            foreign = foreign_centers(released, own, 5, np.float32)
            assert foreign.shape == (0, 5) and foreign.dtype == np.float32

    def test_phi_exchanges_nothing(self, monkeypatch):
        received = record_releases(monkeypatch)
        fed = tiny_fed(4)
        run_federation(tiny_config(mode="phi", rounds=1), fed, seed=3)
        assert received and all(released == {} for released in received)


class TestClientLocalRound:
    def _client(self, seed=0, n=24, d=6, d_in=8, classes=6):
        rng = np.random.default_rng(seed)
        x = normalize_rows(rng.standard_normal((n, d_in)))
        labels = rng.integers(0, classes, size=n)
        return ClientState(
            client_id=0,
            embedder=rng.standard_normal((d, d_in)),
            centers=normalize_rows(rng.standard_normal((classes, d))),
            inputs=x,
            labels=labels,
        )

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_zero_epochs_rejected(self, epochs):
        # no step would run: the round would return the broadcast and no loss
        with pytest.raises(ValidationError, match="local_epochs"):
            tiny_config(local_epochs=epochs)

    @pytest.mark.parametrize("lr", [0.0, -0.0])
    def test_zero_learning_rate_rejected(self, lr):
        # every step would leave the embedder and centers as they were
        with pytest.raises(ValidationError, match="learning_rate"):
            tiny_config(learning_rate=lr)

    def test_zero_weight_decay_trains(self):
        state = self._client()
        config = tiny_config(weight_decay=0.0)
        (new,), (loss,) = client_local_round(
            [state], state.embedder.copy(), [np.zeros((0, 6))], config,
            [np.random.default_rng(0)],
        )
        assert isinstance(loss, float)
        assert not np.array_equal(new.embedder, state.embedder)

    def test_centers_stay_unit(self):
        state = self._client()
        config = tiny_config()
        (new,), _ = client_local_round(
            [state],
            state.embedder.copy(),
            [np.zeros((0, 6))],
            config,
            [np.random.default_rng(1)],
        )
        np.testing.assert_allclose(np.linalg.norm(new.centers, axis=1), 1.0, atol=1e-12)
        assert not np.array_equal(new.embedder, state.embedder)

    def test_empty_shard(self):
        state = self._client()
        empty = dataclasses.replace(
            state, inputs=np.zeros((0, 8)), labels=np.zeros(0, dtype=int)
        )
        with pytest.raises(DomainError, match="^client 0 has no data$"):
            client_local_round(
                [empty],
                state.embedder,
                [np.zeros((0, 6))],
                tiny_config(),
                [np.random.default_rng(0)],
            )

    def test_identical_clients_aggregate_to_the_same_model(self):
        # four clients with the same data, init and stream: the average equals
        # every local result bit for bit (power-of-two pairwise mean)
        config = tiny_config()
        results = []
        for _ in range(4):
            state = self._client(seed=3)
            (new,), _ = client_local_round(
                [state],
                state.embedder.copy(),
                [np.zeros((0, 6))],
                config,
                [np.random.default_rng(9)],
            )
            results.append(new.embedder)
        mean = aggregate_fedavg(results)
        for r in results:
            np.testing.assert_array_equal(mean, r)


class TestInitializeClients:
    @pytest.mark.parametrize("clients", [1, 3, 6])
    def test_client_count_is_the_federations(self, clients):
        fed = tiny_fed(12, clients=clients)
        states, embedder0 = initialize_clients(fed, tiny_config(), seed=13)
        assert [s.client_id for s in states] == list(range(clients))
        for s in states:
            np.testing.assert_array_equal(s.inputs, fed.client_inputs[s.client_id])
            ids = np.unique(fed.client_labels[s.client_id])
            np.testing.assert_array_equal(ids[s.labels], fed.client_labels[s.client_id])
            np.testing.assert_array_equal(s.embedder, embedder0)
            assert not np.shares_memory(s.embedder, embedder0)


class TestRunFederation:
    def test_deterministic_replay(self):
        fed = tiny_fed(3)
        config = tiny_config()
        a = run_federation(config, fed, seed=21)
        b = run_federation(config, fed, seed=21)
        assert a.rounds == b.rounds
        np.testing.assert_array_equal(a.server.embedder, b.server.embedder)

    def test_one_client_fails_in_the_pair_sampler_before_any_round(self, monkeypatch):
        # every negative verification pair spans two clients, so no round of a
        # one-client federation is ever reached
        def never(*args, **kwargs):
            raise AssertionError("a round started")

        monkeypatch.setattr(clustering, "run_clustering", never)
        monkeypatch.setattr(federation, "client_local_round", never)
        with pytest.raises(DomainError, match="could not assemble"):
            run_federation(tiny_config(), tiny_fed(3, clients=1), seed=21)

    def test_seed_changes_output(self):
        fed = tiny_fed(3)
        config = tiny_config()
        a = run_federation(config, fed, seed=1)
        b = run_federation(config, fed, seed=2)
        assert a.rounds != b.rounds

    def test_ledger_accumulates_per_round(self):
        fed = tiny_fed(4)
        config = tiny_config(rounds=10)
        report = run_federation(config, fed, seed=5)
        for c in range(4):
            eps, delta = report.rounds[-1].ledger_totals[c]
            assert eps == 10.0
            assert delta == pytest.approx(10 * 5e-5)

    def test_every_round_records_a_snapshot_of_the_ledger(self):
        budget = PrivacyBudget(0.3, 1e-5)
        params = ClusteringParams(rho=1.3, min_cluster_size=4, max_queries=4, budget=budget)
        config = tiny_config(rounds=6, offline_probability=0.5, clustering_params=params)
        report = run_federation(config, tiny_fed(4), seed=5)
        charged = {}  # client -> queries charged in each round so far, in order of first charge
        for r in report.rounds:
            for c, q in r.queries_by_client.items():
                if q:
                    charged.setdefault(c, []).append(q)
            assert r.ledger_totals == {
                c: (math.fsum(q * budget.epsilon for q in qs), math.fsum(q * budget.delta for q in qs))
                for c, qs in charged.items()
            }
            assert list(r.ledger_totals) == list(charged)
        # clients go offline, charge 0, 1 or 2 queries, and are first charged out of order
        assert len({len(r.online_clients) for r in report.rounds}) > 1
        assert {q for r in report.rounds for q in r.queries_by_client.values()} == {0, 1, 2}
        assert list(report.rounds[-1].ledger_totals) == [0, 1, 3, 2]

    def test_phi_mode_charges_nothing_and_releases_nothing(self):
        fed = tiny_fed(4)
        report = run_federation(tiny_config(mode="phi"), fed, seed=5)
        assert report.rounds[-1].ledger_totals == {}
        assert all(r.fidelities == [] for r in report.rounds)
        for r in report.rounds:
            assert all(q == 0 for q in r.queries_by_client.values())

    def test_noise_free_mode_charges_nothing_but_releases(self):
        fed = tiny_fed(4)
        report = run_federation(tiny_config(mode="phi-p"), fed, seed=5)
        assert report.rounds[-1].ledger_totals == {}
        fidelities = [f for r in report.rounds for f in r.fidelities]
        assert fidelities
        assert all(f == pytest.approx(1.0, abs=1e-12) for f in fidelities)

    def test_offline_policy_excludes_exactly_one(self):
        fed = tiny_fed(5)
        config = tiny_config(offline_probability=1.0, rounds=8)
        report = run_federation(config, fed, seed=6)
        for r in report.rounds:
            assert len(r.online_clients) == 3
        excluded = [set(range(4)) - set(r.online_clients) for r in report.rounds]
        assert len({tuple(e) for e in excluded}) > 1  # the victim varies

    def test_offline_clients_not_charged(self):
        fed = tiny_fed(5)
        config = tiny_config(offline_probability=1.0, rounds=6)
        report = run_federation(config, fed, seed=7)
        total_eps = sum(v[0] for v in report.rounds[-1].ledger_totals.values())
        assert total_eps == 6 * 3  # three online clients per round, one query each

    def test_phi_mode_matches_reference_fedavg_loop(self):
        # independent re-implementation of sync / local SGD / average, no
        # clustering machinery anywhere
        fed = tiny_fed(6)
        config = tiny_config(mode="phi", rounds=3)
        report = run_federation(config, fed, seed=31)

        clients, global_a = initialize_clients(fed, config, seed=31)
        states = {s.client_id: (s.embedder.copy(), s.centers.copy()) for s in clients}
        inputs = {s.client_id: s.inputs for s in clients}
        labels = {s.client_id: s.labels for s in clients}

        ctx = np.zeros((0, fed.params.embed_dim))
        for t in range(1, 4):
            new_models = []
            for c in range(4):
                rng = derive_rng(31, "local", t, c)
                a = global_a.copy()
                w = states[c][1].copy()
                n = inputs[c].shape[0]
                batch = min(config.batch_size, n)
                order = rng.permutation(n)
                for start in range(0, n, batch):
                    rows = order[start : start + batch]
                    x = inputs[c][rows]
                    bundle = one_client_loss(
                        x @ a.T, labels[c][rows], w, ctx, config.loss
                    )
                    a -= config.learning_rate * (
                        bundle.d_embeddings.T @ x + config.weight_decay * a
                    )
                    w = normalize_rows(w - config.learning_rate * bundle.d_centers)
                states[c] = (a, w)
                new_models.append(a)
            global_a = sorted_tree_mean(new_models)
        np.testing.assert_array_equal(report.server.embedder, global_a)

    def test_round_averages_only_the_online_clients(self):
        # one round with one client offline: the server's model is the FedAvg of the
        # online clients' local rounds, and the offline client keeps the broadcast
        fed = tiny_fed(12)
        config = tiny_config(mode="phi", rounds=1, offline_probability=1.0)
        report = run_federation(config, fed, seed=17)
        online = report.rounds[0].online_clients
        assert len(online) == 3

        clients, embedder0 = initialize_clients(fed, config, seed=17)
        ctx = np.zeros((0, fed.params.embed_dim))
        local = [
            client_local_round([clients[c]], embedder0, [ctx], config, [derive_rng(17, "local", 1, c)])[0][0]
            for c in online
        ]
        np.testing.assert_array_equal(
            report.server.embedder, aggregate_fedavg([s.embedder for s in local])
        )
        for s in local:
            np.testing.assert_array_equal(report.final_clients[s.client_id].embedder, s.embedder)
        (offline,) = set(range(4)) - set(online)
        np.testing.assert_array_equal(report.final_clients[offline].embedder, embedder0)
        np.testing.assert_array_equal(report.final_clients[offline].centers, clients[offline].centers)

    def test_information_flow_no_center_escapes(self, monkeypatch):
        received = record_releases(monkeypatch)
        fed = tiny_fed(7)
        config = tiny_config(mode="phi-hat")
        report = run_federation(config, fed, seed=41)
        server = report.server
        assert not hasattr(server, "centers")
        assert {f.name for f in dataclasses.fields(ServerState)} == {"embedder", "ledger"}
        client_centers = [s.centers for s in report.final_clients]
        releases = [block for released in received for block in released.values()]
        assert any(block.size for block in releases)
        for arr in [server.embedder, *releases]:
            for w in client_centers:
                assert not np.shares_memory(arr, w)
        for released in releases:
            for w in client_centers:
                assert not any(np.array_equal(center, row) for center in released for row in w)

    def test_cross_client_margin_reported(self):
        fed = tiny_fed(9)
        report = run_federation(tiny_config(), fed, seed=51)
        for r in report.rounds:
            assert 0.0 <= r.cross_client_margin <= np.pi

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            tiny_config(mode="bogus")
        with pytest.raises(ValidationError):
            tiny_config(offline_probability=1.5)
        with pytest.raises(ValidationError):
            tiny_config(rounds=0)

    def test_config_holds_no_client_count_or_aggregation(self):
        # the federation is the only client count, FedAvg the only aggregation and
        # the class means the only center init
        for removed in (dict(clients=4), dict(aggregation="fedavg"),
                        dict(center_init="uniform"), dict(init_scale=1.0)):
            with pytest.raises(TypeError):
                tiny_config(**removed)


class TestDeriveRng:
    def test_distinct_keys_distinct_streams(self):
        a = derive_rng(0, "local", 1, 2).standard_normal(4)
        b = derive_rng(0, "local", 1, 3).standard_normal(4)
        c = derive_rng(0, "cluster", 1, 2).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reproducible(self):
        a = derive_rng(7, "x", 5).standard_normal(3)
        b = derive_rng(7, "x", 5).standard_normal(3)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed, key", [
        (0, ()), (7, ("local", 3, 1)), (2**32 + 5, ("cluster", 2**40 + 1, 0)),
        (-3, ("cli-cluster", -1)), (2**64 - 1, ("x", "", 2**32 - 1)),
    ])
    def test_streams_are_those_of_the_list_form(self, seed, key):
        # the 32-bit words a list of masked ints seeds, as SeedSequence coerces them
        ints = [seed & 0xFFFFFFFF] + [
            sum((i + 1) * b for i, b in enumerate(k.encode())) & 0xFFFFFFFF
            if isinstance(k, str) else k & 0xFFFFFFFF
            for k in key
        ]
        want = np.random.default_rng(np.random.SeedSequence(ints))
        got = derive_rng(seed, *key)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()

    def test_package_stream_keys_fold_to_distinct_integers(self):
        # The fold is a weighted byte sum, not injective ("ad" and "cc" both give
        # 297), so a new key that collides with an old one would share its stream.
        source = "".join(p.read_text() for p in Path(federation.__file__).parent.glob("*.py"))
        keys = set(re.findall(r"derive_rng\(\s*[^,()]+,\s*\"([^\"]+)\"", source))
        assert keys >= {"synth", "init", "eval", "offline", "cluster", "local", "cli-cluster"}
        folded = {key: derive_rng(0, key).bit_generator.seed_seq.entropy[1] for key in keys}
        assert len(set(folded.values())) == len(keys), folded


def test_run_peak_memory_is_a_bounded_multiple_of_the_shards():
    # a mid shape, 4 x 200 ids x 4 samples at d=128: the run's own persistent arrays (client
    # states, the embedder, the pairs and the eval's gather buffer) take 0.65x the shards'
    # bytes and the run peaks at 1.05x (tracemalloc). A run that keeps the last online
    # client's float64 release input through the round peaks at 1.15x; a local step that
    # keeps the last step's gradients through its kernel call, at 1.12x; a run that keeps
    # every old client state alive through a round, at 1.41x; one that also holds the
    # shards concatenated for the whole run, at 2.41x.
    fed = tiny_fed(1, ids_per_client=200, embed_dim=128, input_dim=160)
    config = tiny_config(
        rounds=2,
        clustering_params=ClusteringParams(
            rho=1.3, min_cluster_size=2, max_queries=4, budget=PrivacyBudget(1.0, 5e-5)
        ),
        loss=LossConfig(30.0),
        batch_size=64,
        eval_positives=200,
        eval_negatives=200,
    )
    shards = sum(x.nbytes for x in fed.client_inputs)
    tracemalloc.start()
    try:
        run_federation(config, fed, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * shards


def test_exchanging_clusters_does_not_collapse_training():
    # Default federation, rho 1.3, clusters of 8 or more, 4 queries, 30 rounds. A foreign
    # logit that saturates at s inside a cap, with zero gradient there, left phi-hat's
    # final TAR@1e-2 at 0.59-0.71 on these seeds against phi's 0.98-0.99.
    for seed in (1, 2, 3):
        fed = generate_federation(SynthParams(), derive_rng(seed, "synth"))
        tar = {}
        for mode in ("phi", "phi-hat"):
            config = FederationConfig(
                rounds=30,
                mode=mode,
                clustering_params=ClusteringParams(rho=1.3, min_cluster_size=8, max_queries=4),
            )
            report = run_federation(config, fed, seed)
            tar[mode] = report.rounds[-1].tar_by_far[1e-2]
            if mode == "phi-hat":
                assert sum(sum(r.queries_by_client.values()) for r in report.rounds) > 0
        assert tar["phi-hat"] >= tar["phi"] - 0.02, (seed, tar)
