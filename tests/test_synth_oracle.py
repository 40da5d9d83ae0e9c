"""Sampling, pair gathering and evaluation against the references in synth_oracle.

Equality here is exact: the same shard, pair and TAR bytes, and the same
generator state afterwards, because the rewrite keeps every floating-point
operation and every random draw.
"""

import numpy as np
import pytest

import synth_oracle as oracle
import train_oracle
from capfed import federation, synth
from capfed.clustering import ClusteringParams
from capfed.dp import PrivacyBudget
from capfed.errors import DegenerateInputError
from capfed.federation import FederationConfig, embed, run_federation
from capfed.geometry import normalize_rows
from capfed.losses import LossConfig
from capfed.synth import (
    AttackGallery,
    SynthParams,
    VerificationPairs,
    generate_federation,
    knn_attack,
    make_verification_pairs,
    verification_eval,
)

FEDERATIONS = [
    dict(clients=3, ids_per_client=10, samples_per_identity=4, embed_dim=8, input_dim=12),
    dict(clients=4, ids_per_client=16, samples_per_identity=2, embed_dim=6, input_dim=6),
    dict(clients=2, ids_per_client=25, samples_per_identity=3, embed_dim=16, input_dim=24,
         public_identities=7, public_samples_per_identity=3),
    dict(clients=5, ids_per_client=12, samples_per_identity=5, embed_dim=32, input_dim=40,
         concentration=8.0, public_identities=4),
    dict(clients=1, ids_per_client=30, samples_per_identity=3, embed_dim=4, input_dim=9),
]


def state_of(rng):
    return rng.bit_generator.state


@pytest.mark.parametrize("case", range(len(FEDERATIONS)))
def test_generated_shards_match_oracle(monkeypatch, case):
    params = SynthParams(**FEDERATIONS[case])
    rng = np.random.default_rng([case, 1])
    live = generate_federation(params, rng)
    with monkeypatch.context() as patched:
        patched.setattr(synth, "_sample_inputs", oracle._sample_inputs)
        ref_rng = np.random.default_rng([case, 1])
        ref = generate_federation(params, ref_rng)
    assert state_of(rng) == state_of(ref_rng)
    assert live.directions.tobytes() == ref.directions.tobytes()
    assert live.lift.tobytes() == ref.lift.tobytes()
    for x, y in zip(live.client_inputs + live.client_labels, ref.client_inputs + ref.client_labels,
                    strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    if params.public_identities:
        assert live.public_inputs.tobytes() == ref.public_inputs.tobytes()
        assert live.public_labels.tobytes() == ref.public_labels.tobytes()


@pytest.mark.parametrize("case", range(len(FEDERATIONS)))
def test_pairs_match_oracle(case):
    fed = generate_federation(SynthParams(**FEDERATIONS[case]), np.random.default_rng(case))
    for seed, (pos, neg) in enumerate([(1, 1), (20, 30), (60, 60), (0, 15)]):
        rng, ref_rng = np.random.default_rng([case, seed]), np.random.default_rng([case, seed])
        if fed.params.clients == 1:  # no two identities of different clients to pair
            with pytest.raises(DegenerateInputError):
                make_verification_pairs(fed, pos, neg, rng)
            with pytest.raises(DegenerateInputError):
                oracle.make_verification_pairs(fed, pos, neg, ref_rng)
            assert state_of(rng) == state_of(ref_rng)
            continue
        live = make_verification_pairs(fed, pos, neg, rng)
        ref = oracle.make_verification_pairs(fed, pos, neg, ref_rng)
        assert state_of(rng) == state_of(ref_rng)
        for x, y in ((live.a, ref.a), (live.b, ref.b), (live.same, ref.same)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_pairs_match_oracle_on_uneven_hand_built_shards():
    # shards of different lengths and an empty one: row offsets must still line up
    rng = np.random.default_rng(31)
    sizes = [7, 0, 13, 4]
    labels = [np.repeat(np.arange(c, 24, 4), 3)[:n] for c, n in enumerate(sizes)]
    fed = synth.SyntheticFederation(
        params=SynthParams(clients=4, ids_per_client=6),
        directions=rng.standard_normal((24, 8)),
        identity_client=np.arange(24) % 4,
        lift=np.eye(8),
        client_inputs=[rng.standard_normal((n, 8)) for n in sizes],
        client_labels=labels,
    )
    live = make_verification_pairs(fed, 5, 12, np.random.default_rng(2))
    ref = oracle.make_verification_pairs(fed, 5, 12, np.random.default_rng(2))
    for x, y in ((live.a, ref.a), (live.b, ref.b), (live.same, ref.same)):
        assert x.tobytes() == y.tobytes()


def eval_pairs(fed, rng):
    """Sampled pairs, or with one client (no cross-client negative) label-order neighbours."""
    if fed.params.clients > 1:
        return make_verification_pairs(fed, 40, 40, rng)
    x, labels = fed.client_inputs[0], fed.client_labels[0]
    order = np.argsort(labels, kind="stable")
    a, b = order[:-1], order[1:]
    return VerificationPairs(x[a], x[b], labels[a] == labels[b])


@pytest.mark.parametrize("case", range(len(FEDERATIONS)))
def test_eval_and_embed_match_oracle(monkeypatch, case):
    fed = generate_federation(SynthParams(**FEDERATIONS[case]), np.random.default_rng(case))
    pairs = eval_pairs(fed, np.random.default_rng(case))
    assert pairs.same.any() and not pairs.same.all()
    targets = tuple(np.linspace(0.0, 1.0, 41))
    # a TAR moves only when a score crosses a threshold; the negative scores, which
    # verification_eval sorts, show every bit
    neg_scores = []
    sort = np.sort

    def recording_sort(a, *args, **kw):
        neg_scores.append(a)
        return sort(a, *args, **kw)

    monkeypatch.setattr(np, "sort", recording_sort)
    rng = np.random.default_rng([case, 9])
    embedders = [s * rng.standard_normal((fed.params.embed_dim, fed.params.input_dim))
                 for s in (1.0, 1e-3, 1e3)]
    x = np.concatenate(fed.client_inputs)
    for embedder in embedders:
        assert embed(embedder, x).tobytes() == train_oracle.embed(embedder, x).tobytes()
    live = [verification_eval(lambda v: embed(e, v), pairs, targets) for e in embedders]
    live.append(verification_eval(lambda v: v, pairs, targets))  # scores of the raw inputs
    live_scores, neg_scores = neg_scores, []
    ref = [oracle.verification_eval(lambda v: train_oracle.embed(e, v), pairs, targets)
           for e in embedders]
    ref.append(oracle.verification_eval(lambda v: v, pairs, targets))
    assert live == ref
    assert [s.tobytes() for s in live_scores] == [s.tobytes() for s in neg_scores]


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_knn_attack_matches_oracle(k):
    rng = np.random.default_rng(k)
    base = rng.standard_normal((12, 6))
    # repeated rows tie on cosine, so the stable tie order is exercised
    vectors = normalize_rows(np.concatenate([base, base[:5], base[2:7]]))
    gallery = AttackGallery(rng.permutation(1000)[: vectors.shape[0]], vectors)
    exposed = np.concatenate([base[[0, 3, 9]], rng.standard_normal((20, 6)), 0.5 * base[[1, 6]]])
    targets = [rng.choice(gallery.ids, size=int(rng.integers(1, 4)), replace=False)
               for _ in range(exposed.shape[0])]
    live = knn_attack(exposed, gallery, k, targets)
    ref = oracle.knn_attack(exposed, gallery, k, targets)
    assert live.success_rate == ref.success_rate
    assert live.per_exposed.tobytes() == ref.per_exposed.tobytes()
    assert 0.0 < ref.success_rate


def test_eval_leaves_pairs_and_embed_outputs_unchanged():
    fed = generate_federation(SynthParams(**FEDERATIONS[0]), np.random.default_rng(5))
    pairs = make_verification_pairs(fed, 30, 30, np.random.default_rng(6))
    before = (pairs.a.tobytes(), pairs.b.tobytes(), pairs.same.tobytes())
    verification_eval(lambda x: x, pairs, (0.01, 0.1))
    assert (pairs.a.tobytes(), pairs.b.tobytes(), pairs.same.tobytes()) == before
    outputs = []

    def scaled(x):
        outputs.append(x * 3.0)
        return outputs[-1]

    verification_eval(scaled, pairs, (0.1,))
    for out, x in zip(outputs, (pairs.a, pairs.b), strict=True):
        assert out.tobytes() == (x * 3.0).tobytes()


def test_embed_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(8)
    embedder, x = rng.standard_normal((5, 7)), rng.standard_normal((20, 7))
    before = (embedder.tobytes(), x.tobytes())
    embed(embedder, x)
    assert (embedder.tobytes(), x.tobytes()) == before


def use_oracle(monkeypatch):
    """Route the sampling and evaluation of run_federation through the references."""
    monkeypatch.setattr(synth, "make_verification_pairs", oracle.make_verification_pairs)
    monkeypatch.setattr(synth, "verification_eval", oracle.verification_eval)
    monkeypatch.setattr(federation, "embed", train_oracle.embed)


@pytest.mark.parametrize("shared", [False, True])
def test_run_federation_matches_oracle(monkeypatch, shared):
    fed = generate_federation(SynthParams(**FEDERATIONS[2]), np.random.default_rng(11))
    config = FederationConfig(
        rounds=3,
        mode="phi-hat",
        clustering_params=ClusteringParams(
            rho=1.3, min_cluster_size=1, max_queries=2, budget=PrivacyBudget(1.0, 5e-5)
        ),
        loss=LossConfig(16.0),
        learning_rate=0.2,
        batch_size=16,
        shared_public_shard=shared,
        eval_positives=40,
        eval_negatives=40,
        far_targets=(0.05, 0.2),
    )
    live = run_federation(config, fed, 21)
    with monkeypatch.context() as patched:
        use_oracle(patched)
        ref = run_federation(config, fed, 21)
    assert live.rounds == ref.rounds
    assert live.server.embedder.tobytes() == ref.server.embedder.tobytes()
    for a, b in zip(live.final_clients, ref.final_clients, strict=True):
        assert a.centers.tobytes() == b.centers.tobytes()
        assert a.embedder.tobytes() == b.embedder.tobytes()
