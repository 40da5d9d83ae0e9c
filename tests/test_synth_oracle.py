"""Sampling, pair gathering and evaluation against the references in synth_oracle.

Equality here is exact: the same shard, pair and TAR bytes, and the same
generator state afterwards, because the rewrite keeps every floating-point
operation and every random draw.
"""

import dataclasses

import numpy as np
import pytest

import synth_oracle as oracle
import train_oracle
from capfed import blas, federation, geometry, synth
from capfed.clustering import ClusteringParams
from capfed.dp import PrivacyBudget
from capfed.errors import DomainError
from capfed.federation import FederationConfig, embed, run_federation
from capfed.geometry import normalize_rows
from capfed.losses import LossConfig
from capfed.synth import (
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
    dict(clients=2, ids_per_client=25, samples_per_identity=3, embed_dim=16, input_dim=24),
    dict(clients=5, ids_per_client=12, samples_per_identity=5, embed_dim=32, input_dim=40,
         concentration=8.0),
    dict(clients=1, ids_per_client=30, samples_per_identity=3, embed_dim=4, input_dim=9),
]


# Shards that span several generation blocks (block_rows of the lift: 1985 rows at
# d = 33, 1024 at d = 64, 256 at d = 256, 128 at d = 512) and end in a ragged last
# block, which reaches back over the one before: of 1, 16, 77 and 32 rows in the
# d = 512 cases (129, 400, 333 and 4000 rows), of 132 in the d = 256 one (900 rows).
MULTI_BLOCK_FEDERATIONS = [
    dict(clients=2, ids_per_client=801, samples_per_identity=5, embed_dim=33, input_dim=40),
    dict(clients=2, ids_per_client=515, samples_per_identity=4, embed_dim=64, input_dim=80),
    dict(clients=2, ids_per_client=43, samples_per_identity=3, embed_dim=512, input_dim=640),
    dict(clients=3, ids_per_client=100, samples_per_identity=4, embed_dim=512, input_dim=640,
         concentration=8.0),
    dict(clients=2, ids_per_client=111, samples_per_identity=3, embed_dim=512, input_dim=640),
    dict(clients=1, ids_per_client=1000, samples_per_identity=4, embed_dim=512, input_dim=640),
    dict(clients=2, ids_per_client=225, samples_per_identity=4, embed_dim=256, input_dim=320),
]


def state_of(rng):
    return rng.bit_generator.state


@pytest.mark.parametrize("case", range(len(FEDERATIONS) + len(MULTI_BLOCK_FEDERATIONS)))
def test_generated_shards_match_oracle(case):
    params = SynthParams(**(FEDERATIONS + MULTI_BLOCK_FEDERATIONS)[case])
    rng, ref_rng = np.random.default_rng([case, 1]), np.random.default_rng([case, 1])
    live = generate_federation(params, rng)
    ref, _, lift = oracle.generate_federation(params, ref_rng)
    assert state_of(rng) == state_of(ref_rng)
    if case >= len(FEDERATIONS):
        rows, step = ref.client_inputs[0].shape[0], geometry.block_rows(lift)
        assert rows > step and rows % step
    for x, y in zip(live.client_inputs + live.client_labels, ref.client_inputs + ref.client_labels,
                    strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_same_pairs(live, ref):
    for x, y in ((live.ids, ref.ids), (live.ia, ref.ia), (live.ib, ref.ib),
                 (live.same, ref.same)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("case", range(len(FEDERATIONS)))
def test_pairs_match_oracle(case):
    fed = generate_federation(SynthParams(**FEDERATIONS[case]), np.random.default_rng(case))
    for seed, (pos, neg) in enumerate([(1, 1), (20, 30), (60, 60), (0, 15)]):
        rng, ref_rng = np.random.default_rng([case, seed]), np.random.default_rng([case, seed])
        if fed.params.clients == 1:  # no two identities of different clients to pair
            with pytest.raises(DomainError, match="^could not assemble the requested number"):
                make_verification_pairs(fed, pos, neg, rng)
            with pytest.raises(DomainError, match="^could not assemble the requested number"):
                oracle.make_verification_pairs(fed, pos, neg, ref_rng)
            assert state_of(rng) == state_of(ref_rng)
            continue
        live = make_verification_pairs(fed, pos, neg, rng)
        ref = oracle.make_verification_pairs(fed, pos, neg, ref_rng)
        assert state_of(rng) == state_of(ref_rng)
        assert_same_pairs(live, ref)


def test_pairs_match_oracle_on_uneven_hand_built_shards():
    # shards of different lengths and an empty one: row offsets must still line up
    rng = np.random.default_rng(31)
    sizes = [7, 0, 13, 4]
    labels = [np.repeat(np.arange(c, 24, 4), 3)[:n] for c, n in enumerate(sizes)]
    fed = synth.SyntheticFederation(
        params=SynthParams(clients=4, ids_per_client=6),
        client_inputs=[rng.standard_normal((n, 8)) for n in sizes],
        client_labels=labels,
    )
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    live = make_verification_pairs(fed, 5, 12, rng)
    ref = oracle.make_verification_pairs(fed, 5, 12, ref_rng)
    assert state_of(rng) == state_of(ref_rng)
    assert_same_pairs(live, ref)


def test_eval_gathers_across_uneven_shards_in_any_block_size(monkeypatch):
    # Blocks that cross shard boundaries and skip an empty shard, and a last block
    # that reaches back over the one before. The identity embedder's product is
    # exact whatever kernel runs it, so any block size gives the oracle's bits.
    rng = np.random.default_rng(32)
    sizes = [7, 0, 13, 4]
    labels = [np.repeat(np.arange(c, 24, 4), 3)[:n] for c, n in enumerate(sizes)]
    shards = [rng.standard_normal((n, 8)) for n in sizes]
    fed = synth.SyntheticFederation(SynthParams(clients=4, ids_per_client=6), shards, labels)
    pairs = make_verification_pairs(fed, 5, 12, np.random.default_rng(3))
    assert pairs.ids.size > 10 and (np.diff(np.searchsorted(pairs.ids, [7, 20])) > 0).all()
    targets = (0.0, 0.1, 0.5)
    ref = scores_and_tars(
        monkeypatch, lambda p: oracle.verification_eval(np.eye(8), shards, p, targets), pairs
    )
    for rows in (1, 2, 3, 5, pairs.ids.size - 1, pairs.ids.size, 64):
        live = scores_and_tars(
            monkeypatch,
            lambda p: verification_eval(np.eye(8), shards, p, targets, np.empty((rows, 8))),
            pairs,
        )
        assert live[0].tobytes() == ref[0].tobytes(), rows
        assert live[1] == ref[1]


def eval_pairs(fed, rng):
    """Sampled pairs, or with one client (no cross-client negative) label-order neighbours."""
    if fed.params.clients > 1:
        return make_verification_pairs(fed, 40, 40, rng)
    x, labels = fed.client_inputs[0], fed.client_labels[0]
    order = np.argsort(labels, kind="stable")
    a, b = order[:-1], order[1:]
    return VerificationPairs(np.arange(x.shape[0]), a, b, labels[a] == labels[b])


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
    embedders.append(np.eye(fed.params.input_dim))  # cosines of raw inputs
    buffer = synth.gather_buffer(fed.client_inputs, pairs)
    live = [verification_eval(e, fed.client_inputs, pairs, targets, buffer) for e in embedders]
    live_scores, neg_scores = neg_scores, []
    ref = [oracle.verification_eval(e, fed.client_inputs, pairs, targets, embed=train_oracle.embed)
           for e in embedders]
    assert live == ref
    assert [s.tobytes() for s in live_scores] == [s.tobytes() for s in neg_scores]


def scores_and_tars(monkeypatch, evaluate, pairs):
    """Every pair's score as the eval sorts it (the negatives, then, with the flags
    flipped, the positives) and the TARs of the unflipped pairs."""
    seen = []
    sort = np.sort

    def recording_sort(a, *args, **kw):
        seen.append(a)
        return sort(a, *args, **kw)

    with monkeypatch.context() as patched:
        patched.setattr(np, "sort", recording_sort)
        tars = evaluate(pairs)
        evaluate(dataclasses.replace(pairs, same=~pairs.same))
    return np.concatenate(seen), tars


# The default shape reuses rows across pairs; at d = 512 and input 640 the product
# of the distinct rows is large enough for OpenBLAS to split it over its threads.
@pytest.mark.parametrize("params, counts", [
    pytest.param({}, (1000, 1000), id="default"),
    pytest.param(dict(clients=2, ids_per_client=150, samples_per_identity=4, embed_dim=512,
                      input_dim=640), (300, 300), id="threaded"),
])
def test_distinct_row_scores_are_per_pair_scores(monkeypatch, params, counts):
    fed = generate_federation(SynthParams(**params), np.random.default_rng(12))
    pairs = make_verification_pairs(fed, *counts, np.random.default_rng(13))
    d, d_in = fed.params.embed_dim, fed.params.input_dim
    assert pairs.ids.size < 2 * pairs.same.size
    if params:
        assert pairs.ids.size * d_in * d > blas._SMALL_PRODUCT
    rng = np.random.default_rng(14)
    embedder = (rng.standard_normal((d, d_in)) / np.sqrt(d_in)).astype(np.float32)
    targets = (0.0, 0.01, 0.1, 0.5)
    shards = fed.client_inputs
    live = scores_and_tars(
        monkeypatch,
        lambda p: verification_eval(embedder, shards, p, targets, synth.gather_buffer(shards, p)),
        pairs,
    )
    ref = scores_and_tars(
        monkeypatch,
        lambda p: oracle.verification_eval(embedder, shards, p, targets, embed=embed),
        pairs,
    )
    assert live[0].dtype == np.float32 and live[0].size == pairs.same.size
    assert live[0].tobytes() == ref[0].tobytes()
    assert live[1] == ref[1]


def test_a_short_last_block_reaches_back_over_the_one_before(monkeypatch):
    # At the default shape (inner dimension 48, 32 columns) a product of up to 37 rows
    # gets other bits than the same rows inside a longer product; a one-row last block
    # would embed its row by itself.
    fed = generate_federation(SynthParams(), np.random.default_rng(18))
    pairs = make_verification_pairs(fed, 1000, 1000, np.random.default_rng(19))
    u, d, d_in = pairs.ids.size, fed.params.embed_dim, fed.params.input_dim
    rows = next(r for r in range(64, u) if u % r == 1)
    embedder = np.random.default_rng(20).standard_normal((d, d_in)).astype(np.float32)
    targets = (0.0, 0.01, 0.1)
    shards = fed.client_inputs
    blocked, one_call = (
        scores_and_tars(
            monkeypatch,
            lambda p: verification_eval(embedder, shards, p, targets, np.empty((n, d_in),
                                                                               np.float32)),
            pairs,
        )
        for n in (rows, u)
    )
    assert blocked[0].tobytes() == one_call[0].tobytes()
    assert blocked[1] == one_call[1]


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_knn_attack_matches_oracle(k):
    rng = np.random.default_rng(k)
    base = rng.standard_normal((12, 6))
    # repeated rows tie on cosine, so the stable tie order is exercised
    gallery = normalize_rows(np.concatenate([base, base[:5], base[2:7]]))
    gallery = gallery[rng.permutation(gallery.shape[0])]
    exposed = np.concatenate([base[[0, 3, 9]], rng.standard_normal((20, 6)), 0.5 * base[[1, 6]]])
    targets = [rng.choice(gallery.shape[0], size=int(rng.integers(1, 4)), replace=False)
               for _ in range(exposed.shape[0])]
    live = knn_attack(exposed, gallery, k, targets)
    ref = oracle.knn_attack(exposed, gallery, k, targets)
    assert live.tobytes() == ref.tobytes()
    assert 0.0 < np.mean(ref)


@pytest.mark.parametrize("block_bytes", [geometry.ROW_BLOCK_BYTES, 3 * 8 * 4000, 1],
                         ids=["16-rows", "3-rows", "1-row"])
def test_knn_attack_in_blocks_matches_oracle(monkeypatch, block_bytes):
    # 100 exposed rows against 4000 gallery rows: 16-row blocks at the default block
    # size, the last one of 4 rows; the gallery repeats 1000 rows, so ties are ranked
    rng = np.random.default_rng(41)
    base = rng.standard_normal((3000, 64))
    order = rng.permutation(4000)
    gallery = normalize_rows(np.concatenate([base, base[:1000]])[order])
    row_of = np.argsort(order)  # gallery row of each stacked row
    exposed = np.concatenate([base[:60] + 0.3 * rng.standard_normal((60, 64)),
                              rng.standard_normal((40, 64))])
    targets = [[int(row_of[i]), int(row_of[3000 + i])] for i in range(60)]
    targets += [int(t) for t in rng.integers(4000, size=40)]
    ref = [oracle.knn_attack(exposed, gallery, k, targets) for k in (1, 5)]
    monkeypatch.setattr(geometry, "ROW_BLOCK_BYTES", block_bytes)
    for k, want in zip((1, 5), ref):
        assert knn_attack(exposed, gallery, k, targets).tobytes() == want.tobytes()
    assert 0.0 < np.mean(ref[0]) < 1.0


def test_eval_leaves_its_inputs_unchanged_and_embeds_each_row_once(monkeypatch):
    fed = generate_federation(SynthParams(**FEDERATIONS[0]), np.random.default_rng(5))
    pairs = make_verification_pairs(fed, 30, 30, np.random.default_rng(6))
    embedder = np.random.default_rng(7).standard_normal((8, 12)).astype(np.float32)
    fields = (pairs.ids, pairs.ia, pairs.ib, pairs.same, embedder, *fed.client_inputs)
    before = [x.tobytes() for x in fields]
    buffer = synth.gather_buffer(fed.client_inputs, pairs)
    verification_eval(embedder, fed.client_inputs, pairs, (0.01, 0.1), buffer)
    assert [x.tobytes() for x in fields] == before
    features = []
    norms = synth.checked_row_norms

    def recording_norms(f):
        features.append(f)
        return norms(f)

    monkeypatch.setattr(synth, "checked_row_norms", recording_norms)
    verification_eval(embedder, fed.client_inputs, pairs, (0.1,), buffer)
    (out,) = features  # normalized in place after the norms are taken
    rows = np.concatenate(fed.client_inputs)[pairs.ids]
    assert out.tobytes() == embed(embedder, rows).tobytes()


# Several blocks of shard rows, the last one ragged: on one thread (the whole product is
# below _SMALL_PRODUCT), split over threads (each block is above it), and blocks below it
# in a product above it, which must not run on one thread when the whole one does not.
@pytest.mark.parametrize("embed_dim, input_dim, regime", [
    pytest.param(8, 1000, "one-thread", id="one-thread"),
    pytest.param(512, 640, "threads", id="threads"),
    pytest.param(64, 1000, "small-blocks", id="small-blocks"),
])
def test_blocked_eval_is_a_one_call_eval(monkeypatch, embed_dim, input_dim, regime):
    params = SynthParams(clients=2, ids_per_client=150, samples_per_identity=4,
                         embed_dim=embed_dim, input_dim=input_dim)
    fed = generate_federation(params, np.random.default_rng(15))
    pairs = make_verification_pairs(fed, 300, 300, np.random.default_rng(16))
    buffer = synth.gather_buffer(fed.client_inputs, pairs)
    u, step = pairs.ids.size, buffer.shape[0]
    assert step == geometry.block_rows(fed.client_inputs[0]) and u > 2 * step and u % step
    whole, block = u * input_dim * embed_dim, step * input_dim * embed_dim
    small = blas._SMALL_PRODUCT
    assert {"one-thread": whole < small, "threads": block >= small,
            "small-blocks": block < small <= whole}[regime]
    rng = np.random.default_rng(17)
    embedder = (rng.standard_normal((embed_dim, input_dim)) / np.sqrt(input_dim)).astype(np.float32)
    targets = (0.0, 0.01, 0.1, 0.5)
    shards = fed.client_inputs
    blocked = scores_and_tars(
        monkeypatch, lambda p: verification_eval(embedder, shards, p, targets, buffer), pairs
    )
    one_call = scores_and_tars(
        monkeypatch,
        lambda p: verification_eval(embedder, shards, p, targets, np.empty((u, input_dim),
                                                                           np.float32)),
        pairs,
    )
    assert blocked[0].dtype == np.float32 and blocked[0].size == pairs.same.size
    assert blocked[0].tobytes() == one_call[0].tobytes()
    assert blocked[1] == one_call[1]


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


@pytest.mark.parametrize("case", [2, 3])
def test_run_federation_matches_oracle(monkeypatch, case):
    fed = generate_federation(SynthParams(**FEDERATIONS[case]), np.random.default_rng(11))
    config = FederationConfig(
        rounds=3,
        mode="phi-hat",
        clustering_params=ClusteringParams(
            rho=1.3, min_cluster_size=1, max_queries=2, budget=PrivacyBudget(1.0, 5e-5)
        ),
        loss=LossConfig(16.0),
        learning_rate=0.2,
        batch_size=16,
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
