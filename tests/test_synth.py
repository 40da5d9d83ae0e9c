import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from capfed import synth
from capfed.dp import gaussian_perturb
from capfed.errors import DomainError, ZeroVectorError
from capfed.geometry import ROW_BLOCK_BYTES, normalize_rows, sample_uniform_directions
from capfed.synth import (
    SynthParams,
    cross_client_margin,
    generate_federation,
    knn_attack,
    make_verification_pairs,
    verification_eval,
)
import synth_oracle
from synth_oracle import pairs_of_rows


def gallery_from_directions(
    directions: np.ndarray,
    distractors: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact-centroid gallery over the federation identities plus distractor rows."""
    directions = np.asarray(directions, dtype=float)
    if not distractors:
        return directions.copy()
    extra = sample_uniform_directions(distractors, directions.shape[1], rng)
    return np.concatenate([directions, extra], axis=0)


def small_params(**kw):
    base = dict(
        clients=4,
        ids_per_client=16,
        samples_per_identity=4,
        embed_dim=8,
        input_dim=12,
        concentration=64.0,
    )
    base.update(kw)
    return SynthParams(**base)


def small_fed(seed=0, **kw):
    return generate_federation(small_params(**kw), np.random.default_rng(seed))


def ground_truth(seed=0, **kw):
    """The (directions, lift) of small_fed(seed, **kw), from the reference generator."""
    _, directions, lift = synth_oracle.generate_federation(
        small_params(**kw), np.random.default_rng(seed)
    )
    return directions, lift


class TestGeneration:
    def test_disjoint_dense_labels(self):
        fed = small_fed(clients=4, ids_per_client=100)
        label_sets = [set(int(v) for v in y) for y in fed.client_labels]
        assert sum(len(s) for s in label_sets) == 400
        assert len(set.union(*label_sets)) == 400
        for a in range(4):
            for b in range(a + 1, 4):
                assert not (label_sets[a] & label_sets[b])
        assert set.union(*label_sets) == set(range(400))

    def test_round_robin_interleaving(self):
        fed = small_fed()
        owner = np.arange(64) % 4
        for c, y in enumerate(fed.client_labels):
            ids = np.unique(y)
            np.testing.assert_array_equal(ids, np.flatnonzero(owner == c))
            assert y.dtype == np.arange(64).dtype

    def test_infinite_concentration_recovers_directions(self):
        fed = small_fed(concentration=1e16)
        directions, lift = ground_truth(concentration=1e16)
        for x, y in zip(fed.client_inputs, fed.client_labels):
            lifted = directions[y] @ lift.T
            np.testing.assert_allclose(x, lifted, atol=1e-6)

    def test_deterministic(self):
        a, b = small_fed(7), small_fed(7)
        np.testing.assert_array_equal(ground_truth(7)[0], ground_truth(7)[0])
        for xa, xb in zip(a.client_inputs, b.client_inputs):
            np.testing.assert_array_equal(xa, xb)

    def test_lift_is_isometry(self):
        fed = small_fed()
        _, lift = ground_truth()
        np.testing.assert_allclose(lift.T @ lift, np.eye(8), atol=1e-12)
        for x in fed.client_inputs:
            np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-9)

    def test_holds_the_shards_and_one_block(self):
        # 8,500-row shards at d = 64 span 9 lift blocks of 1024 rows. Lifting each shard
        # whole held its float64 points and product and a float32 cast beside the shards:
        # a peak 18.8 blocks above shards + ground truth, against 2.4 in blocks (tracemalloc)
        params = SynthParams(clients=2, ids_per_client=500, samples_per_identity=17,
                             embed_dim=64, input_dim=80)
        generate_federation(params, np.random.default_rng(0))  # first-call allocations
        tracemalloc.start()
        try:
            fed = generate_federation(params, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in fed.client_inputs + fed.client_labels)
        truth = (1000 * 64 + 80 * 64) * 8  # directions and lift, float64
        assert peak <= held + truth + 4 * ROW_BLOCK_BYTES
        assert [f.name for f in dataclasses.fields(fed)] == [
            "params", "client_inputs", "client_labels"
        ]
        assert all(a.dtype != np.float64 for a in fed.client_inputs + fed.client_labels)

    def test_validation(self):
        with pytest.raises(DomainError):
            SynthParams(clients=0)
        with pytest.raises(DomainError):
            SynthParams(embed_dim=16, input_dim=8)
        with pytest.raises(DomainError):
            SynthParams(concentration=0.0)


def pair_rows(monkeypatch, fed, positives, negatives, rng):
    """The sampled pairs as rows of the shards laid end to end, and the same flags."""
    monkeypatch.setattr(synth, "_gather_rows", lambda shards, idx: idx)
    pairs = make_verification_pairs(fed, positives, negatives, rng)
    return pairs.rows[pairs.ia], pairs.rows[pairs.ib], pairs.same


class TestVerificationPairs:
    def test_no_duplicates_and_balance(self):
        fed = small_fed()
        pairs = make_verification_pairs(fed, 200, 200, np.random.default_rng(1))
        assert pairs.same.sum() == 200
        assert (~pairs.same).sum() == 200
        keys = set()
        for a, b in zip(pairs.rows[pairs.ia], pairs.rows[pairs.ib]):
            key = (tuple(np.round(a, 12)), tuple(np.round(b, 12)))
            rev = (key[1], key[0])
            assert key not in keys and rev not in keys
            keys.add(key)

    def test_cross_client_negatives(self):
        fed = small_fed()
        all_y = np.concatenate(fed.client_labels)
        all_x = np.concatenate(fed.client_inputs)
        pairs = make_verification_pairs(fed, 50, 50, np.random.default_rng(2))
        owner = np.arange(64) % 4  # identity g belongs to client g mod 4
        # map rows back to identities to check the client split of negatives
        lookup = {tuple(np.round(x, 12)): int(y) for x, y in zip(all_x, all_y)}
        for a, b, same in zip(pairs.rows[pairs.ia], pairs.rows[pairs.ib], pairs.same):
            ga, gb = lookup[tuple(np.round(a, 12))], lookup[tuple(np.round(b, 12))]
            if same:
                assert ga == gb
            else:
                assert owner[ga] != owner[gb]

    def test_every_positive_once_and_one_more_raises_before_drawing(self, monkeypatch):
        fed = small_fed(clients=2, ids_per_client=3, samples_per_identity=4)
        rows = pair_rows(monkeypatch, fed, 36, 1, np.random.default_rng(4))
        labels = np.concatenate(fed.client_labels)
        expected = {(i, j) for g in np.unique(labels)
                    for i, j in itertools.combinations(np.flatnonzero(labels == g).tolist(), 2)}
        assert len(expected) == 36
        got = [(int(i), int(j)) for i, j, same in zip(*rows) if same]
        assert len(got) == 36 and set(got) == expected
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        for pos, neg in ((37, 1), (36, 12 * 12 + 1)):
            with pytest.raises(DomainError, match=(
                "could not assemble the requested number of distinct pairs: "
                f"{pos} positives of 36 and {neg} negatives of 144"
            )):
                make_verification_pairs(fed, pos, neg, rng)
            assert rng.bit_generator.state == before

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 13])
    def test_pair_unranking_follows_combinations_by_larger_row(self, k):
        i, j = synth._pair_of_rank(np.arange(k * (k - 1) // 2))
        expected = sorted(itertools.combinations(range(k), 2), key=lambda p: (p[1], p[0]))
        assert list(zip(i.tolist(), j.tolist())) == expected

    def test_pair_unranking_is_exact_for_large_ranks(self):
        rank = np.array([2**31, 2**40 + 7, 2**52 - 1, 10**15, 4 * 10**15 + 3], dtype=np.int64)
        i, j = synth._pair_of_rank(rank)
        assert (0 <= i).all() and (i < j).all()
        assert (j * (j - 1) // 2 + i == rank).all()

    def test_negative_blocks_match_an_explicit_enumeration(self, monkeypatch):
        fed = small_fed(clients=3, ids_per_client=2, samples_per_identity=3)
        offsets = [0, 6, 12, 18]
        expected = [(i, j) for c in range(3) for e in range(c + 1, 3)
                    for i in range(offsets[c], offsets[c + 1])
                    for j in range(offsets[e], offsets[e + 1])]
        assert len(expected) == 108
        # a draw of every rank is a permutation of the ranks, so sorting by rank restores order
        rng = np.random.default_rng(5)
        ranks = np.random.default_rng(5).choice(108, size=108, replace=False)
        a, b, same = pair_rows(monkeypatch, fed, 0, 108, rng)
        assert not same.any()
        got = sorted(zip(ranks.tolist(), a.tolist(), b.tolist()))
        assert [(i, j) for _, i, j in got] == expected

    def test_draws_are_uniform_over_identities_and_client_pairs(self, monkeypatch):
        fed = generate_federation(SynthParams(), np.random.default_rng(6))
        positives, negatives = 1000, 6000
        a, b, same = pair_rows(monkeypatch, fed, positives, negatives, np.random.default_rng(7))
        labels = np.concatenate(fed.client_labels)
        per_id = np.bincount(labels[a[same]], minlength=labels.max() + 1)
        client = (np.arange(256) % 4)[labels]  # identity g belongs to client g mod 4
        blocks = np.unique(4 * client[a[~same]] + client[b[~same]], return_counts=True)[1]
        # each identity holds 28 of the 7168 positive pairs, each client pair 1/6 of the negatives
        for counts, draws, share, total in ((per_id, positives, 28 / 7168, 7168),
                                            (blocks, negatives, 1 / 6, 6 * 512 * 512)):
            assert counts.sum() == draws
            mean = draws * share
            sd = math.sqrt(mean * (1 - share) * (total - draws) / (total - 1))
            assert np.all(np.abs(counts - mean) <= 5 * sd), (counts.min(), counts.max(), mean)

    def test_peak_memory_below_the_shards(self):
        # concatenating the shards to gather the pair rows peaks at 1.9x their bytes;
        # the 1600 row slots of the 800 pairs would copy half the shards, and the
        # distinct rows and two indices take less, each row stored once
        fed = small_fed(ids_per_client=200, embed_dim=128, input_dim=160)
        shards = sum(x.nbytes for x in fed.client_inputs)
        tracemalloc.start()
        try:
            pairs = make_verification_pairs(fed, 400, 400, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        used = np.unique(np.concatenate([pairs.ia, pairs.ib]))
        assert used.tolist() == list(range(pairs.rows.shape[0]))
        assert np.unique(pairs.rows, axis=0).shape == pairs.rows.shape
        assert pairs.rows.nbytes + pairs.ia.nbytes + pairs.ib.nbytes <= shards // 2
        assert peak < shards


class TestVerificationEval:
    def test_perfect_separation(self):
        d = 6
        pos = np.tile(np.eye(d)[0], (50, 1))
        neg_a = np.tile(np.eye(d)[1], (50, 1))
        neg_b = np.tile(np.eye(d)[2], (50, 1))
        pairs = pairs_of_rows(
            np.concatenate([pos, neg_a]),
            np.concatenate([pos, neg_b]),
            np.array([True] * 50 + [False] * 50),
        )
        table = verification_eval(lambda x: x, pairs, [0.1, 0.01])
        assert table[0.1] == 1.0
        assert table[0.01] == 1.0

    def test_chance_level_random_embeddings(self):
        rng = np.random.default_rng(3)
        n = 10_000
        pairs = pairs_of_rows(
            sample_uniform_directions(2 * n, 16, rng),
            sample_uniform_directions(2 * n, 16, rng),
            np.array([True] * n + [False] * n),
        )
        table = verification_eval(lambda x: x, pairs, [0.1])
        se = math.sqrt(0.1 * 0.9 / n)
        assert abs(table[0.1] - 0.1) <= 4 * se

    def test_flag_inversion_swaps_roles(self):
        rng = np.random.default_rng(4)
        scores_pos = np.array([0.9, 0.8, 0.7])
        scores_neg = np.array([0.1, 0.2, 0.3])
        # separated case: inverting flags makes old negatives the positives
        a = np.stack([[1.0, 0.0]] * 6)
        b = np.array(
            [[c, math.sqrt(1 - c * c)] for c in np.concatenate([scores_pos, scores_neg])]
        )
        same = np.array([True] * 3 + [False] * 3)
        normal = verification_eval(lambda x: x, pairs_of_rows(a, b, same), [0.0])
        flipped = verification_eval(lambda x: x, pairs_of_rows(a, b, ~same), [0.0])
        assert normal[0.0] == 1.0
        assert flipped[0.0] == 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        fed = small_fed()
        pairs = make_verification_pairs(fed, 100, 100, rng)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        base = verification_eval(normalize_rows, pairs, [0.1, 0.01])
        rotated = verification_eval(lambda x: normalize_rows(x @ q.T), pairs, [0.1, 0.01])
        for far in base:
            assert rotated[far] == pytest.approx(base[far], abs=1e-12)

    def test_degenerate_flags_rejected(self):
        pairs = pairs_of_rows(np.eye(3), np.eye(3), np.array([True, True, True]))
        with pytest.raises(DomainError, match="^verification needs both positive and negative pairs$"):
            verification_eval(lambda x: x, pairs, [0.1])


class TestCrossClientMargin:
    def test_shared_direction_is_zero(self):
        shared = np.array([[1.0, 0.0, 0.0]])
        assert cross_client_margin([shared, shared.copy()]) == 0.0

    def test_orthogonal_singletons(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert cross_client_margin([a, b]) == pytest.approx(math.pi / 2)

    def test_merging_never_increases(self):
        rng = np.random.default_rng(6)
        a = sample_uniform_directions(10, 8, rng)
        b = sample_uniform_directions(10, 8, rng)
        base = cross_client_margin([a, b])
        a2 = a.copy()
        a2[0] = b[0]  # move one center onto a foreign one
        assert cross_client_margin([a2, b]) <= base

    def test_needs_two_clients(self):
        with pytest.raises(DomainError):
            cross_client_margin([np.eye(3)])


class TestKnnAttack:
    def test_exact_centroids_perfect_hit(self):
        rng = np.random.default_rng(7)
        directions = sample_uniform_directions(64, 16, rng)
        gallery = gallery_from_directions(directions, 0, rng)
        scores = knn_attack(directions, gallery, 1, [[i] for i in range(64)])
        assert np.all(scores == 1.0)

    def test_chance_level_random_exposed(self):
        rng = np.random.default_rng(8)
        g, k, n = 500, 5, 800
        gallery = gallery_from_directions(sample_uniform_directions(g, 12, rng), 0, rng)
        exposed = sample_uniform_directions(n, 12, rng)
        targets = [[int(rng.integers(g))] for _ in range(n)]
        scores = knn_attack(exposed, gallery, k, targets)
        p = k / g
        se = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(scores) - p) <= 4 * se

    def test_noise_at_naive_scale_hides_identity(self):
        rng = np.random.default_rng(9)
        directions = sample_uniform_directions(128, 16, rng)
        gallery = gallery_from_directions(directions, 1280, rng)
        sigma = 2.0 / 1.0 * math.sqrt(2.0 * math.log(1.25 / 5e-5))  # sensitivity 2, (1, 5e-5)
        exposed = np.stack([gaussian_perturb(d, sigma, rng) for d in directions])
        scores = knn_attack(exposed, gallery, 1, [[i] for i in range(128)])
        p = 1.0 / gallery.shape[0]
        se = math.sqrt(p * (1 - p) / 128)
        assert np.mean(scores) <= p + 3 * se + 1e-9

    def test_cluster_coverage_targets(self):
        rng = np.random.default_rng(10)
        directions = sample_uniform_directions(30, 8, rng)
        gallery = gallery_from_directions(directions, 0, rng)
        center = normalize_rows(directions[:3].mean(axis=0, keepdims=True))
        scores = knn_attack(center, gallery, 3, [list(range(3))])
        assert scores.shape == (1,)
        assert 0.0 <= scores[0] <= 1.0

    def test_holds_one_block_of_similarities(self):
        # the whole 1000 x 1000 product, its negation and its argsort would take 24 MB;
        # a normalized copy of the 8000 exposed rows would take 2 MB, and one of the
        # 2000 x 128 gallery 2 MB
        rng = np.random.default_rng(12)
        for rows, dim, exposed_rows in ((1000, 32, 1000), (1000, 32, 8000), (2000, 128, 200)):
            gallery = sample_uniform_directions(rows, dim, rng)
            exposed = 2.0 * sample_uniform_directions(exposed_rows, dim, rng)
            targets = [[i % rows] for i in range(exposed_rows)]
            tracemalloc.start()
            try:
                knn_attack(exposed, gallery, 1, targets)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the exposed rows' norms and scores, a block of normalized exposed rows,
            # of similarities and of their order, the sort's buffers
            assert peak <= 2 * 8 * exposed_rows + 4 * ROW_BLOCK_BYTES, (rows, exposed_rows)

    def test_gallery_is_used_as_given_and_must_be_unit(self):
        rng = np.random.default_rng(14)
        gallery = sample_uniform_directions(50, 8, rng)
        exposed = gallery[:10] + 0.1 * rng.standard_normal((10, 8))
        targets = [[i] for i in range(10)]
        before = gallery.tobytes()
        scores = knn_attack(exposed, gallery, 3, targets)
        assert gallery.tobytes() == before
        renormalized = knn_attack(exposed, normalize_rows(gallery), 3, targets)
        assert scores.tobytes() == renormalized.tobytes()
        nudged = gallery.copy()
        nudged[37] *= 1.0 + 1e-8  # one row off unit by more than UNIT_ROW_ATOL
        for bad in (2.0 * gallery, nudged):
            with pytest.raises(DomainError, match="^gallery rows must be unit vectors$"):
                knn_attack(exposed, bad, 3, targets)

    def test_zero_exposed_row_is_named_by_its_row(self):
        rng = np.random.default_rng(13)
        gallery = sample_uniform_directions(1000, 32, rng)
        exposed = sample_uniform_directions(200, 32, rng)  # blocks of 65 rows
        exposed[150] = 0.0
        with pytest.raises(ZeroVectorError, match="^row 150 has norm 0.000e[+]00$"):
            knn_attack(exposed, gallery, 1, [[0]] * 200)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        gallery = gallery_from_directions(sample_uniform_directions(5, 8, rng), 0, rng)
        with pytest.raises(DomainError, match="^exposed dim 4 != gallery dim 8$"):
            knn_attack(np.ones((2, 4)), gallery, 1, [[0], [1]])
