import math
import tracemalloc

import numpy as np
import pytest

from capfed.dp import PrivacyBudget, gaussian_perturb, naive_sigma
from capfed.errors import DegenerateInputError, DimensionMismatchError, DomainError
from capfed.geometry import normalize_rows, sample_uniform_directions
from capfed.synth import (
    AttackGallery,
    SynthParams,
    VerificationPairs,
    cross_client_margin,
    generate_federation,
    knn_attack,
    make_verification_pairs,
    verification_eval,
)


def gallery_from_directions(
    directions: np.ndarray,
    distractors: int,
    rng: np.random.Generator,
) -> AttackGallery:
    """Exact-centroid gallery over the federation identities plus distractor ones."""
    directions = np.asarray(directions, dtype=float)
    g = directions.shape[0]
    if distractors:
        extra = sample_uniform_directions(distractors, directions.shape[1], rng)
        vectors = np.concatenate([directions, extra], axis=0)
    else:
        vectors = directions.copy()
    return AttackGallery(np.arange(g + distractors), vectors)


def small_fed(seed=0, **kw):
    base = dict(
        clients=4,
        ids_per_client=16,
        samples_per_identity=4,
        embed_dim=8,
        input_dim=12,
        concentration=64.0,
    )
    base.update(kw)
    return generate_federation(SynthParams(**base), np.random.default_rng(seed))


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
        np.testing.assert_array_equal(fed.identity_client, np.arange(64) % 4)

    def test_infinite_concentration_recovers_directions(self):
        fed = small_fed(concentration=1e16)
        for x, y in zip(fed.client_inputs, fed.client_labels):
            lifted = fed.directions[y] @ fed.lift.T
            np.testing.assert_allclose(x, lifted, atol=1e-6)

    def test_deterministic(self):
        a, b = small_fed(7), small_fed(7)
        np.testing.assert_array_equal(a.directions, b.directions)
        for xa, xb in zip(a.client_inputs, b.client_inputs):
            np.testing.assert_array_equal(xa, xb)

    def test_lift_is_isometry(self):
        fed = small_fed()
        np.testing.assert_allclose(fed.lift.T @ fed.lift, np.eye(8), atol=1e-12)
        for x in fed.client_inputs:
            np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-9)

    def test_public_shard(self):
        fed = small_fed(public_identities=5, public_samples_per_identity=3)
        assert fed.public_inputs.shape == (15, 12)
        assert set(int(v) for v in fed.public_labels) == set(range(64, 69))

    def test_validation(self):
        with pytest.raises(DomainError):
            SynthParams(clients=0)
        with pytest.raises(DomainError):
            SynthParams(embed_dim=16, input_dim=8)
        with pytest.raises(DomainError):
            SynthParams(concentration=0.0)
        for per_identity in (0, -1):
            with pytest.raises(DomainError, match="public_samples_per_identity"):
                SynthParams(public_identities=3, public_samples_per_identity=per_identity)


class TestVerificationPairs:
    def test_no_duplicates_and_balance(self):
        fed = small_fed()
        pairs = make_verification_pairs(fed, 200, 200, np.random.default_rng(1))
        assert pairs.same.sum() == 200
        assert (~pairs.same).sum() == 200
        keys = set()
        for a, b in zip(pairs.a, pairs.b):
            key = (tuple(np.round(a, 12)), tuple(np.round(b, 12)))
            rev = (key[1], key[0])
            assert key not in keys and rev not in keys
            keys.add(key)

    def test_cross_client_negatives(self):
        fed = small_fed()
        all_y = np.concatenate(fed.client_labels)
        all_x = np.concatenate(fed.client_inputs)
        pairs = make_verification_pairs(fed, 50, 50, np.random.default_rng(2))
        # map rows back to identities to check the client split of negatives
        lookup = {tuple(np.round(x, 12)): int(y) for x, y in zip(all_x, all_y)}
        for a, b, same in zip(pairs.a, pairs.b, pairs.same):
            ga, gb = lookup[tuple(np.round(a, 12))], lookup[tuple(np.round(b, 12))]
            if same:
                assert ga == gb
            else:
                assert fed.identity_client[ga] != fed.identity_client[gb]

    def test_peak_memory_below_the_shards(self):
        # concatenating the shards to gather the pair rows peaks at 1.9x their bytes
        fed = small_fed(ids_per_client=200, embed_dim=128, input_dim=160)
        shards = sum(x.nbytes for x in fed.client_inputs)
        tracemalloc.start()
        try:
            pairs = make_verification_pairs(fed, 400, 400, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs.a.nbytes + pairs.b.nbytes == shards // 2
        assert peak < shards


class TestVerificationEval:
    def test_perfect_separation(self):
        d = 6
        pos = np.tile(np.eye(d)[0], (50, 1))
        neg_a = np.tile(np.eye(d)[1], (50, 1))
        neg_b = np.tile(np.eye(d)[2], (50, 1))
        pairs = VerificationPairs(
            a=np.concatenate([pos, neg_a]),
            b=np.concatenate([pos, neg_b]),
            same=np.array([True] * 50 + [False] * 50),
        )
        table = verification_eval(lambda x: x, pairs, [0.1, 0.01])
        assert table[0.1] == 1.0
        assert table[0.01] == 1.0

    def test_chance_level_random_embeddings(self):
        rng = np.random.default_rng(3)
        n = 10_000
        pairs = VerificationPairs(
            a=sample_uniform_directions(2 * n, 16, rng),
            b=sample_uniform_directions(2 * n, 16, rng),
            same=np.array([True] * n + [False] * n),
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
        normal = verification_eval(lambda x: x, VerificationPairs(a, b, same), [0.0])
        flipped = verification_eval(lambda x: x, VerificationPairs(a, b, ~same), [0.0])
        assert normal[0.0] == 1.0
        assert flipped[0.0] == 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        fed = small_fed()
        pairs = make_verification_pairs(fed, 100, 100, rng)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        base = verification_eval(lambda x: x, pairs, [0.1, 0.01])
        rotated = verification_eval(lambda x: x @ q.T, pairs, [0.1, 0.01])
        for far in base:
            assert rotated[far] == pytest.approx(base[far], abs=1e-12)

    def test_degenerate_flags_rejected(self):
        pairs = VerificationPairs(np.eye(3), np.eye(3), np.array([True, True, True]))
        with pytest.raises(DegenerateInputError):
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
        result = knn_attack(directions, gallery, 1, [[i] for i in range(64)])
        assert result.success_rate == 1.0

    def test_chance_level_random_exposed(self):
        rng = np.random.default_rng(8)
        g, k, n = 500, 5, 800
        gallery = gallery_from_directions(sample_uniform_directions(g, 12, rng), 0, rng)
        exposed = sample_uniform_directions(n, 12, rng)
        targets = [[int(rng.integers(g))] for _ in range(n)]
        result = knn_attack(exposed, gallery, k, targets)
        p = k / g
        se = math.sqrt(p * (1 - p) / n)
        assert abs(result.success_rate - p) <= 4 * se

    def test_noise_at_naive_scale_hides_identity(self):
        rng = np.random.default_rng(9)
        directions = sample_uniform_directions(128, 16, rng)
        gallery = gallery_from_directions(directions, 1280, rng)
        sigma = naive_sigma(PrivacyBudget(1.0, 5e-5)).sigma
        exposed = np.stack([gaussian_perturb(d, sigma, rng) for d in directions])
        result = knn_attack(exposed, gallery, 1, [[i] for i in range(128)])
        p = 1.0 / gallery.ids.size
        se = math.sqrt(p * (1 - p) / 128)
        assert result.success_rate <= p + 3 * se + 1e-9

    def test_cluster_coverage_targets(self):
        rng = np.random.default_rng(10)
        directions = sample_uniform_directions(30, 8, rng)
        gallery = gallery_from_directions(directions, 0, rng)
        center = normalize_rows(directions[:3].mean(axis=0, keepdims=True))
        result = knn_attack(center, gallery, 3, [list(range(3))])
        assert 0.0 <= result.success_rate <= 1.0
        assert result.per_exposed.shape == (1,)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        gallery = gallery_from_directions(sample_uniform_directions(5, 8, rng), 0, rng)
        with pytest.raises(DimensionMismatchError):
            knn_attack(np.ones((2, 4)), gallery, 1, [[0], [1]])

    def test_centroid_gallery_uniqueness_enforced(self):
        with pytest.raises(DomainError):
            AttackGallery(np.array([0, 0]), np.eye(2))
