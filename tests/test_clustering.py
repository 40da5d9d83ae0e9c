import copy
import math
import time
import tracemalloc

import numpy as np
import pytest

from capfed import clustering
from capfed.clustering import (
    MODE_NAIVE_PER_CENTER,
    MODE_NOISE_FREE,
    MODE_SANITIZED,
    ClusteringParams,
    run_clustering,
)
from capfed.dp import PrivacyBudget
from capfed.errors import DomainError, EmptyInputError
from capfed.geometry import angle_between, normalize, normalize_rows, sample_uniform_directions
from conftest import planted_bundle
from dense_oracle import dense_run_clustering, densest_cap, pairwise_angles

BUDGET = PrivacyBudget(1.0, 5e-5)


def params(**kw):
    base = dict(rho=1.3, min_cluster_size=4, max_queries=3, budget=BUDGET)
    base.update(kw)
    return ClusteringParams(**base)


class TestPairwiseAngles:
    def test_identical_rows(self):
        w = np.tile(normalize([1.0, 2.0, 2.0]), (5, 1))
        np.testing.assert_allclose(pairwise_angles(w), 0.0, atol=1e-7)

    def test_orthonormal_rows(self):
        theta = pairwise_angles(np.eye(4))
        expected = math.pi / 2 * (1 - np.eye(4))
        np.testing.assert_allclose(theta, expected, atol=1e-12)

    def test_planar_headings(self):
        headings = np.deg2rad([0.0, 30.0, 90.0])
        w = np.stack([np.cos(headings), np.sin(headings)], axis=1)
        theta = pairwise_angles(w)
        np.testing.assert_allclose(theta[0, 1], math.radians(30), atol=1e-12)
        np.testing.assert_allclose(theta[0, 2], math.radians(90), atol=1e-12)
        np.testing.assert_allclose(theta[1, 2], math.radians(60), atol=1e-12)
        np.testing.assert_allclose(theta, theta.T)
        np.testing.assert_array_equal(np.diag(theta), 0.0)


class TestDensestCap:
    def test_everything_within_margin(self):
        rng = np.random.default_rng(0)
        w = planted_bundle(np.ones(8), 30, 0.3, rng)
        members, p = densest_cap(w, np.arange(30), rho=1.0)
        np.testing.assert_array_equal(members, np.arange(30))
        np.testing.assert_allclose(p, w.mean(axis=0))

    def test_larger_bundle_wins(self):
        rng = np.random.default_rng(1)
        axis = np.zeros(16)
        axis[0] = 1.0
        big = planted_bundle(axis, 600, 0.05, rng)
        small = planted_bundle(-axis, 550, 0.05, rng)
        w = np.concatenate([big, small])
        members, p = densest_cap(w, np.arange(1150), rho=1.3)
        assert members.size == 600
        assert np.all(members < 600)
        assert np.dot(normalize(p), axis) > 0.99

    def test_tie_breaks_to_lowest_seed(self):
        # two far-apart pairs, each seed counts 2: index 0 must win
        w = np.array(
            [
                [1.0, 0.0, 0.0],
                [math.cos(0.2), math.sin(0.2), 0.0],
                [-1.0, 0.0, 0.0],
                [-math.cos(0.2), -math.sin(0.2), 0.0],
            ]
        )
        members, _ = densest_cap(w, np.arange(4), rho=0.5)
        np.testing.assert_array_equal(members, [0, 1])

    def test_active_subset_only(self):
        rng = np.random.default_rng(2)
        w = sample_uniform_directions(20, 8, rng)
        active = np.array([3, 7, 11])
        members, _ = densest_cap(w, active, rho=3.0)
        np.testing.assert_array_equal(np.sort(members), active)

    def test_empty_active_rejected(self):
        with pytest.raises(EmptyInputError):
            densest_cap(np.eye(3), np.array([], dtype=int), rho=1.0)


class TestRunClustering:
    def test_gate_blocks_small_input(self):
        rng = np.random.default_rng(3)
        w = sample_uniform_directions(100, 16, rng)
        report = run_clustering(w, params(min_cluster_size=512, max_queries=4), rng)
        assert report.clusters == []
        assert report.queries_used == 0
        assert report.ledger_delta == (0.0, 0.0)

    def test_antipodal_bundles_recovered_noise_free(self):
        rng = np.random.default_rng(4)
        axis = normalize(rng.standard_normal(64))
        w = np.concatenate(
            [planted_bundle(axis, 600, 0.05, rng), planted_bundle(-axis, 600, 0.05, rng)]
        )
        report = run_clustering(
            w,
            params(min_cluster_size=512, max_queries=2, mode=MODE_NOISE_FREE),
            np.random.default_rng(0),
        )
        assert report.queries_used == 2
        assert [c.covered_count for c in report.clusters] == [600, 600]
        angles = sorted(
            min(angle_between(c.center, axis), angle_between(c.center, -axis))
            for c in report.clusters
        )
        assert angles[-1] < 0.05

    def test_sanitized_ledger_delta(self):
        rng = np.random.default_rng(5)
        w = sample_uniform_directions(200, 8, rng)
        report = run_clustering(w, params(min_cluster_size=10, max_queries=3), rng)
        assert report.queries_used >= 1
        eps, delta = report.ledger_delta
        assert eps == report.queries_used * BUDGET.epsilon
        assert delta == pytest.approx(report.queries_used * BUDGET.delta)
        assert report.raw_centers == []  # sanitized runs never retain raw means

    def test_sanitized_centers_are_unit_and_noised(self):
        rng = np.random.default_rng(6)
        w = sample_uniform_directions(300, 8, rng)
        report = run_clustering(w, params(min_cluster_size=20, max_queries=2), rng)
        for cluster, members in zip(report.clusters, report.member_indexes):
            assert np.linalg.norm(cluster.center) == pytest.approx(1.0, abs=1e-12)
            raw_direction = normalize(w[members].mean(axis=0))
            assert not np.array_equal(cluster.center, raw_direction)

    def test_noise_free_deterministic_and_stream_untouched(self):
        rng_data = np.random.default_rng(7)
        w = sample_uniform_directions(150, 8, rng_data)
        rng = np.random.default_rng(8)
        before = copy.deepcopy(rng.bit_generator.state)
        first = run_clustering(w, params(mode=MODE_NOISE_FREE), rng)
        assert rng.bit_generator.state == before
        second = run_clustering(w, params(mode=MODE_NOISE_FREE), rng)
        assert first.queries_used == second.queries_used
        for a, b in zip(first.clusters, second.clusters):
            np.testing.assert_array_equal(a.center, b.center)
        assert first.ledger_delta == (0.0, 0.0)

    def test_removed_sets_disjoint_and_never_recovered(self):
        rng = np.random.default_rng(9)
        w = sample_uniform_directions(400, 6, rng)
        report = run_clustering(
            w, params(rho=0.9, min_cluster_size=2, max_queries=8, mode=MODE_NOISE_FREE), rng
        )
        assert report.queries_used >= 3
        seen: set[int] = set()
        for removed, members in zip(report.removed_indexes, report.member_indexes):
            removed_set = set(int(i) for i in removed)
            assert not (removed_set & seen)
            assert not (set(int(i) for i in members) & seen)
            seen |= removed_set

    def test_raw_center_norm_bounds(self):
        rng = np.random.default_rng(10)
        w = sample_uniform_directions(500, 8, rng)
        report = run_clustering(
            w, params(rho=1.2, min_cluster_size=2, max_queries=6, mode=MODE_NOISE_FREE), rng
        )
        assert report.raw_centers
        for p in report.raw_centers:
            assert math.cos(1.2) < np.linalg.norm(p) <= 1.0 + 1e-12

    def test_covered_counts_meet_threshold(self):
        rng = np.random.default_rng(11)
        w = sample_uniform_directions(300, 6, rng)
        report = run_clustering(w, params(rho=1.0, min_cluster_size=12, max_queries=5), rng)
        for c in report.clusters:
            assert c.covered_count >= 12

    def test_naive_mode_releases_every_center(self):
        rng = np.random.default_rng(12)
        w = sample_uniform_directions(40, 8, rng)
        report = run_clustering(w, params(mode=MODE_NAIVE_PER_CENTER), rng)
        assert report.queries_used == 40
        assert len(report.clusters) == 40
        eps, delta = report.ledger_delta
        assert eps == 40 * BUDGET.epsilon
        assert delta == pytest.approx(40 * BUDGET.delta)
        norms = [np.linalg.norm(c.center) for c in report.clusters]
        assert max(abs(n - 1.0) for n in norms) > 0.5  # noise dominates, no renormalization

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            run_clustering(np.zeros((0, 4)), params(), np.random.default_rng(0))

    def test_non_unit_rows_rejected(self):
        with pytest.raises(DomainError):
            run_clustering(np.full((5, 4), 0.9), params(), np.random.default_rng(0))

    def test_params_validation(self):
        with pytest.raises(DomainError):
            params(rho=2.0)
        with pytest.raises(DomainError):
            params(min_cluster_size=0)
        with pytest.raises(DomainError):
            params(max_queries=0)
        with pytest.raises(DomainError):
            params(mode="bogus")

    def test_runtime_scales_quadratically_at_worst(self):
        # loose witness for O(Q n^2): doubling n should stay well under 5x
        rng = np.random.default_rng(13)
        small = sample_uniform_directions(400, 16, rng)
        large = sample_uniform_directions(800, 16, rng)
        p = params(rho=1.0, min_cluster_size=1, max_queries=3, mode=MODE_NOISE_FREE)
        run_clustering(small, p, rng)  # warm-up

        def best_of(w, tries=3):
            times = []
            for _ in range(tries):
                start = time.perf_counter()
                run_clustering(w, p, rng)
                times.append(time.perf_counter() - start)
            return min(times)

        t_small = best_of(small)
        t_large = best_of(large)
        assert t_large <= 5.0 * max(t_small, 1e-4)


def _planted(n, d, rng):
    # four bundles of different tightness and size, plus uniform background
    axes = sample_uniform_directions(4, d, rng)
    parts = [
        planted_bundle(axis, size, angle, rng)
        for axis, size, angle in zip(axes, (60, 45, 30, 15), (0.05, 0.3, 0.8, 1.2))
    ]
    parts.append(sample_uniform_directions(n - 150, d, rng))
    w = np.concatenate(parts)
    return w[rng.permutation(n)]


def _with_duplicates(n, d, rng):
    # a third of the rows are exact copies of other rows
    base = sample_uniform_directions(n - n // 3, d, rng)
    copies = base[rng.integers(0, base.shape[0], n // 3)]
    w = np.concatenate([base, copies])
    return w[rng.permutation(n)]


class TestStreamingMatchesDense:
    """run_clustering against the dense angle-matrix oracle, over many small blocks."""

    @pytest.mark.parametrize("mode", [MODE_SANITIZED, MODE_NOISE_FREE])
    @pytest.mark.parametrize("make", [_planted, sample_uniform_directions, _with_duplicates])
    @pytest.mark.parametrize("d", [2, 8, 32, 128, 512])
    def test_identical_releases(self, monkeypatch, make, d, mode):
        monkeypatch.setattr(clustering, "_BLOCK_COSINES", 97)
        for seed, rho in enumerate((1e-3, 0.3, 1.0, 1.3, math.pi / 2)):
            w = make(300, d, np.random.default_rng([d, seed]))
            p = params(rho=rho, min_cluster_size=1, max_queries=6, mode=mode)
            _assert_same_as_dense(w, p, seed)

    @pytest.mark.parametrize("block", [97, clustering._BLOCK_COSINES])
    @pytest.mark.parametrize("mode", [MODE_SANITIZED, MODE_NOISE_FREE])
    @pytest.mark.parametrize("d", [3, 8, 32, 128, 512])
    def test_identical_releases_near_the_band(self, monkeypatch, d, mode, block):
        # pairs at rho +- delta sit inside the float32 band, where the exact re-check decides
        monkeypatch.setattr(clustering, "_BLOCK_COSINES", block)
        for rho in (0.05, 0.3, 1.0, 1.3, math.pi / 2):
            for seed in range(6):
                w = _near_band(120, d, rho, np.random.default_rng([d, seed, int(rho * 1e3)]))
                p = params(rho=rho, min_cluster_size=1, max_queries=6, mode=mode)
                _assert_same_as_dense(w, p, seed)


def _near_band(n, d, rho, rng):
    # three cap directions, each with rows at angle rho +- delta, delta log-uniform in [1e-8, 1e-3]
    axes = sample_uniform_directions(3, d, rng)
    parts = [axes]
    for axis, count in zip(axes, np.diff(np.linspace(3, n, 4).astype(int))):
        tangent = rng.standard_normal((count, d))
        tangent = normalize_rows(tangent - np.outer(tangent @ axis, axis))
        delta = np.exp(rng.uniform(math.log(1e-8), math.log(1e-3), count))
        theta = rho + rng.choice([-1.0, 1.0], count) * delta
        parts.append(normalize_rows(np.outer(np.cos(theta), axis) + np.sin(theta)[:, None] * tangent))
    w = np.concatenate(parts)
    return w[rng.permutation(n)]


def _assert_same_as_dense(w, p, seed):
    got = run_clustering(w, p, np.random.default_rng(seed))
    want = dense_run_clustering(w, p, np.random.default_rng(seed))
    assert got.queries_used == want.queries_used
    assert got.ledger_delta == want.ledger_delta
    assert got.fidelities == want.fidelities
    for ours, theirs in zip(got.member_indexes, want.member_indexes, strict=True):
        np.testing.assert_array_equal(ours, theirs)
    for ours, theirs in zip(got.removed_indexes, want.removed_indexes, strict=True):
        np.testing.assert_array_equal(ours, theirs)
    for ours, theirs in zip(got.clusters, want.clusters, strict=True):
        assert ours.center.tobytes() == theirs.center.tobytes()
        assert ours.covered_count == theirs.covered_count
    for ours, theirs in zip(got.raw_centers, want.raw_centers, strict=True):
        assert ours.tobytes() == theirs.tobytes()


class TestNeighbourEdgeCases:
    def test_identical_rows_are_neighbours_at_tiny_rho(self, monkeypatch):
        monkeypatch.setattr(clustering, "_BLOCK_COSINES", 97)
        rng = np.random.default_rng(20)
        base = sample_uniform_directions(400, 8, rng)
        # rows whose rounded self-dot is below 1, so arccos of it exceeds rho
        base = base[np.sum(base * base, axis=1) < 1.0][:30]
        assert base.shape[0] == 30
        w = np.tile(base, (3, 1))[rng.permutation(90)]
        np.testing.assert_array_equal(clustering._neighbor_counts(w, 1e-9), 3)
        p = params(rho=1e-9, min_cluster_size=1, max_queries=1, mode=MODE_NOISE_FREE)
        (members,) = run_clustering(w, p, rng).member_indexes
        np.testing.assert_array_equal(members, np.flatnonzero(np.all(w == w[0], axis=1)))

    def test_every_row_counts_itself_at_tiny_rho(self, monkeypatch):
        monkeypatch.setattr(clustering, "_BLOCK_COSINES", 97)
        rng = np.random.default_rng(21)
        # norms 5e-10 short of 1, within tolerance: every self-cosine is below cos(rho)
        w = sample_uniform_directions(40, 4, rng) * (1.0 - 5e-10)
        np.testing.assert_array_equal(clustering._neighbor_counts(w, 1e-9), 1)
        p = params(rho=1e-9, min_cluster_size=1, max_queries=1, mode=MODE_NOISE_FREE)
        assert [m.tolist() for m in run_clustering(w, p, rng).member_indexes] == [[0]]

    def test_tie_across_block_boundary_goes_to_lowest_index(self, monkeypatch):
        monkeypatch.setattr(clustering, "_BLOCK_COSINES", 97)
        rng = np.random.default_rng(22)
        w = sample_uniform_directions(300, 16, rng)
        axes = sample_uniform_directions(2, 16, rng)
        late, early = [37, 120, 250, 299], [36, 200, 201, 202]
        w[late] = planted_bundle(axes[0], 4, 0.01, rng)
        w[early] = planted_bundle(axes[1], 4, 0.01, rng)
        p = params(rho=0.05, min_cluster_size=4, max_queries=3, mode=MODE_NOISE_FREE)
        report = run_clustering(w, p, rng)
        assert [m.tolist() for m in report.member_indexes] == [early, late]

    def test_release_that_removes_every_row_ends_the_loop(self):
        rng = np.random.default_rng(23)
        w = planted_bundle(np.ones(8), 50, 0.2, rng)
        p = params(rho=1.0, min_cluster_size=1, max_queries=3, mode=MODE_NOISE_FREE)
        report = run_clustering(w, p, rng)
        assert report.queries_used == 1
        np.testing.assert_array_equal(report.removed_indexes[0], np.arange(50))


def test_peak_memory_grows_subquadratically():
    # the dense angle matrix made the n=4000 peak about 4x the n=2000 one
    rng = np.random.default_rng(24)
    p = params(rho=1.0, min_cluster_size=1, max_queries=3, mode=MODE_NOISE_FREE)

    def peak(n):
        w = sample_uniform_directions(n, 16, rng)
        tracemalloc.start()
        try:
            run_clustering(w, p, rng)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) <= 2.5 * peak(2000)


@pytest.mark.parametrize("d", [3, 32, 512])
def test_float32_block_cosines_within_a_quarter_of_the_band(d):
    # the band 4 * d * eps32 must cover the float32 product's error, (d + 2) * 2**-24
    rng = np.random.default_rng([25, d])
    w = np.concatenate(
        [sample_uniform_directions(200, d, rng), planted_bundle(np.ones(d), 100, 0.05, rng)]
    )
    single = w.astype(np.float32)
    block = single @ single.T
    exact = np.stack([np.sum(w[i] * w, axis=1) for i in range(w.shape[0])])
    band = 4.0 * d * np.finfo(block.dtype).eps
    assert np.max(np.abs(block - exact)) < band / 4


def test_band_recheck_memory_is_bounded_when_every_pair_is_in_the_band():
    # 300 rows at pairwise angle exactly rho: every off-diagonal cosine lies in the band
    n, rho = 300, 1.0
    c = math.cos(rho)
    w = np.zeros((n, n + 1))
    w[np.arange(n), np.arange(n)] = math.sqrt(1.0 - c)
    w[:, n] = math.sqrt(c)
    p = params(rho=rho, min_cluster_size=1, max_queries=2, mode=MODE_NOISE_FREE)
    tracemalloc.start()
    try:
        got = run_clustering(w, p, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # gathering every in-band pair at once peaked at 622 MiB
    want = dense_run_clustering(w, p, np.random.default_rng(0))
    for ours, theirs in zip(got.member_indexes, want.member_indexes, strict=True):
        np.testing.assert_array_equal(ours, theirs)
