import copy
import dataclasses
import math
import struct
import time
import tracemalloc

import numpy as np
import pytest

from capfed import clustering, dp
from capfed.cli import load_unit_embeddings
from capfed.clustering import (
    MODE_NAIVE_PER_CENTER,
    MODE_NOISE_FREE,
    MODE_SANITIZED,
    MODES,
    ClusteringParams,
    run_clustering,
)
from capfed.dp import PrivacyBudget
from capfed.errors import DomainError, ValidationError
from capfed.geometry import normalize, normalize_rows, sample_uniform_directions
from conftest import planted_bundle, swap_witness
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
        members, p, _ = densest_cap(w, np.arange(30), rho=1.0)
        np.testing.assert_array_equal(members, np.arange(30))
        np.testing.assert_allclose(p, w.mean(axis=0))

    def test_larger_bundle_wins(self):
        rng = np.random.default_rng(1)
        axis = np.zeros(16)
        axis[0] = 1.0
        big = planted_bundle(axis, 600, 0.05, rng)
        small = planted_bundle(-axis, 550, 0.05, rng)
        w = np.concatenate([big, small])
        members, p, _ = densest_cap(w, np.arange(1150), rho=1.3)
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
        members, _, _ = densest_cap(w, np.arange(4), rho=0.5)
        np.testing.assert_array_equal(members, [0, 1])

    def test_active_subset_only(self):
        rng = np.random.default_rng(2)
        w = sample_uniform_directions(20, 8, rng)
        active = np.array([3, 7, 11])
        members, _, _ = densest_cap(w, active, rho=3.0)
        np.testing.assert_array_equal(np.sort(members), active)

    def test_empty_active_rejected(self):
        with pytest.raises(DomainError, match="^active index set is empty$"):
            densest_cap(np.eye(3), np.array([], dtype=int), rho=1.0)


class TestRunClustering:
    def test_gate_blocks_small_input(self):
        rng = np.random.default_rng(3)
        w = sample_uniform_directions(100, 16, rng)
        report = run_clustering(w, params(min_cluster_size=512, max_queries=4), rng)
        assert report.centers.shape == (0, 16)
        assert report.sizes == []
        assert report.queries_used == 0
        assert report.charged == 0

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
        assert report.sizes == [600, 600]
        # angle to the nearer of axis and -axis
        angles = sorted(math.acos(min(abs(float(c @ axis)), 1.0)) for c in report.centers)
        assert angles[-1] < 0.05

    def test_sanitized_charges_every_query(self):
        rng = np.random.default_rng(5)
        w = sample_uniform_directions(200, 8, rng)
        report = run_clustering(w, params(min_cluster_size=10, max_queries=3), rng)
        assert report.queries_used >= 1
        assert report.charged == report.queries_used
        assert report.centers.shape == (report.queries_used, 8)

    def test_sanitized_centers_are_unit_and_noised(self):
        rng = np.random.default_rng(6)
        w = sample_uniform_directions(300, 8, rng)
        p = params(min_cluster_size=20, max_queries=2)
        report, member_indexes, _ = _assert_same_as_dense(w, p, 6)
        for center, members in zip(report.centers, member_indexes, strict=True):
            assert np.linalg.norm(center) == pytest.approx(1.0, abs=1e-12)
            raw_direction = normalize(w[members].mean(axis=0))
            assert not np.array_equal(center, raw_direction)

    def test_sanitized_release_is_the_written_gaussian_mechanism(self):
        # sigma = sqrt(2 - 2 cos(2 rho)) / |S| / epsilon * sqrt(2 ln(1.25 / delta)), spelled
        # out here: the weak bound, or any other |S|, draws other bits
        w = sample_uniform_directions(300, 8, np.random.default_rng(6))
        rng, ref = np.random.default_rng(15), np.random.default_rng(15)
        p = params(min_cluster_size=20, max_queries=3)
        report = run_clustering(w, p, rng)
        _, member_indexes, _ = _assert_same_as_dense(w, p, 15)
        assert len(set(report.sizes)) == 3
        for center, members in zip(report.centers, member_indexes, strict=True):
            size = members.size
            sigma = math.sqrt(2.0 - 2.0 * math.cos(2.0 * 1.3)) / size / 1.0 * math.sqrt(
                2.0 * math.log(1.25 / 5e-5)
            )
            want = normalize(np.mean(w[members], axis=0) + ref.normal(0.0, sigma, 8))
            assert center.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_noise_free_deterministic_and_stream_untouched(self):
        rng_data = np.random.default_rng(7)
        w = sample_uniform_directions(150, 8, rng_data)
        rng = np.random.default_rng(8)
        before = copy.deepcopy(rng.bit_generator.state)
        first = run_clustering(w, params(mode=MODE_NOISE_FREE), rng)
        assert rng.bit_generator.state == before
        second = run_clustering(w, params(mode=MODE_NOISE_FREE), rng)
        assert first.queries_used == second.queries_used
        np.testing.assert_array_equal(first.centers, second.centers)
        assert first.charged == 0

    def test_removed_sets_disjoint_and_never_recovered(self):
        rng = np.random.default_rng(9)
        w = sample_uniform_directions(400, 6, rng)
        p = params(rho=0.9, min_cluster_size=2, max_queries=8, mode=MODE_NOISE_FREE)
        report, member_indexes, removed_indexes = _assert_same_as_dense(w, p, 0)
        assert report.queries_used >= 3
        seen: set[int] = set()
        for removed, members in zip(removed_indexes, member_indexes, strict=True):
            removed_set = set(int(i) for i in removed)
            assert not (removed_set & seen)
            assert not (set(int(i) for i in members) & seen)
            seen |= removed_set

    def test_raw_center_norm_bounds(self):
        rng = np.random.default_rng(10)
        w = sample_uniform_directions(500, 8, rng)
        p = params(rho=1.2, min_cluster_size=2, max_queries=6, mode=MODE_NOISE_FREE)
        _, member_indexes, _ = _assert_same_as_dense(w, p, 0)
        assert member_indexes
        for members in member_indexes:
            mean = w[members].mean(axis=0)
            assert math.cos(1.2) < np.linalg.norm(mean) <= 1.0 + 1e-12

    def test_sizes_meet_threshold(self):
        rng = np.random.default_rng(11)
        w = sample_uniform_directions(300, 6, rng)
        report = run_clustering(w, params(rho=1.0, min_cluster_size=12, max_queries=5), rng)
        for size in report.sizes:
            assert size >= 12

    def test_naive_mode_releases_every_center(self):
        rng = np.random.default_rng(12)
        w = sample_uniform_directions(40, 8, rng)
        report = run_clustering(w, params(mode=MODE_NAIVE_PER_CENTER), rng)
        assert report.queries_used == 40
        assert report.centers.shape == (40, 8)
        assert report.sizes == [1] * 40
        assert report.charged == 40
        norms = np.linalg.norm(report.centers, axis=1)
        assert max(abs(n - 1.0) for n in norms) > 0.5  # noise dominates, no renormalization

    def test_naive_mode_matches_per_row_noise(self):
        # one draw over the whole matrix: the same bits, and the same stream position
        # afterwards, as drawing each row's noise in turn
        w = sample_uniform_directions(37, 9, np.random.default_rng(13))
        rng, ref = np.random.default_rng(14), np.random.default_rng(14)
        report = run_clustering(w, params(mode=MODE_NAIVE_PER_CENTER), rng)
        sigma = 2.0 / 1.0 * math.sqrt(2.0 * math.log(1.25 / 5e-5))  # sensitivity 2
        want = [w[i] + ref.normal(0.0, sigma, 9) for i in range(37)]
        assert [c.tobytes() for c in report.centers] == [v.tobytes() for v in want]
        assert rng.bit_generator.state == ref.bit_generator.state
        assert report.fidelities == pytest.approx(
            [float(np.dot(normalize(v), w[i])) for i, v in enumerate(want)], abs=1e-15
        )

    def test_naive_fidelities_keep_the_bits_of_the_unscaled_rows(self):
        # the power-of-two scale before normalizing is exact
        w = sample_uniform_directions(200, 32, np.random.default_rng(16))
        report = run_clustering(w, params(mode=MODE_NAIVE_PER_CENTER), np.random.default_rng(17))
        sigma = dp.gaussian_sigma(dp.NAIVE_SENSITIVITY, BUDGET)
        noised = dp.gaussian_perturb(w, sigma, np.random.default_rng(17))
        assert report.fidelities == np.sum(normalize_rows(noised) * w, axis=1).tolist()

    def test_naive_fidelities_are_finite_at_a_tiny_epsilon(self):
        # sigma ~ 9e200: the noised rows' squared norms overflowed, and every fidelity read 0.0
        w = sample_uniform_directions(200, 32, np.random.default_rng(18))
        p = params(mode=MODE_NAIVE_PER_CENTER, budget=PrivacyBudget(1e-200, 5e-5))
        fidelities = np.array(run_clustering(w, p, np.random.default_rng(19)).fidelities)
        assert np.all(np.isfinite(fidelities))
        assert np.all(np.abs(fidelities) <= 1.0)
        assert np.count_nonzero(fidelities) == 200

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError, match="^center matrix must have at least one row$"):
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

    @pytest.mark.parametrize("mode", MODES)
    def test_rho_whose_cosine_rounds_to_one_rejected(self, mode):
        # cos(rho) == 1.0 up to rho = 1.0536712127723507e-8: the weak sensitivity is 0 there
        for rho in (1e-9, 8e-9, 1.0536712127723507e-8):
            assert math.cos(rho) == 1.0
            with pytest.raises(DomainError, match=r"rho <= 1\.0537e-8"):
                params(rho=rho, mode=mode)
        params(rho=1.0536712127723509e-8, mode=mode)  # the next double up is accepted

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


def rows_at_angles(axis, angles, rng):
    """Unit rows at the given angles from the unit vector axis, each toward a random direction."""
    u = rng.standard_normal((len(angles), axis.size))
    u = normalize_rows(u - np.outer(u @ axis, axis))
    angles = np.asarray(angles, dtype=float)[:, None]
    return normalize_rows(np.cos(angles) * axis + np.sin(angles) * u)


class TestTightSensitivity:
    """Noise-free neighbours: one member swapped for another row of the same cap.

    Row 0 is the cap's seed: every cap row lies within rho of it, so its count
    is the largest and wins any tie. A swap that keeps the new row inside the
    cap keeps the members, and the mean moves by ||w_i - w_i'|| / |S|.
    """

    @staticmethod
    def swap_ratio(w, i, row, rho):
        """||p - p'|| / tight_sensitivity(|S|, rho) for w and w with row i replaced."""
        (match,) = swap_witness(w, i, row, params(rho=rho, min_cluster_size=2, max_queries=1))
        np.testing.assert_array_equal(match.members, match.swapped_members)
        assert i in match.members and not match.transcript_differs
        return match.ratio

    @staticmethod
    def cap_with_background(d, rho, rng):
        axis = normalize(rng.standard_normal(d))
        members = rows_at_angles(axis, rng.uniform(0.0, 0.999 * rho, 29), rng)
        background = rows_at_angles(-axis, rng.uniform(0.0, 0.2, 10), rng)
        return axis, np.vstack([axis, members, background])

    @pytest.mark.parametrize("rho", [0.4, 1.3])
    @pytest.mark.parametrize("d", [3, 32, 512])
    def test_swapping_a_member_moves_the_mean_at_most_the_sensitivity(self, d, rho):
        rng = np.random.default_rng(d)
        axis, w = self.cap_with_background(d, rho, rng)
        for _ in range(20):
            i = int(rng.integers(1, 30))
            row = rows_at_angles(axis, [rng.uniform(0.0, 0.999 * rho)], rng)[0]
            assert self.swap_ratio(w, i, row, rho) <= 1.0

    @pytest.mark.parametrize("rho", [0.4, 1.3, math.pi / 2])
    @pytest.mark.parametrize("d", [3, 32, 512])
    def test_members_on_opposite_edges_reach_the_sensitivity(self, d, rho):
        rng = np.random.default_rng(d)
        axis, w = self.cap_with_background(d, min(rho, 1.3), rng)
        u = rows_at_angles(axis, [math.pi / 2], rng)[0]  # a unit vector orthogonal to axis
        edge = rho - 1e-13
        w[5] = normalize(math.cos(edge) * axis + math.sin(edge) * u)
        mirror = normalize(math.cos(edge) * axis - math.sin(edge) * u)
        assert abs(self.swap_ratio(w, 5, mirror, rho) - 1.0) <= 1e-12


class TestGreedyExceedsItsStatedSensitivity:
    """Pinned witnesses: swaps the tight sensitivity does not cover.

    The tight sensitivity bounds the move of a cap's mean when the swap keeps
    the cap's members and seed. Greedy release also lets a swap change them,
    and these neighbours move the noise-free mean past the stated bound
    while the transcript (count, sizes, sigma) stays the same. A release
    that closes the hole flips these assertions.
    """

    def test_singleton_caps_release_single_rows(self):
        # at rho = 0.001 every cap is one row, and the seed is the swapped row itself
        rng = np.random.default_rng(37)
        x = sample_uniform_directions(64, 32, rng)
        row = sample_uniform_directions(1, 32, rng)[0]
        matches = swap_witness(x, 0, row, params(rho=0.001, min_cluster_size=1, max_queries=64))
        assert len(matches) == 64 and not any(m.transcript_differs for m in matches)
        assert max(m.ratio for m in matches) > 100

    def test_moving_a_row_between_caps_changes_the_seed(self):
        # caps of 9 and 8 rows around +u and -u; one row moves from the first to the second,
        # so the one query releases the other cap, of 9 rows on both sides
        rng = np.random.default_rng(38)
        u = normalize(rng.standard_normal(32))
        x = np.vstack([rows_at_angles(u, np.full(9, 0.6), rng), rows_at_angles(-u, np.full(8, 0.6), rng)])
        row = rows_at_angles(-u, [0.6], rng)[0]
        (match,) = swap_witness(x, 0, row, params(rho=1.3, min_cluster_size=8, max_queries=1))
        assert match.members.size == match.swapped_members.size == 9
        assert np.intersect1d(match.members, match.swapped_members).tolist() == [0]
        assert not match.transcript_differs
        assert match.ratio > 1


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
    """Assert every field of run_clustering's report is the dense oracle's, bit for bit.

    Returns the report with the oracle's member and removed index lists.
    """
    got = run_clustering(w, p, np.random.default_rng(seed))
    want, member_indexes, removed_indexes = dense_run_clustering(w, p, np.random.default_rng(seed))
    assert got.queries_used == want.queries_used
    assert got.charged == want.charged
    assert got.fidelities == want.fidelities
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.centers.shape == want.centers.shape
    assert got.sizes == want.sizes
    return got, member_indexes, removed_indexes


def test_report_holds_only_the_release_fields():
    names = [f.name for f in dataclasses.fields(clustering.ClusteringReport)]
    assert names == ["centers", "sizes", "charged", "fidelities"]


# Just above the rhos ClusteringParams rejects (cos(rho) == 1) and below
# arccos(1 - 2**-53) = 1.49e-8: a row whose rounded self-dot is below 1 is
# farther than rho from itself.
TINY_RHO = 1.2e-8


class TestNeighbourEdgeCases:
    def test_identical_rows_are_neighbours_at_tiny_rho(self, monkeypatch):
        monkeypatch.setattr(clustering, "_BLOCK_COSINES", 97)
        rng = np.random.default_rng(20)
        base = sample_uniform_directions(400, 8, rng)
        # rows whose rounded self-dot is below 1, so arccos of it exceeds rho
        base = base[np.sum(base * base, axis=1) < 1.0][:30]
        assert base.shape[0] == 30
        w = np.tile(base, (3, 1))[rng.permutation(90)]
        counts = clustering._neighbor_counts(w, TINY_RHO, w.astype(np.float32))
        np.testing.assert_array_equal(counts, 3)
        rows = np.arange(0, 90, 7)  # a recount of rows among all the rows they belong to
        recount = clustering._count_within(w, w.astype(np.float32), rows, np.arange(90), TINY_RHO)
        np.testing.assert_array_equal(recount, 3)
        p = params(rho=TINY_RHO, min_cluster_size=1, max_queries=1, mode=MODE_NOISE_FREE)
        _, (members,), _ = _assert_same_as_dense(w, p, 0)
        np.testing.assert_array_equal(members, np.flatnonzero(np.all(w == w[0], axis=1)))

    def test_every_row_counts_itself_at_tiny_rho(self, monkeypatch):
        monkeypatch.setattr(clustering, "_BLOCK_COSINES", 97)
        rng = np.random.default_rng(21)
        # norms 5e-10 short of 1, within tolerance: every self-cosine is below cos(rho)
        w = sample_uniform_directions(40, 4, rng) * (1.0 - 5e-10)
        counts = clustering._neighbor_counts(w, TINY_RHO, w.astype(np.float32))
        np.testing.assert_array_equal(counts, 1)
        recount = clustering._count_within(w, w.astype(np.float32), np.arange(40), np.arange(40), TINY_RHO)
        np.testing.assert_array_equal(recount, 1)
        p = params(rho=TINY_RHO, min_cluster_size=1, max_queries=1, mode=MODE_NOISE_FREE)
        _, member_indexes, _ = _assert_same_as_dense(w, p, 0)
        assert [m.tolist() for m in member_indexes] == [[0]]

    @pytest.mark.parametrize("mode", [MODE_NOISE_FREE, MODE_SANITIZED])
    def test_released_seed_is_never_released_again_at_tiny_rho(self, mode):
        # at rho = 1.2e-8 a seed's cosine with its own direction can round below
        # cos(rho); the removal test alone then kept it, and it was released again
        rng = np.random.default_rng(0)
        p = params(rho=TINY_RHO, min_cluster_size=1, max_queries=5, mode=mode)
        for draw in range(200):
            w = sample_uniform_directions(5, 64, rng)
            report, member_indexes, _ = _assert_same_as_dense(w, p, draw)
            assert report.queries_used == 5
            assert sorted(m.tolist() for m in member_indexes) == [[i] for i in range(5)]

    def test_tie_across_block_boundary_goes_to_lowest_index(self, monkeypatch):
        monkeypatch.setattr(clustering, "_BLOCK_COSINES", 97)
        rng = np.random.default_rng(22)
        w = sample_uniform_directions(300, 16, rng)
        axes = sample_uniform_directions(2, 16, rng)
        late, early = [37, 120, 250, 299], [36, 200, 201, 202]
        w[late] = planted_bundle(axes[0], 4, 0.01, rng)
        w[early] = planted_bundle(axes[1], 4, 0.01, rng)
        p = params(rho=0.05, min_cluster_size=4, max_queries=3, mode=MODE_NOISE_FREE)
        _, member_indexes, _ = _assert_same_as_dense(w, p, 0)
        assert [m.tolist() for m in member_indexes] == [early, late]

    def test_release_that_removes_every_row_ends_the_loop(self):
        rng = np.random.default_rng(23)
        w = planted_bundle(np.ones(8), 50, 0.2, rng)
        p = params(rho=1.0, min_cluster_size=1, max_queries=3, mode=MODE_NOISE_FREE)
        report, _, removed_indexes = _assert_same_as_dense(w, p, 0)
        assert report.queries_used == 1
        np.testing.assert_array_equal(removed_indexes[0], np.arange(50))


def _circle(groups):
    # unit rows in the plane: `count` copies of the point at angle `angle` per (angle, count)
    angles = np.concatenate([np.full(count, angle) for angle, count in groups])
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _count_recounts(monkeypatch):
    # the rows of every recount pass run_clustering makes
    recounted = []
    count_within = clustering._count_within

    def counting(centers, single, rows, cols, rho):
        recounted.append(rows.tolist())
        return count_within(centers, single, rows, cols, rho)

    monkeypatch.setattr(clustering, "_count_within", counting)
    return recounted


class TestLazyBounds:
    """Neighbour counts are upper bounds once rows leave; only a stale top bound is recounted."""

    # at rho = 0.3 on the circle: a cap of 30 at 0 and 5 at 0.25 is released first (seed at
    # 0.25), taking the row at 0.5 as a member but leaving it; that row's bound 14 (itself, the
    # 5 at 0.25 and 8 at 0.75) is then the stale top, its exact count 9
    RELEASED_FIRST = [(0.0, 30), (0.25, 5)]

    @pytest.mark.parametrize("mode", [MODE_SANITIZED, MODE_NOISE_FREE])
    def test_stale_top_bound_overtaken_after_one_recount(self, monkeypatch, mode):
        # 10 rows at 2.0 (bound and count 10) beat the stale top's 9
        w = _circle([(0.5, 1), (2.0, 10), (0.75, 8)] + self.RELEASED_FIRST)
        recounted = _count_recounts(monkeypatch)
        p = params(rho=0.3, min_cluster_size=1, max_queries=4, mode=mode)
        _, member_indexes, _ = _assert_same_as_dense(w, p, 0)
        assert [m.tolist() for m in member_indexes] == [
            [0] + list(range(19, 54)), list(range(1, 11)), [0] + list(range(11, 19))
        ]
        # one pass, over the rows whose bound exceeds 9: the ten at 2.0
        assert recounted == [list(range(1, 11))]

    def test_tie_after_a_recount_goes_to_the_lowest_index(self, monkeypatch):
        # the stale top (the row at 0.5, now last) falls to 9, and the 9 rows at 2.0 and the 8
        # at 0.75 ahead of it recount to 9 too: the first row at 2.0 is the seed
        w = _circle([(2.0, 9), (0.75, 8)] + self.RELEASED_FIRST + [(0.5, 1)])
        recounted = _count_recounts(monkeypatch)
        p = params(rho=0.3, min_cluster_size=1, max_queries=4, mode=MODE_NOISE_FREE)
        _, member_indexes, _ = _assert_same_as_dense(w, p, 0)
        assert [m.tolist() for m in member_indexes] == [
            list(range(17, 53)), list(range(9)), list(range(9, 17)) + [52]
        ]
        assert recounted == [list(range(17))]

    def test_caps_farther_apart_than_rho_take_no_recount(self, monkeypatch):
        # each release removes one whole cap and touches no other row's count, so every top
        # bound is exact: the shape of the cluster-large benchmark
        rng = np.random.default_rng(27)
        axes = np.eye(32)[:6]
        w = np.concatenate(
            [planted_bundle(axis, size, 0.1, rng) for axis, size in zip(axes, (40, 35, 30, 25, 20, 15))]
            + [sample_uniform_directions(200, 32, rng)]
        )[rng.permutation(365)]
        recounted = _count_recounts(monkeypatch)
        p = params(rho=0.5, min_cluster_size=15, max_queries=8)
        report, _, _ = _assert_same_as_dense(w, p, 0)
        assert report.sizes == [40, 35, 30, 25, 20, 15]
        assert recounted == []

    @pytest.mark.parametrize("mode", [MODE_SANITIZED, MODE_NOISE_FREE])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mostly_stale_bounds_up_to_n_queries(self, monkeypatch, d, mode):
        # uniform rows at rho = 1: caps overlap heavily, and most releases after the first
        # leave the top bound stale, until single rows are released
        recounted = _count_recounts(monkeypatch)
        later = 0
        for seed in range(4):
            w = sample_uniform_directions(60, d, np.random.default_rng([28, d, seed]))
            p = params(rho=1.0, min_cluster_size=1, max_queries=60, mode=mode)
            report, _, _ = _assert_same_as_dense(w, p, seed)
            later += report.queries_used - 1
        assert 2 * len(recounted) > later


class TestUngatheredRemoval:
    """Removal decides on (centers @ direction)[active], and gathers only near cos(rho)."""

    @pytest.mark.parametrize("mode", [MODE_SANITIZED, MODE_NOISE_FREE])
    @pytest.mark.parametrize("d", [16, 512])
    def test_rows_at_rho_from_the_direction_take_the_gathered_product(self, monkeypatch, d, mode):
        # a cap of 40 rows in a plane, and 20 probes at rho +- 1 ulp from its noise-free
        # direction, toward directions orthogonal to the plane: no probe is within rho of a
        # cap row, so the probes change neither the seed nor the members, hence nor the direction
        rng = np.random.default_rng([31, d])
        rho = 1.0
        a, b = np.linalg.qr(rng.standard_normal((d, 2)))[0].T
        phi = np.concatenate([rng.uniform(0.0, 0.05, 30), rng.uniform(0.75, 0.8, 10)])
        cap = np.outer(np.cos(phi), a) + np.outer(np.sin(phi), b)
        first = params(rho=rho, min_cluster_size=1, max_queries=1, mode=MODE_NOISE_FREE)
        (direction,) = run_clustering(cap, first, np.random.default_rng(0)).centers
        tangent = rng.standard_normal((20, d))
        tangent = normalize_rows(tangent - np.outer(tangent @ a, a) - np.outer(tangent @ b, b))
        theta = np.nextafter(rho, rng.choice([-np.inf, np.inf], 20))
        probes = np.outer(np.cos(theta), direction) + np.sin(theta)[:, None] * tangent
        w = np.concatenate([cap, probes])
        band = 4.0 * d * np.finfo(float).eps
        assert np.all(np.abs(probes @ direction - math.cos(rho)) <= band)

        near = []
        near_cos_rho = clustering._near_cos_rho

        def recording(*args):
            near.append(near_cos_rho(*args))
            return near[-1]

        monkeypatch.setattr(clustering, "_near_cos_rho", recording)
        p = params(rho=rho, min_cluster_size=1, max_queries=3, mode=mode)
        report, member_indexes, removed_indexes = _assert_same_as_dense(w, p, 1)
        assert near[0]  # the first query takes the fallback
        np.testing.assert_array_equal(member_indexes[0], np.arange(40))
        assert 40 < removed_indexes[0].size < 60  # the probes fall on both sides of rho
        if mode == MODE_NOISE_FREE:
            assert report.centers[0].tobytes() == direction.tobytes()

    @pytest.mark.parametrize("d", [16, 512])
    def test_ungathered_decisions_equal_the_gathered_ones(self, d):
        # the product over all rows differs from the gathered one in the last bit of a few
        # rows; rho is put just outside the band around such a row, where the rule still
        # decides on the ungathered product
        rng = np.random.default_rng([32, d])
        w = sample_uniform_directions(6000, d, rng)
        band = 4.0 * d * np.finfo(float).eps
        differing = 0
        for _ in range(200):
            active = np.flatnonzero(rng.random(6000) < 0.5)  # about 3,000 rows
            direction = normalize(rng.standard_normal(d))
            gathered = w[active] @ direction
            ungathered = (w @ direction)[active]
            differs = np.flatnonzero(gathered != ungathered)
            differing += differs.size
            row = int(rng.choice(differs)) if differs.size else int(rng.integers(active.size))
            assert clustering._near_cos_rho(ungathered, d, math.acos(ungathered[row]))
            rho = math.acos(ungathered[row] + rng.choice([-1.25, 1.25]) * band)
            if clustering._near_cos_rho(ungathered, d, rho):
                continue  # another row is inside the band: the query would gather
            np.testing.assert_array_equal(np.arccos(ungathered) > rho, np.arccos(gathered) > rho)
        assert differing > 0


class TestBlockedLoadNorms:
    """capfed cluster takes the loaded rows' norms a ROW_BLOCK_BYTES block at a time."""

    def test_zero_row_in_a_late_block_is_named_by_its_global_index(self, tmp_path):
        rows = sample_uniform_directions(1000, 512, np.random.default_rng(34)).astype("<f4")
        rows[905] = 0.0  # in the eighth block of 128 rows, loaded as float64 at d = 512
        path = tmp_path / "centers.bin"
        path.write_bytes(b"DPLC" + struct.pack("<II", *rows.shape) + rows.tobytes())
        with pytest.raises(ValidationError, match="row 905 has norm 0"):
            load_unit_embeddings(path)


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


def _equiangular(n, rho):
    # n rows at pairwise angle exactly rho: every off-diagonal cosine lies in the band
    c = math.cos(rho)
    w = np.zeros((n, n + 1))
    w[np.arange(n), np.arange(n)] = math.sqrt(1.0 - c)
    w[:, n] = math.sqrt(c)
    return w


def test_band_recheck_memory_is_bounded_when_every_pair_is_in_the_band():
    n, rho = 300, 1.0
    w = _equiangular(n, rho)
    p = params(rho=rho, min_cluster_size=1, max_queries=2, mode=MODE_NOISE_FREE)
    tracemalloc.start()
    try:
        run_clustering(w, p, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # gathering every in-band pair at once peaked at 622 MiB
    _assert_same_as_dense(w, p, 0)


@pytest.mark.parametrize("block", [97, 5000, clustering._BLOCK_COSINES])
def test_neighbour_counts_recheck_each_in_band_pair_once(monkeypatch, block):
    # the square on a block's diagonal holds each of its pairs twice, as (i, j) and (j, i)
    monkeypatch.setattr(clustering, "_BLOCK_COSINES", block)
    n, rho = 300, 1.0
    w = _equiangular(n, rho)
    rechecked = []
    arccos = np.arccos

    def counting_arccos(x, *args, **kw):
        rechecked.append(np.size(x))
        return arccos(x, *args, **kw)

    monkeypatch.setattr(np, "arccos", counting_arccos)
    counts = clustering._neighbor_counts(w, rho, w.astype(np.float32))
    monkeypatch.undo()
    assert sum(rechecked) == n * (n - 1) // 2  # 44,850 pairs, not 89,700
    # each pair decided by the row-wise float64 dot, as the re-check does; a row counts itself
    within = np.array([np.arccos(np.clip(np.sum(v * w, axis=1), -1.0, 1.0)) <= rho for v in w])
    np.fill_diagonal(within, True)
    np.testing.assert_array_equal(counts, within.sum(axis=1))


ROWS = clustering._BLOCK_ROWS


@pytest.mark.parametrize("length", [255, 256, 65535, 65536])
def test_mask_sums_hold_the_length_of_their_axis(length):
    mask = np.ones((2, length), dtype=bool)
    np.testing.assert_array_equal(clustering._mask_sum(mask, 1), [length, length])
    np.testing.assert_array_equal(clustering._mask_sum(mask.T, 0), [length, length])


@pytest.mark.parametrize(
    "n, tight", [(n, 0) for n in (1, 200, ROWS, ROWS + 1, 700, 1500)] + [(900, 600)]
)
def test_neighbour_counts_walk_the_upper_triangle(monkeypatch, n, tight):
    # n <= _BLOCK_ROWS is one block; every larger n up to 1448 was one block of n x n cosines.
    # The tight rows are all within 0.9 of each other: each counts at least 600, and a block
    # of _BLOCK_ROWS of them adds 256 to every later one, so a byte-wide count wraps.
    rng = np.random.default_rng([26, n])
    loose = n - tight
    w = np.concatenate([sample_uniform_directions(loose - loose // 4, 24, rng),
                        planted_bundle(np.ones(24), loose // 4, 0.6, rng),
                        planted_bundle(-np.ones(24), tight, 0.45, rng)])
    if tight:
        assert np.all(pairwise_angles(w[loose:]) <= 1.0)
    computed = []
    within_rho = clustering._within_rho

    def counting(cos, *args):
        computed.append(cos.size)
        return within_rho(cos, *args)

    monkeypatch.setattr(clustering, "_within_rho", counting)
    counts = clustering._neighbor_counts(w, 1.0, w.astype(np.float32))
    np.testing.assert_array_equal(counts, (pairwise_angles(w) <= 1.0).sum(axis=1))
    # the squares on the diagonal add at most _BLOCK_ROWS / n to the n (n + 1) / 2 needed
    assert sum(computed) <= n * (n + 1) // 2 + n * clustering._BLOCK_ROWS // 2
