import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from capfed import geometry
from capfed.errors import DomainError, ZeroVectorError
from capfed.geometry import (
    ROW_BLOCK_BYTES,
    checked_row_norms,
    has_unit_rows,
    normalize,
    normalize_rows,
    occupancy_ratio,
    reg_inc_beta,
    sample_uniform_directions,
)


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


class TestNormalize:
    def test_scaling(self):
        np.testing.assert_allclose(normalize([2.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_identity(self):
        v = e(0, 8)
        np.testing.assert_array_equal(normalize(v), v)

    def test_three_four_five(self):
        np.testing.assert_allclose(normalize([3.0, 4.0]), [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            normalize(np.zeros(4))
        with pytest.raises(ZeroVectorError):
            normalize(np.full(4, 1e-14))

    def test_overflowing_norm_rejected(self):
        # ||v||^2 overflows to inf: v / inf would be a zero "unit" vector
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(DomainError, match="norm inf"):
                normalize([1e200, -1e200, 3.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_norm_rejected(self, bad):
        with pytest.raises(DomainError):
            normalize([0.5, bad, 0.0])

    def test_rows(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((20, 5)) * 3.0
        out = normalize_rows(m)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_has_unit_rows_checks_every_row_block():
    block = geometry.ROW_BLOCK_BYTES // (6 * 8)  # rows of float64 at d = 6
    m = sample_uniform_directions(3 * block + 5, 6, np.random.default_rng(12))
    assert has_unit_rows(m)
    m[3 * block] *= 1.0 + 1e-8  # the first row of the last, partial block
    assert not has_unit_rows(m)
    assert has_unit_rows(m[: 3 * block])


def test_zero_row_in_a_late_block_of_a_stack_is_named_by_matrix_and_row():
    m = np.random.default_rng(35).standard_normal((3, 300, 512)).astype(np.float32)
    m[2, 290] = 0.0  # row 890 of the 900 rows, in the last, partial block of 256
    assert m.nbytes > ROW_BLOCK_BYTES
    with pytest.raises(ZeroVectorError, match="^row 290 of matrix 2 has norm 0"):
        checked_row_norms(m)


def test_row_norms_hold_no_square_of_the_whole_matrix():
    m = np.random.default_rng(36).standard_normal((4000, 512))  # 16 MB of float64

    def peak(normalize):
        tracemalloc.start()
        try:
            normalize()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    norms = 4000 * 8
    # in place, as the package normalizes samples, features and centers: the norms and a block
    in_place = m.copy()
    divide = lambda: np.divide(in_place, checked_row_norms(in_place)[:, None], out=in_place)  # noqa: E731
    assert peak(divide) <= norms + 2 * ROW_BLOCK_BYTES
    # out of place, the output besides
    assert peak(lambda: normalize_rows(m)) <= m.nbytes + norms + 2 * ROW_BLOCK_BYTES


class TestRegIncBeta:
    def test_uniform_cdf(self):
        for x in np.linspace(0.0, 1.0, 17):
            assert reg_inc_beta(float(x), 1.0, 1.0) == pytest.approx(x, abs=1e-14)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 3.2, 0.7) == 0.0
        assert reg_inc_beta(1.0, 3.2, 0.7) == 1.0

    def test_symmetric_midpoint(self):
        for a in (0.5, 1.0, 2.5, 17.0, 255.5):
            assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-13)

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(2)
        params = [(rng.uniform(0.1, 20), rng.uniform(0.1, 20)) for _ in range(200)]
        params += [(255.5, 0.5), (0.5, 255.5), (1023.5, 0.5)]
        for a, b in params:
            for x in rng.uniform(0.0, 1.0, size=8):
                ours = reg_inc_beta(float(x), a, b)
                ref = float(special.betainc(a, b, x))
                assert abs(ours - ref) <= 1e-12, (a, b, x)

    def test_reflection_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b = rng.uniform(0.2, 50, size=2)
            x = float(rng.uniform(0, 1))
            assert abs(reg_inc_beta(x, a, b) - (1.0 - reg_inc_beta(1.0 - x, b, a))) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_range_property(self, x, a):
        value = reg_inc_beta(x, a, 0.5)
        assert 0.0 <= value <= 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 1.0, -2.0)


class TestOccupancyRatio:
    def test_hemisphere_exact(self):
        for d in (2, 8, 512):
            assert abs(occupancy_ratio(math.pi / 2, d) - 0.5) <= 1e-12

    def test_full_sphere(self):
        for d in (2, 8, 512):
            assert occupancy_ratio(math.pi, d) == pytest.approx(1.0, abs=1e-12)

    def test_zero_margin(self):
        assert occupancy_ratio(0.0, 64) == 0.0

    def test_quoted_values_d512(self):
        assert 0.050 <= occupancy_ratio(1.5, 512) <= 0.060
        assert 2.5e-5 <= occupancy_ratio(1.4, 512) <= 1e-4
        assert 2e-10 <= occupancy_ratio(1.3, 512) <= 8e-10

    def test_monotone_in_rho(self):
        for d in (2, 8, 64, 512):
            grid = [occupancy_ratio(r, d) for r in np.linspace(0.0, math.pi, 80)]
            assert all(b - a >= -1e-14 for a, b in zip(grid, grid[1:]))

    def test_nonincreasing_in_dimension(self):
        # fixed margin below a hemisphere: higher dimensions concentrate mass
        # at the equator, so the same cap holds less of the sphere.
        for rho in (0.5, 1.0, 1.3, 1.5):
            values = [occupancy_ratio(rho, d) for d in (2, 4, 8, 32, 128, 512)]
            assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))

    def test_complement_identity(self):
        for rho in (1.8, 2.4, 3.0):
            assert occupancy_ratio(rho, 16) == pytest.approx(
                1.0 - occupancy_ratio(math.pi - rho, 16), abs=1e-13
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            occupancy_ratio(-0.1, 8)
        with pytest.raises(DomainError):
            occupancy_ratio(3.5, 8)
        with pytest.raises(DomainError):
            occupancy_ratio(1.0, 1)


class TestSampleUniformDirection:
    def test_deterministic_given_stream(self):
        a = sample_uniform_directions(4, 3, np.random.default_rng(7))
        b = sample_uniform_directions(4, 3, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self):
        rng = np.random.default_rng(8)
        m = sample_uniform_directions(500, 11, rng)
        np.testing.assert_allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-12)

    def test_mean_vanishes(self):
        # law of large numbers: the mean direction of 1e5 uniform draws is tiny
        rng = np.random.default_rng(9)
        m = sample_uniform_directions(100_000, 8, rng)
        assert np.linalg.norm(m.mean(axis=0)) < 0.02

    def test_cap_fraction_matches_closed_form(self):
        rng = np.random.default_rng(10)
        d, rho, n = 8, math.pi / 3, 100_000
        m = sample_uniform_directions(n, d, rng)
        hits = np.mean(np.arccos(np.clip(m[:, 0], -1, 1)) <= rho)
        p = occupancy_ratio(rho, d)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits - p) <= 3 * se

    def test_dimension_validation(self):
        with pytest.raises(DomainError):
            sample_uniform_directions(4, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(256, 32), (400, 64), (400, 512)])
    def test_bits_of_normalizing_the_draw(self, shape, seed):
        got = sample_uniform_directions(*shape, np.random.default_rng(seed))
        want = normalize_rows(np.random.default_rng(seed).standard_normal(shape))
        assert got.tobytes() == want.tobytes()

    def test_holds_one_copy_of_the_draw(self):
        # 4000 x 64 float64 is 2 MiB: the draw is normalized in place, a block of rows
        # squared at a time, so the peak is the draw, its norms and one block
        rng = np.random.default_rng(4)
        tracemalloc.start()
        try:
            m = sample_uniform_directions(4000, 64, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= m.nbytes + 8 * 4000 + 2 * ROW_BLOCK_BYTES


def test_two_hop_cosine_bound_fuzz():
    # u, v both within a quarter turn of o: cos(angle(u, v)) >= cos(alpha + beta)
    rng = np.random.default_rng(11)
    n, d = 20_000, 16
    o = sample_uniform_directions(n, d, rng)
    u = sample_uniform_directions(n, d, rng)
    v = sample_uniform_directions(n, d, rng)
    u *= np.where(np.sum(o * u, axis=1, keepdims=True) < 0, -1.0, 1.0)
    v *= np.where(np.sum(o * v, axis=1, keepdims=True) < 0, -1.0, 1.0)
    alpha = np.arccos(np.clip(np.sum(o * u, axis=1), -1, 1))
    beta = np.arccos(np.clip(np.sum(o * v, axis=1), -1, 1))
    cos_uv = np.clip(np.sum(u * v, axis=1), -1, 1)
    assert np.all(cos_uv >= np.cos(alpha + beta) - 1e-9)
