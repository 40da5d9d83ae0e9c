import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capfed.dp import (
    MechanismCalibration,
    PrivacyBudget,
    PrivacyLedger,
    cosine_floor,
    gaussian_perturb,
    naive_sigma,
    norm_tail_probability,
    sigma_tight,
    sigma_weak,
)
from capfed.errors import DomainError, FloorUndefinedError
from capfed.geometry import sample_uniform_directions

BUDGET = PrivacyBudget(1.0, 5e-5)


class TestBudget:
    def test_defaults(self):
        assert PrivacyBudget(2.0).delta == 5e-5
        assert PrivacyBudget() == PrivacyBudget(1.0, 5e-5)

    def test_validation(self):
        with pytest.raises(DomainError):
            PrivacyBudget(0.0)
        with pytest.raises(DomainError):
            PrivacyBudget(1.0, 0.0)
        with pytest.raises(DomainError):
            PrivacyBudget(1.0, 1.0)
        for epsilon in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                PrivacyBudget(epsilon)


class TestCalibrations:
    def test_tight_reference_value(self):
        cal = sigma_tight(512, 1.3, BUDGET)
        assert cal.sigma == pytest.approx(0.016939, abs=1e-5)
        assert cal.bound_kind == "tight"

    def test_tight_halves_with_doubled_size(self):
        one = sigma_tight(512, 1.3, BUDGET)
        two = sigma_tight(1024, 1.3, BUDGET)
        assert two.sigma == one.sigma / 2.0

    def test_weak_reference_value(self):
        assert sigma_weak(512, 1.3, BUDGET).sigma == pytest.approx(0.021278, abs=1e-5)

    def test_tight_weak_ratio_is_half_angle_cosine(self):
        for rho in np.linspace(0.05, math.pi / 2, 40):
            t = sigma_tight(97, float(rho), BUDGET).sigma
            w = sigma_weak(97, float(rho), BUDGET).sigma
            assert abs(t / w - math.cos(rho / 2.0)) <= 1e-12

    def test_weak_vanishes_with_margin(self):
        assert sigma_weak(10, 1e-9, BUDGET).sigma < 1e-8

    def test_weak_dominates_tight(self):
        for rho in np.linspace(0.01, math.pi / 2, 25):
            assert sigma_weak(31, float(rho), BUDGET).sigma >= sigma_tight(31, float(rho), BUDGET).sigma

    def test_naive_reference_value(self):
        cal = naive_sigma(BUDGET)
        assert cal.sigma == pytest.approx(9.0008, abs=1e-3)
        assert cal.sensitivity == 2.0

    def test_naive_scales_inverse_epsilon(self):
        assert naive_sigma(PrivacyBudget(2.0, 5e-5)).sigma == naive_sigma(BUDGET).sigma / 2.0

    def test_sensitivity_ratio_vs_naive(self):
        dplc = sigma_tight(512, 1.4, BUDGET).sensitivity
        assert dplc / 2.0 == pytest.approx(1.93e-3, rel=0.01)

    def test_domain(self):
        with pytest.raises(DomainError):
            sigma_tight(0, 1.3, BUDGET)
        with pytest.raises(DomainError):
            sigma_tight(16, 2.0, BUDGET)  # beyond pi/2
        with pytest.raises(DomainError):
            sigma_weak(16, 0.0, BUDGET)

    def test_calibration_meets_gaussian_bound(self):
        for cal in (sigma_tight(64, 1.0, BUDGET), sigma_weak(64, 1.0, BUDGET), naive_sigma(BUDGET)):
            lower = cal.sensitivity / cal.budget.epsilon * math.sqrt(2 * math.log(1.25 / cal.budget.delta))
            assert cal.sigma >= lower - 1e-12

    def test_undersized_sigma_rejected(self):
        with pytest.raises(DomainError):
            MechanismCalibration(0.1, 2.0, BUDGET, "naive")


class TestGaussianPerturb:
    def test_zero_sigma_exact_and_stream_untouched(self):
        rng = np.random.default_rng(0)
        before = copy.deepcopy(rng.bit_generator.state)
        p = np.array([0.3, -0.2, 0.9])
        out = gaussian_perturb(p, 0.0, rng)
        np.testing.assert_array_equal(out, p)
        assert out is not p
        assert rng.bit_generator.state == before

    def test_deterministic(self):
        p = np.linspace(-1, 1, 32)
        a = gaussian_perturb(p, 0.5, np.random.default_rng(3))
        b = gaussian_perturb(p, 0.5, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            gaussian_perturb(np.zeros(3), -1.0, np.random.default_rng(0))

    def test_chi_square_mean(self):
        # mean of ||v||^2 over many draws should sit near sigma^2 * d
        rng = np.random.default_rng(4)
        d, sigma, n = 512, 0.017, 100_000
        total = 0.0
        sq = []
        for _ in range(20):
            v = rng.normal(0.0, sigma, size=(n // 20, d))
            sq.append(np.sum(v * v, axis=1))
        sq = np.concatenate(sq)
        mean = sq.mean()
        se = sigma * sigma * math.sqrt(2.0 * d / n)
        assert abs(mean - sigma * sigma * d) <= 3 * se


class TestLedger:
    def test_additivity(self):
        ledger = PrivacyLedger().compose("a", 1, BUDGET, 3)
        assert ledger.total_for("a") == (3.0, pytest.approx(1.5e-4))

    def test_ten_rounds_single_query(self):
        ledger = PrivacyLedger()
        for t in range(1, 11):
            ledger = ledger.compose("c", t, PrivacyBudget(1.0, 5e-5), 1)
        eps, delta = ledger.total_for("c")
        assert eps == 10.0
        assert delta == pytest.approx(5e-4)

    def test_zero_queries_noop(self):
        ledger = PrivacyLedger().compose("a", 1, BUDGET, 2)
        assert ledger.compose("a", 2, BUDGET, 0) is ledger

    def test_order_independent_totals(self):
        charges = [("a", 1, PrivacyBudget(0.3), 2), ("b", 1, BUDGET, 1), ("a", 2, PrivacyBudget(0.7), 5)]
        forward = PrivacyLedger()
        for c in charges:
            forward = forward.compose(*c)
        backward = PrivacyLedger()
        for c in reversed(charges):
            backward = backward.compose(*c)
        assert forward.total_for("a") == backward.total_for("a")
        assert forward.totals()["b"] == backward.totals()["b"]

    def test_totals_match_total_for_in_first_appearance_order(self):
        rng = np.random.default_rng(6)
        clients = ["a", 7, ("c", 1), "d", 0]
        ledger = PrivacyLedger()
        for t in range(1500):
            budget = PrivacyBudget(float(rng.uniform(0.01, 3.0)), float(rng.uniform(0.0, 1e-4)))
            client = clients[int(rng.integers(len(clients)))]
            ledger = ledger.compose(client, t, budget, int(rng.integers(1, 9)))
        order = list(dict.fromkeys(e.client for e in ledger.entries))
        assert sorted(map(str, order)) == sorted(map(str, clients))
        assert list(ledger.totals().items()) == [(c, ledger.total_for(c)) for c in order]

    def test_immutability(self):
        base = PrivacyLedger()
        base.compose("a", 1, BUDGET, 1)
        assert base.entries == ()

    def test_negative_queries_rejected(self):
        with pytest.raises(DomainError):
            PrivacyLedger().compose("a", 1, BUDGET, -1)

    def test_totals_are_fsum_of_entry_products(self):
        rng = np.random.default_rng(8)
        clients = ["a", "b", 3]
        ledger = PrivacyLedger()
        for t in range(600):
            budget = PrivacyBudget(float(rng.uniform(1e-3, 5.0)), float(rng.uniform(1e-9, 1e-4)))
            ledger = ledger.compose(clients[int(rng.integers(3))], t, budget, int(rng.integers(0, 40)))
        for c in clients:
            mine = [e for e in ledger.entries if e.client == c]
            expected = (
                math.fsum(e.queries * e.budget.epsilon for e in mine),
                math.fsum(e.queries * e.budget.delta for e in mine),
            )
            assert ledger.total_for(c) == expected
            assert ledger.totals()[c] == expected
        assert ledger.total_for("nobody") == (0.0, 0.0)

    def test_rebuilt_ledger_has_the_same_totals(self):
        ledger = PrivacyLedger()
        for t, (c, eps) in enumerate([("a", 0.1), ("b", 0.7), ("a", 0.2), ("a", 0.3)]):
            ledger = ledger.compose(c, t, PrivacyBudget(eps), t + 1)
        assert PrivacyLedger(ledger.entries) == ledger
        assert PrivacyLedger(ledger.entries).totals() == ledger.totals()
        assert copy.deepcopy(ledger).totals() == ledger.totals()
        head = dataclasses.replace(ledger, entries=ledger.entries[:2])
        assert head.totals() == {"a": (0.1, 5e-5), "b": (1.4, 1e-4)}
        assert ledger.compose("b", 9, BUDGET, 0).totals() == ledger.totals()

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_composition_is_query_additive(self, q1, q2):
        split = PrivacyLedger().compose("x", 1, BUDGET, q1).compose("x", 2, BUDGET, q2)
        joint = PrivacyLedger().compose("x", 1, BUDGET, q1 + q2)
        eps_split, delta_split = split.total_for("x")
        eps_joint, delta_joint = joint.total_for("x")
        assert eps_split == eps_joint  # epsilon = 1.0 makes these exact integers
        assert delta_split == pytest.approx(delta_joint, rel=1e-15, abs=0.0)


class TestNormTail:
    def test_median_point(self):
        d, sigma = 512, 0.02
        r = math.sqrt(sigma * sigma * (d - 1))
        assert norm_tail_probability(r, sigma, d) == pytest.approx(0.5, abs=1e-9)

    def test_deep_lower_tail(self):
        assert norm_tail_probability(0.0, 0.017, 512) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            norm_tail_probability(1.0, 0.017, 49)
        with pytest.raises(DomainError):
            norm_tail_probability(-1.0, 0.017, 512)
        with pytest.raises(DomainError):
            norm_tail_probability(1.0, 0.0, 512)

    def test_against_sampling_oracle(self):
        d, sigma, r, n = 512, 0.017, 0.40, 100_000
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(20):
            v = rng.normal(0.0, sigma, size=(n // 20, d))
            hits += int(np.sum(np.linalg.norm(v, axis=1) <= r))
        assert abs(hits / n - norm_tail_probability(r, sigma, d)) <= 0.01


class TestCosineFloor:
    def test_no_noise(self):
        assert cosine_floor(1.0, 0.0) == 1.0

    def test_three_four_five(self):
        assert cosine_floor(1.0, 0.6) == pytest.approx(0.8, abs=1e-15)

    def test_undefined_region(self):
        with pytest.raises(FloorUndefinedError):
            cosine_floor(0.5, 0.6)
        with pytest.raises(DomainError):
            cosine_floor(0.0, 0.0)

    def test_grid_search_attains_floor(self):
        # worst orientation is cos(p, v) = -a: scan the closed form over the grid
        for a in (0.1, 0.4, 0.83, 0.999):
            x = np.linspace(-1.0, 1.0, 20_001)
            s = (1.0 + a * x) / np.sqrt(1.0 + a * a + 2.0 * a * x)
            floor = cosine_floor(1.0, a)
            assert s.min() >= floor - 1e-9
            assert abs(s[np.argmin(np.abs(x + a))] - floor) <= 1e-6

    def test_fuzzed_floor_never_violated(self):
        rng = np.random.default_rng(6)
        n, d = 20_000, 24
        p = sample_uniform_directions(n, d, rng) * rng.uniform(0.3, 1.0, size=(n, 1))
        v = sample_uniform_directions(n, d, rng) * (
            rng.uniform(0.0, 1.0, size=(n, 1)) * np.linalg.norm(p, axis=1, keepdims=True)
        )
        q = p + v
        cos = np.sum(p * q, axis=1) / (np.linalg.norm(p, axis=1) * np.linalg.norm(q, axis=1))
        floors = np.sqrt(1.0 - (np.linalg.norm(v, axis=1) / np.linalg.norm(p, axis=1)) ** 2)
        assert np.all(cos >= floors - 1e-9)


def test_cluster_mean_norm_bounds():
    # members within rho of a seed direction: the mean keeps norm in (cos rho, 1]
    rng = np.random.default_rng(7)
    rho, d = 1.2, 32
    for _ in range(500):
        seed_dir = sample_uniform_directions(1, d, rng)[0]
        size = int(rng.integers(2, 40))
        members = [seed_dir]
        while len(members) < size:
            # about 2% of uniform directions lie within rho: draw them a batch at a time
            cand = sample_uniform_directions(2048, d, rng)
            inside = cand[np.arccos(np.clip(cand @ seed_dir, -1.0, 1.0)) <= rho]
            members.extend(inside[: size - len(members)])
        p = np.mean(members, axis=0)
        norm = np.linalg.norm(p)
        assert math.cos(rho) < norm <= 1.0 + 1e-12
