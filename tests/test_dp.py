import copy
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capfed.dp import (
    NAIVE_SENSITIVITY,
    PrivacyBudget,
    PrivacyLedger,
    gaussian_perturb,
    gaussian_sigma,
    tight_sensitivity,
    weak_sensitivity,
)
from capfed.errors import DomainError
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


def tight_sigma(cluster_size, rho, budget=BUDGET):
    return gaussian_sigma(tight_sensitivity(cluster_size, rho), budget)


def weak_sigma(cluster_size, rho, budget=BUDGET):
    return gaussian_sigma(weak_sensitivity(cluster_size, rho), budget)


class TestCalibrations:
    def test_tight_reference_value(self):
        assert tight_sigma(512, 1.3) == pytest.approx(0.016939, abs=1e-5)

    def test_tight_halves_with_doubled_size(self):
        assert tight_sigma(1024, 1.3) == tight_sigma(512, 1.3) / 2.0

    def test_weak_reference_value(self):
        assert weak_sigma(512, 1.3) == pytest.approx(0.021278, abs=1e-5)

    def test_tight_weak_ratio_is_half_angle_cosine(self):
        for rho in np.linspace(0.05, math.pi / 2, 40):
            t = tight_sigma(97, float(rho))
            w = weak_sigma(97, float(rho))
            assert abs(t / w - math.cos(rho / 2.0)) <= 1e-12

    def test_weak_vanishes_with_margin(self):
        assert 0.0 < weak_sigma(10, 1e-6) < 1e-5

    def test_weak_dominates_tight(self):
        for rho in np.linspace(0.01, math.pi / 2, 25):
            assert weak_sigma(31, float(rho)) >= tight_sigma(31, float(rho))

    def test_naive_reference_value(self):
        assert gaussian_sigma(NAIVE_SENSITIVITY, BUDGET) == pytest.approx(9.0008, abs=1e-3)
        assert NAIVE_SENSITIVITY == 2.0

    def test_naive_scales_inverse_epsilon(self):
        naive = gaussian_sigma(NAIVE_SENSITIVITY, BUDGET)
        assert gaussian_sigma(NAIVE_SENSITIVITY, PrivacyBudget(2.0, 5e-5)) == naive / 2.0

    def test_sensitivity_ratio_vs_naive(self):
        dplc = tight_sensitivity(512, 1.4)
        assert dplc / 2.0 == pytest.approx(1.93e-3, rel=0.01)

    def test_domain(self):
        with pytest.raises(DomainError):
            tight_sensitivity(0, 1.3)
        with pytest.raises(DomainError):
            tight_sensitivity(16, 2.0)  # beyond pi/2
        with pytest.raises(DomainError):
            weak_sensitivity(16, 0.0)

    def test_calibration_meets_gaussian_bound(self):
        # the classical bound, written out: sensitivity / epsilon * sqrt(2 ln(1.25 / delta))
        budget = PrivacyBudget(0.7, 1e-6)
        for s in (tight_sensitivity(64, 1.0), weak_sensitivity(64, 1.0), NAIVE_SENSITIVITY):
            assert gaussian_sigma(s, budget) == s / 0.7 * math.sqrt(2.0 * math.log(1.25 / 1e-6))

    @pytest.mark.parametrize("sensitivity", [tight_sensitivity, weak_sensitivity])
    def test_sensitivity_rounding_to_zero_rejected(self, sensitivity):
        # at rho = 1e-9, cos(rho) and cos(2 rho) round to 1: the sensitivity and sigma are 0
        with pytest.raises(DomainError, match="must be positive"):
            gaussian_sigma(sensitivity(8, 1e-9), BUDGET)

    @pytest.mark.parametrize("sensitivity", [0.0, -0.0, math.nan])
    def test_nonpositive_sigma_rejected(self, sensitivity):
        with pytest.raises(DomainError, match="must be positive"):
            gaussian_sigma(sensitivity, BUDGET)

    @pytest.mark.parametrize("epsilon", [1e-320, 5e-324])
    def test_infinite_sigma_rejected(self, epsilon):
        # a valid but subnormal epsilon overflows sigma to inf: the noise would be inf or NaN
        with pytest.raises(DomainError, match="must be finite"):
            gaussian_sigma(NAIVE_SENSITIVITY, PrivacyBudget(epsilon))
        with pytest.raises(DomainError, match="must be finite"):
            tight_sigma(8, 1.3, PrivacyBudget(epsilon))


class TestGaussianPerturb:
    def test_zero_sigma_rejected_and_stream_untouched(self):
        # sigma = 0 would publish p exactly; no release may do that
        rng = np.random.default_rng(0)
        before = copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(DomainError, match="must be positive"):
            gaussian_perturb(np.array([0.3, -0.2, 0.9]), 0.0, rng)
        assert rng.bit_generator.state == before

    def test_deterministic(self):
        p = np.linspace(-1, 1, 32)
        a = gaussian_perturb(p, 0.5, np.random.default_rng(3))
        b = gaussian_perturb(p, 0.5, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            gaussian_perturb(np.zeros(3), -1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_infinite_sigma_rejected_and_stream_untouched(self, sigma):
        rng = np.random.default_rng(0)
        before = copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(DomainError, match="must be"):
            gaussian_perturb(np.array([0.3, -0.2, 0.9]), sigma, rng)
        assert rng.bit_generator.state == before

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
        ledger = PrivacyLedger()
        ledger.charge("a", BUDGET, 3)
        assert ledger.totals() == {"a": (3.0, pytest.approx(1.5e-4))}

    def test_ten_rounds_single_query(self):
        ledger = PrivacyLedger()
        for _ in range(10):
            ledger.charge("c", PrivacyBudget(1.0, 5e-5), 1)
        eps, delta = ledger.totals()["c"]
        assert eps == 10.0
        assert delta == pytest.approx(5e-4)

    def test_zero_queries_charge_nothing(self):
        ledger = PrivacyLedger()
        ledger.charge("a", BUDGET, 0)
        assert ledger.totals() == {}
        ledger.charge("a", BUDGET, 2)
        before = ledger.totals()
        ledger.charge("a", BUDGET, 0)
        ledger.charge("b", BUDGET, 0)
        assert ledger.totals() == before

    def test_order_independent_totals(self):
        charges = [("a", PrivacyBudget(0.3), 2), ("b", BUDGET, 1), ("a", PrivacyBudget(0.7), 5)]
        forward, backward = PrivacyLedger(), PrivacyLedger()
        for c in charges:
            forward.charge(*c)
        for c in reversed(charges):
            backward.charge(*c)
        assert forward.totals() == backward.totals()  # dict equality ignores the order

    def test_totals_in_first_charge_order(self):
        rng = np.random.default_rng(6)
        clients = ["a", 7, ("c", 1), "d", 0]
        ledger = PrivacyLedger()
        order = []
        for _ in range(1500):
            budget = PrivacyBudget(float(rng.uniform(0.01, 3.0)), float(rng.uniform(0.0, 1e-4)))
            client = clients[int(rng.integers(len(clients)))]
            ledger.charge(client, budget, int(rng.integers(1, 9)))
            if client not in order:
                order.append(client)
        assert sorted(map(str, order)) == sorted(map(str, clients))
        assert list(ledger.totals()) == order

    def test_totals_are_a_snapshot(self):
        ledger = PrivacyLedger()
        ledger.charge("a", BUDGET, 1)
        first = ledger.totals()
        ledger.charge("a", BUDGET, 2)
        ledger.charge("b", BUDGET, 1)
        assert first == {"a": (1.0, 5e-5)}
        first["a"] = (0.0, 0.0)
        assert ledger.totals()["a"] == (3.0, 3 * 5e-5)

    def test_negative_queries_rejected(self):
        for queries in (-1, 1.5):
            with pytest.raises(DomainError, match="queries"):
                PrivacyLedger().charge("a", BUDGET, queries)

    def test_totals_are_fsum_of_charge_products(self):
        rng = np.random.default_rng(8)
        clients = ["a", "b", 3]
        ledger = PrivacyLedger()
        charges = []
        for _ in range(600):
            budget = PrivacyBudget(float(rng.uniform(1e-3, 5.0)), float(rng.uniform(1e-9, 1e-4)))
            charge = (clients[int(rng.integers(3))], budget, int(rng.integers(0, 40)))
            ledger.charge(*charge)
            charges.append(charge)
        for c in clients:
            mine = [(b, q) for client, b, q in charges if client == c]
            expected = (
                math.fsum(q * b.epsilon for b, q in mine),
                math.fsum(q * b.delta for b, q in mine),
            )
            assert ledger.totals()[c] == expected
        assert "nobody" not in ledger.totals()

    def test_overflowing_charge_raises_and_charges_nothing(self):
        huge = PrivacyBudget(1e308)
        ledger = PrivacyLedger()
        ledger.charge("a", huge, 1)
        ledger.charge(("b", 2), BUDGET, 1)
        before = ledger.totals()
        # the product 4 x 1e308 is inf
        with pytest.raises(DomainError, match=r"^client \('b', 2\): privacy charge inf is not a finite float$"):
            ledger.charge(("b", 2), huge, 4)
        # each product is finite, but the running total is not
        with pytest.raises(DomainError, match="^client 'a': composed privacy total overflows a float$"):
            ledger.charge("a", huge, 1)
        assert ledger.totals() == before

    def test_queries_beyond_float_range_raise_and_charge_nothing(self):
        ledger = PrivacyLedger()
        ledger.charge("a", BUDGET, 3)
        before = ledger.totals()
        for client in ("a", "b"):
            with pytest.raises(DomainError, match=(
                f"^client {client!r}: privacy charge inf is not a finite float$"
            )):
                ledger.charge(client, PrivacyBudget(), 10**400)
        assert ledger.totals() == before

    def test_largest_finite_total_is_kept(self):
        top = sys.float_info.max
        ledger = PrivacyLedger()
        ledger.charge("a", PrivacyBudget(top / 2), 1)
        ledger.charge("a", PrivacyBudget(top / 2), 1)
        assert ledger.totals()["a"][0] == top
        # one unit in the last place above the largest double rounds the sum to inf
        with pytest.raises(DomainError, match="overflows"):
            ledger.charge("a", PrivacyBudget(math.ulp(top)), 1)
        assert ledger.totals()["a"][0] == top

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_composition_is_query_additive(self, q1, q2):
        split, joint = PrivacyLedger(), PrivacyLedger()
        split.charge("x", BUDGET, q1)
        split.charge("x", BUDGET, q2)
        joint.charge("x", BUDGET, q1 + q2)
        eps_split, delta_split = split.totals().get("x", (0.0, 0.0))
        eps_joint, delta_joint = joint.totals().get("x", (0.0, 0.0))
        assert eps_split == eps_joint  # epsilon = 1.0 makes these exact integers
        assert delta_split == pytest.approx(delta_joint, rel=1e-15, abs=0.0)


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
