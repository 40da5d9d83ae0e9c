import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capfed.errors import DomainError
from capfed.geometry import normalize, normalize_rows, sample_uniform_directions
from capfed.losses import LossConfig
from conftest import one_client_loss
from train_oracle import cluster_similarity, finite_diff_check, margin_similarity


def plain_loss(f, labels, w, config):
    """The margin-softmax loss alone: no foreign centers."""
    return one_client_loss(f, labels, w, np.zeros((0, f.shape[1])), 0.0, config).loss


def random_instance(rng, n=8, d=16, batch=4, clusters=2):
    w = normalize_rows(rng.standard_normal((n, d)))
    f = normalize_rows(rng.standard_normal((batch, d)))
    labels = rng.integers(0, n, size=batch)
    foreign = normalize_rows(rng.standard_normal((clusters, d)))
    return f, labels, w, foreign


class TestMarginSimilarity:
    def test_cosface_positive_at_zero_angle(self):
        assert margin_similarity(LossConfig(64.0, 0.35), 0.0, "positive") == pytest.approx(41.6)

    def test_negative_role_orthogonal(self):
        assert margin_similarity(LossConfig(64.0), math.pi / 2, "negative") == pytest.approx(
            0.0, abs=1e-12
        )

    @given(st.floats(min_value=0.0, max_value=math.pi))
    @settings(max_examples=80, deadline=None)
    def test_negative_role_is_scaled_cosine(self, theta):
        value = margin_similarity(LossConfig(16.0), theta, "negative")
        assert value == pytest.approx(16.0 * math.cos(theta), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            margin_similarity(LossConfig(), -0.1, "positive")
        with pytest.raises(DomainError):
            margin_similarity(LossConfig(), 0.1, "sideways")

    def test_config_defaults_and_validation(self):
        assert LossConfig() == LossConfig(64.0, 0.35)
        with pytest.raises(DomainError):
            LossConfig(scale=0.0)
        with pytest.raises(DomainError):
            LossConfig(margin=-0.1)
        for bad in (dict(scale=math.inf), dict(scale=math.nan), dict(margin=math.inf),
                    dict(margin=math.nan)):
            with pytest.raises(DomainError, match="finite"):
                LossConfig(**bad)


class TestClusterSimilarity:
    def _pair_at(self, theta, d=8):
        p = np.zeros(d)
        p[0] = 1.0
        f = np.zeros(d)
        f[0], f[1] = math.cos(theta), math.sin(theta)
        return p, f

    def test_inside_margin_saturates(self):
        p, f = self._pair_at(0.65)
        assert cluster_similarity(p, f, 1.3, 64.0) == pytest.approx(64.0, abs=1e-9)

    def test_boundary(self):
        p, f = self._pair_at(1.3)
        assert cluster_similarity(p, f, 1.3, 64.0) == pytest.approx(64.0, abs=1e-6)

    def test_quarter_turn_beyond(self):
        p, f = self._pair_at(1.0 + math.pi / 2)
        assert cluster_similarity(p, f, 1.0, 64.0) == pytest.approx(0.0, abs=1e-9)

    def test_continuous_at_kink(self):
        values = [
            cluster_similarity(*self._pair_at(1.3 + eps), 1.3, 32.0)
            for eps in (-1e-7, 0.0, 1e-7)
        ]
        assert max(values) - min(values) < 1e-4

    def test_decreasing_beyond_margin(self):
        thetas = np.linspace(1.3, math.pi, 40)
        vals = [cluster_similarity(*self._pair_at(t), 1.3, 8.0) for t in thetas]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestKernelAgainstScalarLogits:
    """The kernel's logits are the scalar margin and cluster similarities."""

    @staticmethod
    def _at_angle(f, theta, rng):
        u = rng.standard_normal(f.size)
        u = normalize(u - (u @ f) * f)
        return math.cos(theta) * f + math.sin(theta) * u

    @pytest.mark.parametrize("k", [0, 3])
    def test_one_row_loss_is_logsumexp_minus_target(self, k):
        rng = np.random.default_rng(40 + k)
        config, rho, n, d = LossConfig(16.0), 1.0, 6, 12
        for _ in range(25):
            f = normalize(rng.standard_normal(d))
            w = sample_uniform_directions(n, d, rng)
            label = int(rng.integers(n))
            # one cluster inside the margin, one at it and one beyond it
            angles = rho + np.array([-0.5, 0.0, 0.4])[:k]
            clusters = np.array([self._at_angle(f, a, rng) for a in angles]).reshape(k, d)
            logits = [
                margin_similarity(
                    config,
                    math.acos(float(np.clip(f @ w[j], -1.0, 1.0))),
                    "positive" if j == label else "negative",
                )
                for j in range(n)
            ]
            logits += [cluster_similarity(p, f, rho, config.scale) for p in clusters]
            top = max(logits)
            want = top + math.log(math.fsum(math.exp(v - top) for v in logits)) - logits[label]
            got = one_client_loss(f[None, :], np.array([label]), w, clusters, rho, config).loss
            assert got == pytest.approx(want, rel=1e-9)


class TestClassificationLoss:
    def test_single_class_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        f = sample_uniform_directions(4, 16, rng)
        w = sample_uniform_directions(1, 16, rng)
        assert plain_loss(f, np.zeros(4, dtype=int), w, LossConfig(64.0)) == 0.0

    def test_hand_value_one_negative(self):
        f = np.array([[1.0, 0.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = plain_loss(f, np.array([0]), w, LossConfig(1.0, 0.0))
        assert loss == pytest.approx(-math.log(math.e / (math.e + 1.0)), abs=1e-12)

    def test_large_scale_is_finite(self):
        rng = np.random.default_rng(2)
        f, labels, w, foreign = random_instance(rng)
        loss = one_client_loss(f, labels, w, foreign, 1.3, LossConfig(64.0)).loss
        assert math.isfinite(loss)


class TestConsensusLoss:
    def test_empty_context_bit_for_bit(self):
        rng = np.random.default_rng(3)
        f, labels, w, _ = random_instance(rng)
        config = LossConfig(24.0)
        plain = plain_loss(f, labels, w, config)
        empty = one_client_loss(f, labels, w, np.zeros((0, 16)), 1.3, config).loss
        assert plain == empty

    def test_never_below_classification(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            f, labels, w, foreign = random_instance(rng)
            config = LossConfig(12.0)
            assert one_client_loss(f, labels, w, foreign, 1.0, config).loss > plain_loss(
                f, labels, w, config
            )

    def test_cluster_inside_margin_adds_full_weight(self):
        # one sample, one cluster at the sample itself: denominator gains e^s
        s = 4.0
        f = np.array([[1.0, 0.0, 0.0]])
        w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        labels = np.array([0])
        config = LossConfig(s, 0.0)
        foreign = np.array([[1.0, 0.0, 0.0]])
        expected = -math.log(math.exp(s) / (math.exp(s) + 1.0 + math.exp(s)))
        loss = one_client_loss(f, labels, w, foreign, 1.3, config).loss
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_adding_cluster_never_decreases(self):
        rng = np.random.default_rng(5)
        f, labels, w, foreign = random_instance(rng, clusters=1)
        config = LossConfig(10.0)
        base = one_client_loss(f, labels, w, foreign, 1.0, config).loss
        extra = np.concatenate([foreign, sample_uniform_directions(1, 16, rng)])
        assert one_client_loss(f, labels, w, extra, 1.0, config).loss >= base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        f, labels, w, foreign = random_instance(rng, clusters=3)
        config = LossConfig(16.0)
        base = one_client_loss(f, labels, w, foreign, 1.0, config).loss
        perm = rng.permutation(w.shape[0])
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size)
        shuffled = one_client_loss(f, inverse[labels], w[perm], foreign, 1.0, config).loss
        assert shuffled == pytest.approx(base, rel=1e-12)
        cluster_perm = foreign[::-1].copy()
        assert one_client_loss(f, labels, w, cluster_perm, 1.0, config).loss == pytest.approx(
            base, rel=1e-12
        )

    def test_moving_away_from_cluster_decreases_loss(self):
        # rotate the sample directly away from a foreign cluster: loss drops
        config = LossConfig(8.0)
        w = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        cluster = np.array([[1.0, 0.0, 0.0]])
        labels = np.array([0])
        losses = []
        for theta in np.linspace(0.9, 2.2, 12):
            f = np.array([[math.cos(theta), math.sin(theta), 0.0]])
            losses.append(one_client_loss(f, labels, w, cluster, 0.8, config).loss)
        # angle to the cluster grows along the sweep while the class geometry
        # stays symmetric enough for the first steps to strictly improve
        assert losses[1] < losses[0]


class TestGradients:
    def test_single_class_empty_context_zero_gradients(self):
        rng = np.random.default_rng(7)
        f = sample_uniform_directions(3, 8, rng)
        w = sample_uniform_directions(1, 8, rng)
        bundle = one_client_loss(f, np.zeros(3, dtype=int), w, np.zeros((0, 8)), 1.0, LossConfig())
        assert bundle.loss == 0.0
        np.testing.assert_allclose(bundle.d_embeddings, 0.0, atol=1e-15)
        np.testing.assert_allclose(bundle.d_centers, 0.0, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        config = LossConfig(8.0)
        for _ in range(6):
            f, labels, w, foreign = random_instance(rng)
            bundle = one_client_loss(f, labels, w, foreign, 1.0, config)
            err_f = finite_diff_check(
                lambda p: one_client_loss(p, labels, w, foreign, 1.0, config).loss,
                f,
                bundle.d_embeddings,
            )
            err_w = finite_diff_check(
                lambda p: one_client_loss(f, labels, p, foreign, 1.0, config).loss,
                w,
                bundle.d_centers,
            )
            assert err_f < 1e-5
            assert err_w < 1e-5

    def test_gradients_tangent_at_unit_inputs(self):
        # cosines are scale-invariant, so ambient gradients at unit inputs
        # project to zero along the inputs themselves
        rng = np.random.default_rng(9)
        f, labels, w, foreign = random_instance(rng)
        bundle = one_client_loss(f, labels, w, foreign, 1.0, LossConfig(16.0))
        np.testing.assert_allclose(np.sum(bundle.d_embeddings * f, axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.sum(bundle.d_centers * w, axis=1), 0.0, atol=1e-12)

    def test_gradient_chain_through_scaling(self):
        # doubling a raw row must halve its ambient gradient (cosine is scale-free)
        rng = np.random.default_rng(10)
        f, labels, w, foreign = random_instance(rng)
        config = LossConfig(16.0)
        base = one_client_loss(f, labels, w, foreign, 1.0, config)
        scaled = f.copy()
        scaled[0] *= 2.0
        bundle = one_client_loss(scaled, labels, w, foreign, 1.0, config)
        assert bundle.loss == pytest.approx(base.loss, rel=1e-12)
        np.testing.assert_allclose(bundle.d_embeddings[0], base.d_embeddings[0] / 2.0, rtol=1e-10)
