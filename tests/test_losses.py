import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capfed.errors import DomainError
from capfed.geometry import normalize, normalize_rows, sample_uniform_directions
from capfed.losses import LossConfig, stacked_loss_gradients
from conftest import one_client_loss
from train_oracle import finite_diff_check, margin_similarity


def plain_loss(f, labels, w, config):
    """The margin-softmax loss alone: no foreign centers."""
    return one_client_loss(f, labels, w, np.zeros((0, f.shape[1])), config).loss


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


class TestKernelAgainstScalarLogits:
    """The kernel's logits are the scalar margin similarities; a foreign center's is "negative"."""

    @staticmethod
    def _at_angle(f, theta, rng):
        u = rng.standard_normal(f.size)
        u = normalize(u - (u @ f) * f)
        return math.cos(theta) * f + math.sin(theta) * u

    @pytest.mark.parametrize("k", [0, 3])
    def test_one_row_loss_is_logsumexp_minus_target(self, k):
        rng = np.random.default_rng(40 + k)
        config, n, d = LossConfig(16.0), 6, 12
        for _ in range(25):
            f = normalize(rng.standard_normal(d))
            w = sample_uniform_directions(n, d, rng)
            label = int(rng.integers(n))
            # foreign centers near the sample, at a cap's edge and beyond it
            angles = np.array([0.5, 1.0, 1.4])[:k]
            clusters = np.array([self._at_angle(f, a, rng) for a in angles]).reshape(k, d)
            logits = [
                margin_similarity(
                    config,
                    math.acos(float(np.clip(f @ w[j], -1.0, 1.0))),
                    "positive" if j == label else "negative",
                )
                for j in range(n)
            ]
            logits += [
                margin_similarity(config, math.acos(float(np.clip(f @ p, -1.0, 1.0))), "negative")
                for p in clusters
            ]
            top = max(logits)
            want = top + math.log(math.fsum(math.exp(v - top) for v in logits)) - logits[label]
            got = one_client_loss(f[None, :], np.array([label]), w, clusters, config).loss
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.3, 2.5, math.pi])
    def test_foreign_logit_is_scaled_cosine(self, theta):
        # one class and one foreign center: loss = log(1 + e^(z_p - z_y)), so z_p is
        # recoverable, and it is s * cos(theta_p) inside a cap as well as beyond it
        config = LossConfig(4.0, 0.35)
        f = np.array([[1.0, 0.0, 0.0]])
        w = np.array([[math.cos(1.0), math.sin(1.0), 0.0]])
        foreign = np.array([[math.cos(theta), 0.0, math.sin(theta)]])
        loss = one_client_loss(f, np.array([0]), w, foreign, config).loss
        target = config.scale * (math.cos(1.0) - config.margin)
        assert target + math.log(math.expm1(loss)) == pytest.approx(
            config.scale * math.cos(theta), rel=1e-12, abs=1e-12
        )


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
        loss = one_client_loss(f, labels, w, foreign, LossConfig(64.0)).loss
        assert math.isfinite(loss)


class TestConsensusLoss:
    def test_empty_context_bit_for_bit(self):
        rng = np.random.default_rng(3)
        f, labels, w, _ = random_instance(rng)
        config = LossConfig(24.0)
        plain = plain_loss(f, labels, w, config)
        empty = one_client_loss(f, labels, w, np.zeros((0, 16)), config).loss
        assert plain == empty

    def test_never_below_classification(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            f, labels, w, foreign = random_instance(rng)
            config = LossConfig(12.0)
            assert one_client_loss(f, labels, w, foreign, config).loss > plain_loss(
                f, labels, w, config
            )

    def test_cluster_inside_margin_adds_full_weight(self):
        # one sample, one foreign center at the sample itself: denominator gains e^s
        s = 4.0
        f = np.array([[1.0, 0.0, 0.0]])
        w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        labels = np.array([0])
        config = LossConfig(s, 0.0)
        foreign = np.array([[1.0, 0.0, 0.0]])
        expected = -math.log(math.exp(s) / (math.exp(s) + 1.0 + math.exp(s)))
        loss = one_client_loss(f, labels, w, foreign, config).loss
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_adding_cluster_never_decreases(self):
        rng = np.random.default_rng(5)
        f, labels, w, foreign = random_instance(rng, clusters=1)
        config = LossConfig(10.0)
        base = one_client_loss(f, labels, w, foreign, config).loss
        extra = np.concatenate([foreign, sample_uniform_directions(1, 16, rng)])
        assert one_client_loss(f, labels, w, extra, config).loss >= base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        f, labels, w, foreign = random_instance(rng, clusters=3)
        config = LossConfig(16.0)
        base = one_client_loss(f, labels, w, foreign, config).loss
        perm = rng.permutation(w.shape[0])
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size)
        shuffled = one_client_loss(f, inverse[labels], w[perm], foreign, config).loss
        assert shuffled == pytest.approx(base, rel=1e-12)
        cluster_perm = foreign[::-1].copy()
        assert one_client_loss(f, labels, w, cluster_perm, config).loss == pytest.approx(
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
            losses.append(one_client_loss(f, labels, w, cluster, config).loss)
        # angle to the cluster grows along the sweep while the class geometry
        # stays symmetric enough for the first steps to strictly improve
        assert losses[1] < losses[0]


class TestGradients:
    def test_single_class_empty_context_zero_gradients(self):
        rng = np.random.default_rng(7)
        f = sample_uniform_directions(3, 8, rng)
        w = sample_uniform_directions(1, 8, rng)
        bundle = one_client_loss(f, np.zeros(3, dtype=int), w, np.zeros((0, 8)), LossConfig())
        assert bundle.loss == 0.0
        np.testing.assert_allclose(bundle.d_embeddings, 0.0, atol=1e-15)
        np.testing.assert_allclose(bundle.d_centers, 0.0, atol=1e-15)

    @pytest.mark.parametrize("ks", [(2,), (0, 2, 5)], ids=["one-client", "ragged-stack"])
    def test_matches_finite_differences(self, ks):
        # a ragged stack pads K_c = 0 and 2 to 5 columns; client c's loss reads only its
        # own rows, so the stack's summed loss has the stacked gradients
        rng = np.random.default_rng(8)
        config = LossConfig(8.0)
        for _ in range(6):
            cases = [random_instance(rng, clusters=k) for k in ks]
            f, labels, w = (np.stack([case[i] for case in cases]) for i in range(3))
            foreign = [case[3] for case in cases]

            def total(f, w):
                return float(np.sum(stacked_loss_gradients(f, labels, w, foreign, config).loss))

            bundle = stacked_loss_gradients(f, labels, w, foreign, config)
            assert bundle.d_embeddings.dtype == bundle.d_centers.dtype == np.float64
            assert finite_diff_check(lambda p: total(p, w), f, bundle.d_embeddings) < 1e-5
            assert finite_diff_check(lambda p: total(f, p), w, bundle.d_centers) < 1e-5

    def test_gradients_tangent_at_unit_inputs(self):
        # cosines are scale-invariant, so ambient gradients at unit inputs
        # project to zero along the inputs themselves
        rng = np.random.default_rng(9)
        f, labels, w, foreign = random_instance(rng)
        bundle = one_client_loss(f, labels, w, foreign, LossConfig(16.0))
        np.testing.assert_allclose(np.sum(bundle.d_embeddings * f, axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.sum(bundle.d_centers * w, axis=1), 0.0, atol=1e-12)

    def test_gradient_chain_through_scaling(self):
        # doubling a raw row must halve its ambient gradient (cosine is scale-free)
        rng = np.random.default_rng(10)
        f, labels, w, foreign = random_instance(rng)
        config = LossConfig(16.0)
        base = one_client_loss(f, labels, w, foreign, config)
        scaled = f.copy()
        scaled[0] *= 2.0
        bundle = one_client_loss(scaled, labels, w, foreign, config)
        assert bundle.loss == pytest.approx(base.loss, rel=1e-12)
        np.testing.assert_allclose(bundle.d_embeddings[0], base.d_embeddings[0] / 2.0, rtol=1e-10)
