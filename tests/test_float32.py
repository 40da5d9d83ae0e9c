"""The float32 training path against float64, and the float64 release path under it.

The synthetic shards are float32, so training runs in float32; the same code
on float64 shards is the float64 reference. Bit-exact checks of each dtype
against the reference copies live in test_train_oracle.py; here the two
dtypes are compared with each other, within stated tolerances, and the DP
release path is checked to stay float64.
"""

import math
import warnings

import numpy as np
import pytest

from capfed import clustering
from capfed.clustering import ClusteringParams
from capfed.dp import PrivacyBudget
from capfed.federation import FederationConfig, derive_rng, run_federation
from capfed.geometry import has_unit_rows, normalize_rows
from capfed.losses import LossConfig
from capfed.synth import SynthParams, generate_federation
import synth_oracle
from conftest import one_client_loss, with_shard_dtype

# Largest |float32 - float64| over seeds 1-3 of the default shape, as a TAR fraction.
TAR_TOLERANCE = 0.02
# Largest float32 gradient error, relative to the float64 gradient's largest entry.
GRADIENT_TOLERANCE = 1e-5


def test_generated_shards_are_float32_and_ground_truth_float64():
    fed = generate_federation(SynthParams(), np.random.default_rng(0))
    _, directions, lift = synth_oracle.generate_federation(SynthParams(), np.random.default_rng(0))
    assert {x.dtype for x in fed.client_inputs} == {np.dtype(np.float32)}
    assert directions.dtype == lift.dtype == np.float64


@pytest.mark.parametrize("inside", [0.0, 1e-4, 0.5])
def test_float32_embedding_at_a_foreign_center_is_finite(inside):
    # at and next to a foreign center its float32 cosine rounds to 1.0, the top of
    # the clip, where loss and gradients must stay finite and raise no warning
    rng = np.random.default_rng(3)
    center = normalize_rows(rng.standard_normal((1, 16)))
    f = center + inside * rng.standard_normal((1, 16))
    f = np.concatenate([f, rng.standard_normal((3, 16))]).astype(np.float32)
    w = normalize_rows(rng.standard_normal((5, 16))).astype(np.float32)
    foreign = center.astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bundle = one_client_loss(f, np.array([0, 1, 2, 3]), w, foreign, LossConfig())
    assert math.isfinite(bundle.loss)
    assert bundle.d_embeddings.dtype == bundle.d_centers.dtype == np.float32
    assert np.isfinite(bundle.d_embeddings).all() and np.isfinite(bundle.d_centers).all()


def test_float32_gradients_at_paper_shape_match_float64():
    rng = np.random.default_rng(13)
    b, n, d, k = 256, 1000, 512, 24
    f = rng.standard_normal((b, d)).astype(np.float32)
    w = normalize_rows(rng.standard_normal((n, d))).astype(np.float32)
    labels = rng.integers(0, n, b)
    clusters = normalize_rows(rng.standard_normal((k, d)))
    # a third of the clusters sit close to batch rows, inside their caps
    clusters[:8] = normalize_rows(f[:8] + 0.3 * rng.standard_normal((8, d)) / math.sqrt(d))
    clusters = clusters.astype(np.float32)  # both runs see the same float32 values
    single = one_client_loss(f, labels, w, clusters, LossConfig())
    double = one_client_loss(
        f.astype(float), labels, w.astype(float), clusters.astype(float), LossConfig()
    )
    assert abs(single.loss - double.loss) <= 1e-6 * abs(double.loss)
    for x, y in ((single.d_embeddings, double.d_embeddings), (single.d_centers, double.d_centers)):
        assert x.dtype == np.float32 and y.dtype == np.float64
        assert np.max(np.abs(x - y)) <= GRADIENT_TOLERANCE * np.max(np.abs(y))


@pytest.mark.parametrize("mode", ["phi", "phi-hat", "phi-p"])
def test_final_tar_matches_float64_on_the_default_shape(mode):
    config = FederationConfig(
        mode=mode, clustering_params=ClusteringParams(min_cluster_size=8, max_queries=4)
    )
    for seed in (1, 2, 3):
        fed = generate_federation(SynthParams(), derive_rng(seed, "synth"))
        single = run_federation(config, fed, seed)
        double = run_federation(config, with_shard_dtype(fed, np.float64), seed)  # same data
        assert single.server.embedder.dtype == np.float32
        assert double.server.embedder.dtype == np.float64
        tar32, tar64 = single.rounds[-1].tar_by_far[1e-2], double.rounds[-1].tar_by_far[1e-2]
        assert abs(tar32 - tar64) <= TAR_TOLERANCE, (seed, tar32, tar64)
        if mode != "phi":
            assert sum(sum(r.queries_by_client.values()) for r in single.rounds) > 0


def test_release_path_stays_float64(monkeypatch):
    seen = []
    release = clustering.run_clustering

    def recording(centers, params, rng):
        report = release(centers, params, rng)
        seen.append((centers.dtype, has_unit_rows(centers), report))
        return report

    monkeypatch.setattr(clustering, "run_clustering", recording)
    fed = generate_federation(
        SynthParams(clients=3, ids_per_client=20, embed_dim=12, input_dim=16),
        np.random.default_rng(5),
    )
    budget = PrivacyBudget(0.7, 1e-5)
    budget_pair = (budget.epsilon, budget.delta)
    config = FederationConfig(
        rounds=3,
        mode="phi-hat",
        clustering_params=ClusteringParams(rho=1.2, min_cluster_size=2, max_queries=3,
                                           budget=budget),
        eval_positives=50,
        eval_negatives=50,
    )
    report = run_federation(config, fed, 8)
    assert len(seen) == 9
    for dtype, unit, release_report in seen:
        assert dtype == np.float64 and unit
        assert release_report.centers.dtype == np.float64
        for center in release_report.centers:
            assert abs(np.linalg.norm(center) - 1.0) <= 1e-12
    per_round = {c: [r.queries_by_client[c] for r in report.rounds] for c in range(3)}
    assert sum(map(sum, per_round.values())) > 0
    for c, total in report.rounds[-1].ledger_totals.items():
        # the ledger rounds the exact sum of the per-round charges once
        assert total == tuple(math.fsum(q * x for q in per_round[c]) for x in budget_pair)
        for got, x in zip(total, budget_pair):
            assert math.isclose(got, sum(per_round[c]) * x, rel_tol=1e-12, abs_tol=0.0)
    assert report.final_clients[0].centers.dtype == np.float32
