"""The in-place training path against the allocating reference in train_oracle.

Equality here is exact: the same loss float and the same gradient, embedder
and center bytes, because the rewrite keeps every floating-point operation
and its order. Both follow their inputs' dtype, and each check runs in both:
the kernel cases are drawn in float64 and also cast to float32, and the
federations are generated with float32 shards and also upcast to float64.
The oracle's own central-difference check is tested last.
"""

import dataclasses
import math

import numpy as np
import pytest

import train_oracle as oracle
from capfed import federation, synth
from capfed.clustering import ClusteringParams
from capfed.dp import PrivacyBudget
from capfed.errors import DomainError
from capfed.federation import (
    FederationConfig,
    client_local_round,
    derive_rng,
    initialize_clients,
    run_federation,
)
from capfed.geometry import ROW_BLOCK_BYTES, checked_row_norms, normalize_rows, row_norms
from capfed.losses import LossConfig, stacked_loss_gradients
from capfed.synth import SynthParams, generate_federation
from conftest import one_client_loss, with_shard_dtype


def assert_same_bundle(live, ref):
    assert live.loss == ref.loss or (math.isnan(live.loss) and math.isnan(ref.loss))
    for x, y in ((live.d_embeddings, ref.d_embeddings), (live.d_centers, ref.d_centers)):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def kernel_case(rng, k, scale=1.5, b=24, n=30, d=12, spread=0.6):
    """Raw (non-unit) embeddings and centers; unit clusters 0.5 or 1.8 times spread from a row."""
    w = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, size=(n, 1))
    labels = rng.integers(0, n, size=b)
    f = rng.standard_normal((b, d)) * scale
    clusters = np.zeros((k, d))
    for j in range(k):
        anchor = normalize_rows(f[j % b][None, :])[0]
        angle = spread * (0.5 if j % 2 == 0 else 1.8)  # near a batch row, then farther
        side = normalize_rows(rng.standard_normal((1, d)))[0]
        side -= (side @ anchor) * anchor
        clusters[j] = math.cos(angle) * anchor + math.sin(angle) * normalize_rows(side[None, :])[0]
    return f, labels, w, normalize_rows(clusters) if k else clusters


def check_kernel_cases(k, dtype):
    rng = np.random.default_rng(11)
    for case in range(40):
        scale = float(rng.uniform(1.0, 64.0))
        config = LossConfig(scale, 0.35 if case % 3 else float(rng.uniform(0.0, 1.2)))
        f, labels, w, clusters = kernel_case(
            rng,
            k,
            scale=float(rng.uniform(0.2, 4.0)),
            b=int(rng.integers(1, 40)),
            n=int(rng.integers(1, 50)),
            d=int(rng.integers(2, 24)),
            spread=float(rng.uniform(0.05, 1.5)),
        )
        f, w, clusters = (x.astype(dtype) for x in (f, w, clusters))
        live = one_client_loss(f, labels, w, clusters, config)
        ref = oracle._core(f, labels, w, clusters, config)
        assert live.d_embeddings.dtype == dtype
        assert_same_bundle(live, ref)


@pytest.mark.parametrize("k", [0, 5])
def test_kernel_matches_oracle(k):
    check_kernel_cases(k, np.float64)


@pytest.mark.parametrize("k", [0, 5])
def test_kernel_matches_oracle_in_float32(k):
    check_kernel_cases(k, np.float32)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_kernel_matches_oracle_at_paper_shape(dtype):
    rng = np.random.default_rng(13)
    f, labels, w, clusters = kernel_case(rng, 24, b=256, n=1000, d=512, spread=1.3)
    f, w, clusters = (x.astype(dtype) for x in (f, w, clusters))
    config = LossConfig(64.0)
    live = one_client_loss(f, labels, w, clusters, config)
    assert live.d_embeddings.dtype == dtype
    assert_same_bundle(live, oracle._core(f, labels, w, clusters, config))


def test_integer_scale_is_the_float_scale():
    # An int scale must not change any dtype or rounding on the way to the bits.
    rng = np.random.default_rng(16)
    f, labels, w, clusters = kernel_case(rng, 4)
    as_int = one_client_loss(f, labels, w, clusters, LossConfig(16))
    as_float = one_client_loss(f, labels, w, clusters, LossConfig(16.0))
    assert_same_bundle(as_int, as_float)


def test_row_norms_are_linalg_norm_bits():
    rng = np.random.default_rng(14)
    cases = [(s, t) for s in [(7,), (5, 3), (40, 512), (2, 3, 9)] for t in (np.float64, np.float32)]
    # above ROW_BLOCK_BYTES, squared a block of rows at a time: a matrix, a stack of
    # 900 rows whose last block of 256 is partial, and one row longer than a block
    large = [((1000, 512), np.float64), ((3, 300, 512), np.float32), ((70_000,), np.float64)]
    for shape, dtype in cases + large:
        m = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)).astype(dtype)
        assert (m.nbytes > ROW_BLOCK_BYTES) == ((shape, dtype) in large)
        norms = row_norms(m)
        assert norms.shape == shape[:-1]
        assert norms.tobytes() == np.linalg.norm(m, axis=-1).tobytes()
    # a strided last axis is reduced whole: a block of one row would sum it in another order
    m = np.asfortranarray(rng.standard_normal((257, 512)))
    assert row_norms(m).tobytes() == np.linalg.norm(m, axis=-1).tobytes()
    m = rng.standard_normal((30, 17))
    assert normalize_rows(m).tobytes() == oracle.normalize_rows(m).tobytes()
    assert checked_row_norms(m).tobytes() == np.linalg.norm(m, axis=1).tobytes()


def tiny_fed(seed=0, dtype=np.float32, **kw):
    """A small generated federation, its shards cast to dtype (generated as float32)."""
    base = dict(
        clients=3,
        ids_per_client=10,
        samples_per_identity=4,
        embed_dim=8,
        input_dim=12,
        concentration=48.0,
    )
    base.update(kw)
    fed = generate_federation(SynthParams(**base), np.random.default_rng(seed))
    return with_shard_dtype(fed, dtype)


def tiny_config(**kw):
    base = dict(
        rounds=3,
        mode="phi-hat",
        clustering_params=ClusteringParams(
            rho=1.3, min_cluster_size=1, max_queries=2, budget=PrivacyBudget(1.0, 5e-5)
        ),
        loss=LossConfig(16.0),
        learning_rate=0.2,
        batch_size=16,
        eval_positives=60,
        eval_negatives=60,
        far_targets=(0.1,),
    )
    base.update(kw)
    return FederationConfig(**base)


def foreign_rows(rng, dim, k, dtype=np.float64):
    return normalize_rows(rng.standard_normal((k, dim))).astype(dtype)


def check_local_round(k, lr, dtype):
    fed = tiny_fed(1, dtype)
    config = tiny_config(learning_rate=lr, local_epochs=2, batch_size=7)
    states, embedder0 = initialize_clients(fed, config, 5)
    foreign = foreign_rows(np.random.default_rng(2), fed.params.embed_dim, k, dtype)
    (live,), (live_loss,) = client_local_round(
        [states[0]], embedder0, [foreign], config, [derive_rng(5, "t")]
    )
    (ref,), (ref_loss,) = oracle.client_local_round(
        [states[0]], embedder0, [foreign], config, [derive_rng(5, "t")]
    )
    assert live_loss == ref_loss
    assert live.embedder.dtype == live.centers.dtype == dtype
    assert live.embedder.tobytes() == ref.embedder.tobytes()
    assert live.centers.tobytes() == ref.centers.tobytes()


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("lr", [0.05, 0.3])
def test_local_round_matches_oracle(k, lr):
    check_local_round(k, lr, np.float32)


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("lr", [0.05, 0.3])
def test_local_round_matches_oracle_in_float64(k, lr):
    check_local_round(k, lr, np.float64)


# two shapes: more identities than the embedding has dimensions, and a single
# client whose identities hold two samples each
INIT_SHAPES = [
    pytest.param(dict(ids_per_client=13, samples_per_identity=5), id="13x5"),
    pytest.param(dict(clients=1, ids_per_client=6, samples_per_identity=2), id="1-client"),
]


def check_initialize_clients(shape, dtype):
    fed = tiny_fed(3, dtype, **shape)
    config = tiny_config()
    live, live_e = initialize_clients(fed, config, 9)
    ref, ref_e = oracle.initialize_clients(fed, config, 9)
    assert live_e.dtype == live[0].centers.dtype == dtype
    assert live_e.tobytes() == ref_e.tobytes()
    for a, b in zip(live, ref, strict=True):
        assert a.centers.tobytes() == b.centers.tobytes()
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert np.array_equal(a.labels, b.labels) and a.labels.dtype.kind == b.labels.dtype.kind


@pytest.mark.parametrize("shape", INIT_SHAPES)
def test_initialize_clients_matches_oracle(shape):
    check_initialize_clients(shape, np.float32)


@pytest.mark.parametrize("shape", INIT_SHAPES)
def test_initialize_clients_matches_oracle_in_float64(shape):
    check_initialize_clients(shape, np.float64)


def test_class_means_match_masked_means():
    rng = np.random.default_rng(17)
    for classes, extra in [(1, 0), (1, 8), (7, 33), (50, 350)]:
        labels = rng.permutation(np.concatenate([np.arange(classes), rng.integers(0, classes, extra)]))
        feats = rng.standard_normal((labels.size, 6))
        feats[0, 0] = -0.0
        expected = np.stack([feats[labels == i].mean(axis=0) for i in range(classes)])
        assert federation._class_means(feats, labels, classes).tobytes() == expected.tobytes()


def use_oracle(monkeypatch):
    """Route the training path of run_federation through the reference copies."""
    monkeypatch.setattr(federation, "client_local_round", oracle.client_local_round)
    monkeypatch.setattr(federation, "initialize_clients", oracle.initialize_clients)
    monkeypatch.setattr(federation, "normalize_rows", oracle.normalize_rows)
    monkeypatch.setattr(synth, "normalize_rows", oracle.normalize_rows)


def check_run_federation(monkeypatch, mode, dtype):
    fed = tiny_fed(4, dtype)
    config = tiny_config(mode=mode, offline_probability=0.3)
    live = run_federation(config, fed, 21)
    with monkeypatch.context() as patched:
        use_oracle(patched)
        ref = run_federation(config, fed, 21)
    if mode != "phi":
        assert any(r.queries_by_client[c] for r in live.rounds for c in r.queries_by_client)
    assert live.server.embedder.dtype == dtype
    assert live.rounds == ref.rounds
    assert live.server.embedder.tobytes() == ref.server.embedder.tobytes()
    for a, b in zip(live.final_clients, ref.final_clients, strict=True):
        assert a.centers.tobytes() == b.centers.tobytes()
        assert a.embedder.tobytes() == b.embedder.tobytes()


@pytest.mark.parametrize("mode", ["phi", "phi-hat", "phi-p"])
def test_run_federation_matches_oracle(monkeypatch, mode):
    check_run_federation(monkeypatch, mode, np.float32)


@pytest.mark.parametrize("mode", ["phi", "phi-hat", "phi-p"])
def test_run_federation_matches_oracle_in_float64(monkeypatch, mode):
    check_run_federation(monkeypatch, mode, np.float64)


def snapshot(*arrays):
    return [(np.asarray(x).dtype, np.asarray(x).shape, np.asarray(x).tobytes()) for x in arrays]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stacked_kernel_leaves_inputs_unchanged(dtype):
    # three clients with K_c = 4, 0, 7, so the kernel pads cluster columns; read-only
    # inputs make any write into them raise
    rng = np.random.default_rng(15)
    cases = [kernel_case(rng, k) for k in (4, 0, 7)]
    f, labels, w = (np.stack([case[i] for case in cases]) for i in range(3))
    f, w = f.astype(dtype), w.astype(dtype)
    foreign = [case[3].astype(dtype) for case in cases]
    inputs = (f, labels, w, *foreign)
    before = snapshot(*inputs)
    for x in inputs:
        x.flags.writeable = False
    bundle = stacked_loss_gradients(f, labels, w, foreign, LossConfig(30.0))
    assert snapshot(*inputs) == before
    for out in (bundle.d_embeddings, bundle.d_centers):
        assert out.flags.writeable and not any(np.shares_memory(out, x) for x in inputs)


def test_client_steps_leave_inputs_unchanged():
    fed = tiny_fed(6)
    config = tiny_config(local_epochs=2, batch_size=8)
    states, embedder0 = initialize_clients(fed, config, 3)
    foreign = foreign_rows(np.random.default_rng(7), fed.params.embed_dim, 3)
    state = states[1]
    fields = [getattr(state, f.name) for f in dataclasses.fields(state) if f.name != "client_id"]
    before = snapshot(embedder0, foreign, *fields)
    (new_state,), _ = client_local_round([state], embedder0, [foreign], config, [derive_rng(3, "x")])
    assert snapshot(embedder0, foreign, *fields) == before
    assert not np.shares_memory(new_state.embedder, embedder0)
    assert not np.shares_memory(new_state.centers, state.centers)


def test_finite_diff_check_quadratic():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.5, 2.0, size=(3, 4))
    err = oracle.finite_diff_check(lambda p: float(np.sum(p * p)), x, 2.0 * x, h=1e-5)
    assert err < 1e-9


def test_finite_diff_check_validation():
    with pytest.raises(DomainError):
        oracle.finite_diff_check(lambda p: 0.0, np.zeros(3), np.zeros(3), h=0.0)
    with pytest.raises(DomainError, match="^analytic gradient must match the point's shape$"):
        oracle.finite_diff_check(lambda p: 0.0, np.zeros(3), np.zeros(4))
