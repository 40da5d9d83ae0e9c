"""Differentially private spherical-cap clustering with consensus-aware federated training."""

from .clustering import (
    ClusteringParams,
    ClusteringReport,
    SanitizedCluster,
    run_clustering,
)
from .dp import (
    DEFAULT_DELTA,
    MechanismCalibration,
    PrivacyBudget,
    PrivacyLedger,
    gaussian_perturb,
    naive_sigma,
    sigma_tight,
    sigma_weak,
)
from .federation import (
    ClientState,
    FederationConfig,
    RunReport,
    ServerState,
    aggregate_fedavg,
    client_local_round,
    derive_rng,
    run_federation,
)
from .geometry import (
    normalize,
    normalize_rows,
    occupancy_ratio,
    reg_inc_beta,
    sample_uniform_directions,
)
from .losses import (
    ConsensusContext,
    GradientBundle,
    LossConfig,
    loss_gradients,
)
from .synth import (
    AttackGallery,
    SynthParams,
    SyntheticFederation,
    VerificationPairs,
    cross_client_margin,
    generate_federation,
    knn_attack,
    make_verification_pairs,
    verification_eval,
)

__version__ = "0.1.0"
