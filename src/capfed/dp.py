"""Gaussian-mechanism calibration, noise application, and additive privacy accounting.

Three noise scales are supported for releasing a mean of unit vectors whose
pairwise angles are bounded by the cluster margin:

* ``tight``  per-release sensitivity sqrt(2 - 2 cos(2 rho)) / |S|,
* ``weak``   the looser triangle-inequality bound 2 sqrt(2 - 2 cos rho) / |S|,
* ``naive``  sensitivity 2, for releasing each unit class center individually.

Each calibration returns the minimal standard deviation satisfying
sigma >= sensitivity / epsilon * sqrt(2 ln(1.25 / delta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .errors import DomainError, FloorUndefinedError

DEFAULT_DELTA = 5e-5

_CALIBRATION_SLACK = 1e-12


def _std_factor(delta: float) -> float:
    return math.sqrt(2.0 * math.log(1.25 / delta))


def standard_normal_cdf(x: float) -> float:
    """CDF of the standard Gaussian."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-release privacy loss parameters (epsilon, delta)."""

    epsilon: float
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise DomainError(f"epsilon={self.epsilon} must be positive")
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta={self.delta} must lie in (0, 1)")


@dataclass(frozen=True)
class MechanismCalibration:
    """A noise scale together with the sensitivity and budget that justify it."""

    sigma: float
    sensitivity: float
    budget: PrivacyBudget
    bound_kind: str  # "tight" | "weak" | "naive"

    def __post_init__(self) -> None:
        lower = self.sensitivity / self.budget.epsilon * _std_factor(self.budget.delta)
        if self.sigma < lower - _CALIBRATION_SLACK:
            raise DomainError(
                f"sigma={self.sigma} below the Gaussian-mechanism bound {lower}"
            )


def _check_cluster_inputs(cluster_size: int, rho: float) -> None:
    if int(cluster_size) != cluster_size or cluster_size < 1:
        raise DomainError(f"cluster_size={cluster_size} must be an integer >= 1")
    if not 0.0 < rho <= math.pi / 2.0:
        raise DomainError(f"rho={rho} outside (0, pi/2]")


def sigma_tight(cluster_size: int, rho: float, budget: PrivacyBudget) -> MechanismCalibration:
    """Minimal noise scale for releasing a cluster mean, tight sensitivity bound.

    The mean of |S| unit vectors that all lie within angle rho of a common
    center moves by at most sqrt(2 - 2 cos(2 rho)) / |S| when one member is
    swapped, because any two members are within 2 rho of each other.
    """
    _check_cluster_inputs(cluster_size, rho)
    sensitivity = math.sqrt(2.0 - 2.0 * math.cos(2.0 * rho)) / cluster_size
    sigma = sensitivity / budget.epsilon * _std_factor(budget.delta)
    return MechanismCalibration(sigma, sensitivity, budget, "tight")


def sigma_weak(cluster_size: int, rho: float, budget: PrivacyBudget) -> MechanismCalibration:
    """Minimal noise scale under the looser two-hop sensitivity bound.

    Bounds the swap distance through the common center instead of directly:
    ||w - w'|| <= ||w - o|| + ||w' - o|| <= 2 sqrt(2 - 2 cos rho). Always at
    least as large as the tight calibration; the ratio is exactly cos(rho / 2).
    """
    _check_cluster_inputs(cluster_size, rho)
    sensitivity = 2.0 * math.sqrt(2.0 - 2.0 * math.cos(rho)) / cluster_size
    sigma = sensitivity / budget.epsilon * _std_factor(budget.delta)
    return MechanismCalibration(sigma, sensitivity, budget, "weak")


def naive_sigma(budget: PrivacyBudget) -> MechanismCalibration:
    """Noise scale for releasing a single unit class center directly.

    Two unit vectors can be up to distance 2 apart, so the sensitivity is 2.
    """
    sensitivity = 2.0
    sigma = sensitivity / budget.epsilon * _std_factor(budget.delta)
    return MechanismCalibration(sigma, sensitivity, budget, "naive")


def gaussian_perturb(p: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Return p + v with v drawn i.i.d. N(0, sigma^2) per coordinate.

    sigma == 0 returns an exact copy and consumes no randomness, so
    noise-free paths leave the stream untouched.
    """
    if sigma < 0.0:
        raise DomainError(f"sigma={sigma} must be nonnegative")
    p = np.asarray(p, dtype=float)
    if sigma == 0.0:
        return p.copy()
    return p + rng.normal(0.0, sigma, size=p.shape)


@dataclass(frozen=True)
class LedgerEntry:
    """One charge: ``queries`` releases at ``budget`` each, by one client in one round."""

    round_index: int
    client: Hashable
    queries: int
    budget: PrivacyBudget


@dataclass(frozen=True)
class PrivacyLedger:
    """Accumulated (epsilon, delta) per client under sequential composition.

    Immutable value: ``compose`` returns a new ledger. Totals are exact,
    order-independent sums (math.fsum) of queries * per-query budget.
    """

    entries: tuple[LedgerEntry, ...] = ()

    def compose(
        self,
        client: Hashable,
        round_index: int,
        budget: PrivacyBudget,
        queries: int,
    ) -> "PrivacyLedger":
        """Charge ``queries`` sequential releases at ``budget`` each to ``client``."""
        if int(queries) != queries or queries < 0:
            raise DomainError(f"queries={queries} must be an integer >= 0")
        if queries == 0:
            return self
        entry = LedgerEntry(round_index, client, int(queries), budget)
        return PrivacyLedger(self.entries + (entry,))

    def total_for(self, client: Hashable) -> tuple[float, float]:
        """(sum epsilon, sum delta) composed so far for one client."""
        return _composed([e for e in self.entries if e.client == client])

    def totals(self) -> dict[Hashable, tuple[float, float]]:
        """Per-client composed totals for every client with at least one entry.

        One pass buckets the entries by client, in order of first appearance.
        """
        by_client: dict[Hashable, list[LedgerEntry]] = {}
        for e in self.entries:
            by_client.setdefault(e.client, []).append(e)
        return {c: _composed(entries) for c, entries in by_client.items()}


def _composed(entries: list[LedgerEntry]) -> tuple[float, float]:
    """(sum epsilon, sum delta) over entries; fsum is exact, so order does not matter."""
    eps = math.fsum(e.queries * e.budget.epsilon for e in entries)
    delta = math.fsum(e.queries * e.budget.delta for e in entries)
    return eps, delta


def norm_tail_probability(r: float, sigma: float, d: int) -> float:
    """Normal approximation to P(||v||_2 <= r) for v ~ N(0, sigma^2 I_d).

    Uses the central-limit approximation of the chi-square norm,
    Phi(r^2 / (sigma^2 sqrt(2 (d - 1))) - sqrt((d - 1) / 2)); endorsed only
    for d >= 50, below which a DomainError is raised.
    """
    if r < 0.0:
        raise DomainError(f"r={r} must be nonnegative")
    if sigma <= 0.0:
        raise DomainError(f"sigma={sigma} must be positive")
    if int(d) != d or d < 50:
        raise DomainError(f"d={d} must be an integer >= 50 for the normal approximation")
    arg = r * r / (sigma * sigma * math.sqrt(2.0 * (d - 1))) - math.sqrt((d - 1) / 2.0)
    return standard_normal_cdf(arg)


def cosine_floor(p_norm: float, v_norm: float) -> float:
    """Lower bound on cos(p, p + v) given only the two norms.

    Worst case over the relative orientation of v; defined while
    ||v|| <= ||p||.
    """
    if p_norm <= 0.0:
        raise DomainError(f"p_norm={p_norm} must be positive")
    if v_norm < 0.0:
        raise DomainError(f"v_norm={v_norm} must be nonnegative")
    if v_norm > p_norm:
        raise FloorUndefinedError(f"v_norm={v_norm} exceeds p_norm={p_norm}")
    ratio = v_norm / p_norm
    return math.sqrt(1.0 - ratio * ratio)
