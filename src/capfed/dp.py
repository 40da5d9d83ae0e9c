"""Gaussian-mechanism calibration, noise application, and additive privacy accounting.

Three noise scales are supported for releasing a mean of unit vectors whose
pairwise angles are bounded by the cluster margin:

* ``tight``  per-release sensitivity sqrt(2 - 2 cos(2 rho)) / |S|,
* ``weak``   the looser triangle-inequality bound 2 sqrt(2 - 2 cos rho) / |S|,
* ``naive``  sensitivity 2, for releasing each unit class center individually.

Each calibration returns the minimal standard deviation satisfying
sigma >= sensitivity / epsilon * sqrt(2 ln(1.25 / delta)), and sigma must be
positive: the mechanism is private only with noise, so a calibration or a
perturbation with sigma <= 0 raises DomainError. The tight sensitivity rounds
to 0 below rho ~ 5.27e-9; its exact form 2 sin(rho) / |S| is left to the
calibration rework in ROADMAP.md, because it changes sigma's bits at some rho.

The privacy unit is one row of one client's center matrix: neighbouring
inputs differ in one swapped row, the other rows fixed. Neither
identity-level privacy nor the privacy of the embedder is claimed. The
release counts, each release's size and the choice of seed are
published without noise, so no bound covers them. Sampled floating-point
noise can also leak through its low bits (Mironov, CCS 2012).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .errors import DomainError

DEFAULT_DELTA = 5e-5

_CALIBRATION_SLACK = 1e-12


def _std_factor(delta: float) -> float:
    return math.sqrt(2.0 * math.log(1.25 / delta))


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-release privacy loss parameters (epsilon, delta)."""

    epsilon: float = 1.0
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise DomainError(f"epsilon={self.epsilon} must be finite and positive")
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
        if not self.sigma > 0.0:
            raise DomainError(f"sigma={self.sigma} must be positive ({self.bound_kind} "
                              f"sensitivity {self.sensitivity})")
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
    """Return p + v with v drawn i.i.d. N(0, sigma^2) per coordinate; sigma > 0.

    The draws fill v in C order, so one call over an (n, d) matrix takes
    the same bits from rng as n calls over its rows.
    """
    if not sigma > 0.0:
        raise DomainError(f"sigma={sigma} must be positive")
    p = np.asarray(p, dtype=float)
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
    order-independent sums of queries * per-query budget, rounded once.
    """

    entries: tuple[LedgerEntry, ...] = ()
    # Per client, in order of first appearance: the exact sums of the float
    # products queries * epsilon and queries * delta, in units of 2**-1074.
    # Rounding an exact sum once is what math.fsum over the entries returns.
    _sums: dict[Hashable, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sums: dict[Hashable, tuple[int, int]] = {}
        for e in self.entries:
            _charge(sums, e)
        object.__setattr__(self, "_sums", sums)

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
        # Built field by field: __post_init__ would re-sum every entry.
        ledger = object.__new__(PrivacyLedger)
        object.__setattr__(ledger, "entries", self.entries + (entry,))
        object.__setattr__(ledger, "_sums", dict(self._sums))
        _charge(ledger._sums, entry)
        return ledger

    def total_for(self, client: Hashable) -> tuple[float, float]:
        """(sum epsilon, sum delta) composed so far for one client."""
        eps, delta = self._sums.get(client, (0, 0))
        return eps / _UNITS, delta / _UNITS

    def totals(self) -> dict[Hashable, tuple[float, float]]:
        """Per-client composed totals for every client with at least one entry,
        in order of first appearance."""
        return {c: (eps / _UNITS, delta / _UNITS) for c, (eps, delta) in self._sums.items()}


# Every finite double is a whole number of 2**-1074 units, so sums of them
# are exact Python ints, and int / int division rounds correctly.
_UNITS = 2**1074


def _in_units(x: float) -> int:
    num, den = x.as_integer_ratio()
    return num * (_UNITS // den)


def _charge(sums: dict[Hashable, tuple[int, int]], e: LedgerEntry) -> None:
    eps, delta = sums.get(e.client, (0, 0))
    sums[e.client] = (
        eps + _in_units(e.queries * e.budget.epsilon),
        delta + _in_units(e.queries * e.budget.delta),
    )
