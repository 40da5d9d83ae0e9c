"""Gaussian-mechanism calibration, noise application, and additive privacy accounting.

A release adds Gaussian noise scaled to how far it can move when one input
row is swapped. Three sensitivities are defined:

* ``tight_sensitivity``  sqrt(2 - 2 cos(2 rho)) / |S|, for the mean of a
  cluster S of unit vectors within angle rho of a common center;
* ``weak_sensitivity``   the looser triangle-inequality bound
  2 sqrt(2 - 2 cos rho) / |S| on the same mean;
* ``NAIVE_SENSITIVITY``  2, for releasing each unit class center individually.

``gaussian_sigma`` turns any of them into one noise scale, the classical
sigma = sensitivity / epsilon * sqrt(2 ln(1.25 / delta)). That bound is
proved only for epsilon < 1 (Dwork & Roth 2014, Thm A.1), while the default
epsilon is 1. Above epsilon ~ 8.13 at delta = 5e-5 the classical sigma does
not meet delta: by Balle & Wang's exact condition (ICML 2018, Thm 8), a
Gaussian of scale s on a sensitivity D is (e, delta)-private if and only if
Phi(D/2s - e s/D) - exp(e) Phi(-D/2s - e s/D) <= delta, and at epsilon = 16
the classical sigma gives delta ~ 1.7e-3. The analytic Gaussian, which
meets that condition at every epsilon, is left to the calibration rework in
ROADMAP.md (item 20). sigma must be positive and finite: the mechanism is
private only with noise, and an infinite sigma (a tiny epsilon) turns every
release into inf or NaN, so a calibration or a perturbation with such a
sigma raises DomainError. The tight sensitivity rounds to 0
below rho ~ 5.27e-9; its exact form 2 sin(rho) / |S| is left to the same
rework, because it changes sigma's bits at some rho.

The privacy unit is one row of one client's center matrix: neighbouring
inputs differ in one swapped row, the other rows fixed. Neither
identity-level privacy nor the privacy of the embedder is claimed. The
release counts, each release's size and the choice of seed are
published without noise, so no bound covers them. Sampled floating-point
noise can also leak through its low bits (Mironov, CCS 2012).

``PrivacyLedger`` holds each client's running totals under basic composition.
A charge or a total that is not a finite float raises DomainError, so an
overflowed spend is never reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .errors import DomainError

DEFAULT_DELTA = 5e-5


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


def _check_cluster_inputs(cluster_size: int, rho: float) -> None:
    if int(cluster_size) != cluster_size or cluster_size < 1:
        raise DomainError(f"cluster_size={cluster_size} must be an integer >= 1")
    if not 0.0 < rho <= math.pi / 2.0:
        raise DomainError(f"rho={rho} outside (0, pi/2]")


def tight_sensitivity(cluster_size: int, rho: float) -> float:
    """How far the mean of a cluster moves when one member is swapped.

    The mean of |S| unit vectors that all lie within angle rho of a common
    center moves by at most sqrt(2 - 2 cos(2 rho)) / |S|, because any two
    members are within 2 rho of each other. It covers only a swap that
    keeps the cap's members and its seed. Greedy release lets a swap change
    either with the same count, sizes and sigma, and the mean then moves
    past this bound: see TestGreedyExceedsItsStatedSensitivity in
    tests/test_clustering.py (a singleton cap, and a row moved between caps).
    """
    _check_cluster_inputs(cluster_size, rho)
    return math.sqrt(2.0 - 2.0 * math.cos(2.0 * rho)) / cluster_size


def weak_sensitivity(cluster_size: int, rho: float) -> float:
    """The looser two-hop bound on the same swap distance.

    Bounds the swap distance through the common center instead of directly:
    ||w - w'|| <= ||w - o|| + ||w' - o|| <= 2 sqrt(2 - 2 cos rho). Always at
    least the tight sensitivity; the ratio tight / weak is exactly cos(rho / 2).
    """
    _check_cluster_inputs(cluster_size, rho)
    return 2.0 * math.sqrt(2.0 - 2.0 * math.cos(rho)) / cluster_size


# Two unit vectors can be up to distance 2 apart: the sensitivity of
# releasing one unit class center directly.
NAIVE_SENSITIVITY = 2.0


def gaussian_sigma(sensitivity: float, budget: PrivacyBudget) -> float:
    """sensitivity / epsilon * sqrt(2 ln(1.25 / delta)), which must be positive and finite."""
    sigma = sensitivity / budget.epsilon * math.sqrt(2.0 * math.log(1.25 / budget.delta))
    _check_sigma(sigma)
    return sigma


def _check_sigma(sigma: float) -> None:
    if not sigma > 0.0:
        raise DomainError(f"sigma={sigma} must be positive")
    if not math.isfinite(sigma):
        raise DomainError(f"sigma={sigma} must be finite")


def gaussian_perturb(p: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Return p + v with v drawn i.i.d. N(0, sigma^2) per coordinate; sigma > 0 and finite.

    The draws fill v in C order, so one call over an (n, d) matrix takes
    the same bits from rng as n calls over its rows.
    """
    _check_sigma(sigma)
    p = np.asarray(p, dtype=float)
    return p + rng.normal(0.0, sigma, size=p.shape)


class PrivacyLedger:
    """Per-client (epsilon, delta) running totals under sequential composition: each is
    the exact, order-independent sum of queries * per-query budget, rounded once."""

    def __init__(self) -> None:
        # Per client, in order of first charge: the exact sums of the products,
        # in units of 2**-1074; rounding an exact sum once is what math.fsum returns.
        self._sums: dict[Hashable, tuple[int, int]] = {}

    def charge(self, client: Hashable, budget: PrivacyBudget, queries: int) -> None:
        """Add ``queries`` releases at ``budget`` each to ``client``'s totals; a
        product or total that is not a finite float raises DomainError instead."""
        if int(queries) != queries or queries < 0:
            raise DomainError(f"queries={queries} must be an integer >= 0")
        if queries == 0:
            return
        eps, delta = self._sums.get(client, (0, 0))
        try:  # the float products, whose bits every total keeps
            eps += _in_units(client, queries * budget.epsilon)
            delta += _in_units(client, queries * budget.delta)
        except OverflowError:  # an int queries beyond float range: an inf product
            _in_units(client, math.inf)  # raises DomainError
        if max(eps, delta) >= _OVERFLOW_UNITS:
            raise DomainError(f"client {client!r}: composed privacy total overflows a float")
        self._sums[client] = (eps, delta)

    def totals(self) -> dict[Hashable, tuple[float, float]]:
        """Each charged client's rounded totals, in order of first charge."""
        return {c: (eps / _UNITS, delta / _UNITS) for c, (eps, delta) in self._sums.items()}


# Every finite double is a whole number of 2**-1074 units, so sums of them
# are exact Python ints and int / int division rounds correctly; a sum from
# halfway between the largest double and 2**1024 up rounds to inf.
_UNITS = 2**1074
_OVERFLOW_UNITS = (2**1024 - 2**970) * _UNITS


def _in_units(client: Hashable, x: float) -> int:
    if not math.isfinite(x):
        raise DomainError(f"client {client!r}: privacy charge {x} is not a finite float")
    num, den = x.as_integer_ratio()
    return num * (_UNITS // den)
