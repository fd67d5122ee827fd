"""Domain types shared by every other module.

Holds the system parameters (harvest rate, battery capacity), monotone
threshold policies, the polynomial age-penalty family with its exact
antiderivative, and the metrics container returned by the analytic
evaluator. Everything here is immutable and validation happens at
construction time, so downstream code never re-checks invariants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class PolicyError(ValueError):
    """Base class for policy validation failures."""


class DimensionMismatch(PolicyError):
    """Threshold vector length does not equal the battery size."""


class NotMonotone(PolicyError):
    """Thresholds are not non-increasing in battery level."""


class NonFinite(PolicyError):
    """A threshold is NaN, infinite, or negative."""


class NegativeAge(ValueError):
    """Penalty functions are only defined for age >= 0."""


@dataclass(frozen=True)
class SystemParams:
    """Harvest rate (Poisson, energy units per unit time) and battery size."""

    mu_h: float
    battery: int

    def __post_init__(self):
        if not (isinstance(self.battery, int) and self.battery >= 1):
            raise ValueError(f"battery must be a positive integer, got {self.battery!r}")
        if not (math.isfinite(self.mu_h) and self.mu_h > 0):
            raise ValueError(f"mu_h must be positive and finite, got {self.mu_h!r}")


@dataclass(frozen=True)
class Policy:
    """Monotone non-increasing age thresholds, index 0 = battery level 1.

    thresholds[i] is the age threshold applied while the battery holds
    i+1 units; thresholds[-1] is the full-battery threshold.
    """

    thresholds: tuple[float, ...]

    @property
    def battery(self) -> int:
        return len(self.thresholds)

    @property
    def tau_full(self) -> float:
        """Smallest threshold (full battery)."""
        return self.thresholds[-1]


def validate_policy(params: SystemParams, thresholds: Sequence[float]) -> Policy:
    """Check length, finiteness, non-negativity and monotonicity.

    Equal adjacent thresholds are allowed; the corresponding age interval
    is empty and carries zero probability downstream.
    """
    taus = tuple(float(t) for t in thresholds)
    if len(taus) != params.battery:
        raise DimensionMismatch(
            f"expected {params.battery} thresholds, got {len(taus)}"
        )
    for t in taus:
        if not math.isfinite(t):
            raise NonFinite(f"threshold {t!r} is not finite")
        if t < 0:
            raise NonFinite(f"threshold {t!r} is negative")
    for hi, lo in zip(taus, taus[1:]):
        if hi < lo:
            raise NotMonotone(
                f"thresholds must be non-increasing, got {hi} < {lo}"
            )
    return Policy(taus)


def policy_to_json(params: SystemParams, policy: Policy) -> str:
    """Serialize to the interchange schema {mu_h, battery, thresholds}."""
    return json.dumps(
        {
            "mu_h": params.mu_h,
            "battery": params.battery,
            "thresholds": list(policy.thresholds),
        }
    )


def policy_from_json(text: str) -> tuple[SystemParams, Policy]:
    obj = json.loads(text)
    params = SystemParams(mu_h=float(obj["mu_h"]), battery=int(obj["battery"]))
    return params, validate_policy(params, obj["thresholds"])


@dataclass(frozen=True)
class PenaltySpec:
    """Age-penalty function p as a positive combination of powers.

    terms is a tuple of (coefficient, exponent) pairs, p(x) = sum c*x^a.
    Coefficients must be positive; exponents non-negative with at least
    one strictly positive term so that p grows without bound. The family
    has polynomial growth, hence integrable against any e^{-alpha x}.
    A constant term (exponent 0) is allowed: p(0) > 0 is legal.
    """

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("penalty needs at least one term")
        for c, a in self.terms:
            if not (math.isfinite(c) and c > 0):
                raise ValueError(f"coefficient must be positive, got {c!r}")
            if not (math.isfinite(a) and a >= 0):
                raise ValueError(f"exponent must be non-negative, got {a!r}")
        if not any(a > 0 for _, a in self.terms):
            raise ValueError("penalty must be unbounded: need a term with exponent > 0")

    @staticmethod
    def identity() -> "PenaltySpec":
        return PenaltySpec(((1.0, 1.0),))

    @staticmethod
    def power(exponent: float, coefficient: float = 1.0) -> "PenaltySpec":
        return PenaltySpec(((coefficient, exponent),))

    def __call__(self, delta):
        """Evaluate p(delta). Accepts scalars or numpy arrays."""
        try:
            neg = delta < 0
        except TypeError:
            raise NegativeAge(f"age must be a non-negative number, got {delta!r}")
        if neg is True or (hasattr(neg, "any") and neg.any()):
            raise NegativeAge("age must be non-negative")
        return sum(c * delta**a for c, a in self.terms)

    def antiderivative(self, x):
        """P(x) = integral of p from 0 to x, exact for the power family."""
        try:
            neg = x < 0
        except TypeError:
            raise NegativeAge(f"age must be a non-negative number, got {x!r}")
        if neg is True or (hasattr(neg, "any") and neg.any()):
            raise NegativeAge("age must be non-negative")
        return sum(c * x ** (a + 1) / (a + 1) for c, a in self.terms)

    def inverse(self, y):
        """Smallest x >= 0 with p(x) >= y, elementwise; 0 where y <= p(0).

        Exact for one positive power; a sum of several is bisected between
        bounds that bracket its root: no term alone can exceed the rise
        y - p(0), and the largest of n terms supplies at least 1/n of it.
        """
        rise = np.maximum(np.asarray(y, dtype=float) - sum(c for c, a in self.terms if a == 0), 0.0)
        powers = [(c, a) for c, a in self.terms if a > 0]
        hi = np.min([(rise / c) ** (1.0 / a) for c, a in powers], axis=0)
        lo = np.min([(rise / (len(powers) * c)) ** (1.0 / a) for c, a in powers], axis=0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if not ((lo < mid) & (mid < hi)).any():
                break
            above = sum(c * mid**a for c, a in powers) >= rise
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        return hi


@dataclass(frozen=True)
class PolicyMetrics:
    """Analytic long-run metrics of a monotone threshold policy.

    per_state[j] = (E[X|E=j], E[X^2|E=j], E[P(X)|E=j]) for post-update
    battery level j, where X is the inter-update time and P the penalty
    antiderivative; pi[j] is the stationary probability of level j, and
    transition holds the battery chain's (read-only) transition matrix.
    """

    m1: float
    m2: float
    avg_age: float
    avg_penalty: float
    per_state: tuple[tuple[float, float, float], ...]
    pi: tuple[float, ...]
    transition: np.ndarray = field(compare=False, repr=False)
