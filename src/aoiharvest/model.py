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
from dataclasses import dataclass
from typing import Sequence


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


@dataclass(frozen=True)
class PolicyMetrics:
    """Analytic long-run metrics of a monotone threshold policy.

    per_state[j] = (E[X|E=j], E[X^2|E=j], E[P(X)|E=j]) for post-update
    battery level j, where X is the inter-update time and P the penalty
    antiderivative; pi[j] is the stationary probability of level j.
    """

    m1: float
    m2: float
    avg_age: float
    avg_penalty: float
    per_state: tuple[tuple[float, float, float], ...]
    pi: tuple[float, ...]
