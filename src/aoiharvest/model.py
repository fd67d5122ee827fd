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
from functools import cached_property
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


def is_int(value) -> bool:
    """value is an int and not a bool: a bool is an int, and JSON would write it as true."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SystemParams:
    """Harvest rate (Poisson, energy units per unit time) and battery size."""

    mu_h: float
    battery: int

    def __post_init__(self):
        if not (is_int(self.battery) and self.battery >= 1):
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


def _check_age(x):
    """Raise NegativeAge unless x, a scalar or a numpy array, is a non-negative age."""
    try:
        neg = x < 0
    except TypeError:
        raise NegativeAge(f"age must be a non-negative number, got {x!r}")
    if neg is True or (hasattr(neg, "any") and neg.any()):
        raise NegativeAge("age must be non-negative")


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
        _check_age(delta)
        return sum(c * delta**a for c, a in self.terms)

    def antiderivative(self, x):
        """P(x) = integral of p from 0 to x, exact for the power family.

        Each term c x^(a+1) / (a+1) is formed in place in its power's
        array and added in place to the first, with the roundings of that
        expression in that order, so an array x costs at most two arrays
        of its size: the sum and the term being formed. An integer array
        is taken as float64 first.
        """
        _check_age(x)
        if isinstance(x, np.ndarray) and x.dtype.kind in "biu":
            x = x.astype(np.float64)
        total = None
        for c, a in self.terms:
            y = x ** (a + 1)
            y *= c
            y /= a + 1
            if total is None:
                total = y
            else:
                total += y
            del y  # the next term's power is then the only other array
        return total

    @cached_property
    def exponents(self) -> tuple[float, ...]:
        """The exponent of each term: what the evaluator's integrals depend on."""
        return tuple(float(a) for _, a in self.terms)

    @cached_property
    def _split(self) -> tuple[float, tuple[tuple[float, float], ...]]:
        """p(0), the sum of the constant terms, and the positive powers."""
        return sum(c for c, a in self.terms if a == 0), tuple((c, a) for c, a in self.terms if a > 0)

    def inverse(self, y):
        """Smallest x >= 0 with p(x) >= y, elementwise; 0 where y <= p(0).

        One positive power c x^a has the closed form (rise / c)^(1/a) of
        the rise y - p(0). A sum of several is bisected between bounds that
        bracket its root: no term alone can exceed the rise, and the largest
        of n terms supplies at least 1/n of it.
        """
        floor, powers = self._split
        rise = np.asarray(y, dtype=float)
        rise = np.maximum(rise - floor if floor else rise, 0.0)
        if len(powers) == 1:
            [(c, a)] = powers
            return (rise / c) ** (1.0 / a)
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

    moments[:, j] = (E[X|E=j], E[X^2|E=j], E[P(X)|E=j]) for post-update
    battery level j, where X is the inter-update time and P the penalty
    antiderivative, and pi[j] is the stationary probability of level j:
    read-only arrays of shapes (3, B) and (B,). cdfs and down are the
    battery chain's C (B x B) and Q (B) of chain.stationary, read by
    renewal.bellman_levels.
    """

    m1: float
    m2: float
    avg_age: float
    avg_penalty: float
    pi: np.ndarray = field(compare=False, repr=False)
    moments: np.ndarray = field(compare=False, repr=False)
    cdfs: np.ndarray = field(compare=False, repr=False)
    down: np.ndarray = field(compare=False, repr=False)
