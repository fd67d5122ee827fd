"""Erlang arrival-time distribution and its weighted interval integrals.

Everything the analytic evaluator computes reduces to integrals of the
form  int_a^b x^d * Pr(Y_i > x) dx  where Y_i is the waiting time for i
Poisson arrivals. The survival function is a finite sum of terms
x^v e^{-mu x}, so these integrals have closed-form antiderivatives; no
truncation or quadrature is ever used. Orders here stay small (at most
battery size + 1), so plain summation is numerically safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammainc, gammaincc, gammaln

from .model import PenaltySpec

INF = math.inf


class NegativeArgument(ValueError):
    pass


class InvalidInterval(ValueError):
    pass


@dataclass(frozen=True)
class ErlangKernel:
    """Waiting time Y_i for i arrivals at rate mu. Y_i = 0 for i <= 0."""

    rate: float
    order: int

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be positive, got {self.rate!r}")


def erlang_survival(k: ErlangKernel, x: float) -> float:
    """Pr(Y_i > x) for x >= 0; zero when order <= 0."""
    if x < 0:
        raise NegativeArgument(f"x must be >= 0, got {x}")
    if k.order <= 0:
        return 0.0
    z = k.rate * x
    term = math.exp(-z)
    total = term
    for v in range(1, k.order):
        term *= z / v
        total += term
    return min(total, 1.0)


def erlang_cdf(k: ErlangKernel, x: float) -> float:
    """Pr(Y_i <= x); equals 1 for all x >= 0 when order <= 0."""
    if x < 0:
        raise NegativeArgument(f"x must be >= 0, got {x}")
    if k.order <= 0:
        return 1.0
    return 1.0 - erlang_survival(k, x)


def _poly_exp_antideriv(n: int, mu: float, x: float) -> float:
    """Antiderivative of x^n e^{-mu x}: -e^{-mu x} sum_k (n!/k!) x^k / mu^(n+1-k).

    Vanishes at x = +inf (every term decays).
    """
    if x == INF:
        return 0.0
    coeff = 1.0 / mu  # n!/(k!) / mu^(n+1-k) at k = n
    total = coeff * x**n
    for kk in range(n - 1, -1, -1):
        coeff *= (kk + 1) / mu
        total += coeff * x**kk
    return -math.exp(-mu * x) * total


def _power_exp_integral(s: float, mu: float, a: float, b: float) -> float:
    """int_a^b x^s e^{-mu x} dx for real s > -1.

    Exact finite-sum antiderivative for integer s; otherwise a difference
    of regularized incomplete gammas: the lower ones P below the mode, the
    upper ones Q = 1 - P past it, where every P rounds toward 1.
    """
    if s >= 0 and float(s).is_integer():
        n = int(s)
        return _poly_exp_antideriv(n, mu, b) - _poly_exp_antideriv(n, mu, a)
    # int_0^x t^s e^{-mu t} dt = Gamma(s+1)/mu^(s+1) * P(s+1, mu x)
    scale = math.exp(gammaln(s + 1.0) - (s + 1.0) * math.log(mu))
    if mu * a >= s + 1.0:
        tail = 0.0 if b == INF else gammaincc(s + 1.0, mu * b)
        return scale * (gammaincc(s + 1.0, mu * a) - tail)
    hi = 1.0 if b == INF else gammainc(s + 1.0, mu * b)
    return scale * (hi - gammainc(s + 1.0, mu * a))


def _check_interval(a: float, b: float):
    if a < 0 or math.isnan(a) or math.isnan(b) or a > b:
        raise InvalidInterval(f"need 0 <= a <= b, got a={a}, b={b}")


def weighted_prefix(mu: float, a: float, b: float, terms, n: int) -> list[float]:
    """[int_a^b p(x) Pr(Y_k > x) dx for k = 0..n], p(x) = sum c * x^e over terms.

    One running sum over the Poisson terms of the survival function serves
    every order up to n; each entry is clamped at zero, the running total
    is not. b may be math.inf.
    """
    row = [0.0]
    total = 0.0
    fact = 1.0  # mu^v / v!
    for v in range(n):
        if v > 0:
            fact *= mu / v
        for c, e in terms:
            total += c * fact * _power_exp_integral(e + v, mu, a, b)
        row.append(max(total, 0.0))
    return row


def survival_weighted_integral(
    k: ErlangKernel, a: float, b: float, weight_degree: int = 0
) -> float:
    """int_a^b x^d Pr(Y_i > x) dx, exact.

    b may be math.inf. Returns 0 for order <= 0 (survival is identically
    zero), so the improper integral never diverges.
    """
    _check_interval(a, b)
    if weight_degree < 0 or not float(weight_degree).is_integer():
        raise ValueError(f"weight_degree must be a non-negative integer, got {weight_degree!r}")
    if k.order <= 0 or a == b:
        return 0.0
    return weighted_prefix(k.rate, a, b, ((1.0, weight_degree),), k.order)[-1]


def penalty_weighted_integral(k: ErlangKernel, a: float, b: float, p: PenaltySpec) -> float:
    """int_a^b p(x) Pr(Y_i > x) dx, exact for the power penalty family."""
    _check_interval(a, b)
    if k.order <= 0 or a == b:
        return 0.0
    return weighted_prefix(k.rate, a, b, p.terms, k.order)[-1]
