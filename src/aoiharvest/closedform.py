"""Closed-form average age for one- and two-unit batteries.

These are independent of the general renewal evaluator and serve as
cross-checks. The unit-battery optimum is expressed through the
principal Lambert-W branch, evaluated here with Halley iteration.
"""

from __future__ import annotations

import math

from .model import NotMonotone


# Halley iteration for W stops once the residual and the step are both
# below LAMBERT_TOL, relative; the cap on its steps is defensive only.
LAMBERT_TOL = 1e-12
LAMBERT_MAX_ITER = 100


class NonConvergence(RuntimeError):
    pass


def lambert_w0(z: float) -> float:
    """Principal-branch W(z) for z >= 0 by Halley iteration.

    Converges from the initial guess ln(1+z) in a handful of steps for
    every non-negative argument.
    """
    if z < 0:
        raise ValueError(f"only z >= 0 supported, got {z}")
    if z == 0.0:
        return 0.0
    w = math.log1p(z)
    for _ in range(LAMBERT_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - z
        # Halley step: f' = ew (w + 1), f'' = ew (w + 2)
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0))
        step = f / denom
        w -= step
        if abs(f) <= LAMBERT_TOL * max(1.0, abs(z)) and abs(step) <= LAMBERT_TOL * max(1.0, abs(w)):
            return w
    raise NonConvergence(f"Lambert W did not converge for z={z}")


def b1_average_age(mu_h: float, tau1: float) -> float:
    """Average age of the single-threshold unit-battery policy."""
    a = mu_h * tau1
    return (0.5 * a * a + math.exp(-a) * (a + 1.0)) / (mu_h * (a + math.exp(-a)))


def b1_optimal(mu_h: float) -> tuple[float, float]:
    """Optimal unit-battery threshold and its average age.

    Both equal 2 W(1/sqrt(2)) / mu_h; at the optimum the threshold is a
    fixed point of the average age and satisfies
    (tau*)^2 = (2/mu) e^{-mu tau*}.
    """
    tau = 2.0 * lambert_w0(1.0 / math.sqrt(2.0)) / mu_h
    return tau, tau


def b2_average_age(mu_h: float, tau1: float, tau2: float) -> float:
    """Average age of a two-unit-battery monotone threshold policy."""
    if tau1 < tau2:
        raise NotMonotone(f"need tau1 >= tau2, got {tau1} < {tau2}")
    a1 = mu_h * tau1
    a2 = mu_h * tau2
    e1 = math.exp(-a1)
    e2 = math.exp(-a2)
    rho1 = e1 / (1.0 - e1 * a1)
    num = (
        0.5 * a2 * a2
        + e2 * (a2 + 1.0 + rho1 * (a2 * a2 + 2.0 * a2 + 2.0))
        - e1 * (a1 + 1.0 + rho1 * (a1 * a1 + a1 + 1.0))
    )
    den = mu_h * (a2 + e2 * (1.0 + rho1 * (a2 + 1.0)) - e1 * (1.0 + rho1 * a1))
    return num / den
