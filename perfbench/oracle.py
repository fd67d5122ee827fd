"""High-precision reference metrics of a threshold policy, computed with mpmath.

Independent of the package's evaluator: the survival function of the
inter-update time is integrated piecewise through mpmath's generalized
incomplete gamma function at 40 significant digits, and the battery chain
is solved by mpmath's LU solver.

Model (post-update battery level j, thresholds tau_1 >= ... >= tau_B,
tau_0 = +inf): on [tau_m, tau_{m-1}) the survival is Pr(Y_{m-j} > x), where
Y_n is the n-th arrival time of a rate-mu Poisson process, and it is 1 on
[0, tau_B). The next post-update level is i when the battery holds i + 1
units as the update fires.
"""

from __future__ import annotations

import mpmath as mp

DPS = 40


def _survival(mu, n, x):
    if n <= 0:
        return mp.mpf(0)
    return mp.exp(-mu * x) * mp.fsum((mu * x) ** v / mp.factorial(v) for v in range(n))


def _moment(mu, n, lo, hi, s):
    """int_lo^hi x^s Pr(Y_n > x) dx."""
    if n <= 0:
        return mp.mpf(0)
    return mp.fsum(
        mu**v / mp.factorial(v) * mp.gammainc(s + v + 1, mu * lo, mu * hi) / mu ** (s + v + 1)
        for v in range(n)
    )


def policy_metrics(mu: float, thresholds, exponent: float) -> dict:
    """Reference values for penalty p(x) = x**exponent (exponent 1 is the age)."""
    with mp.workdps(DPS):
        mu = mp.mpf(mu)
        a = mp.mpf(exponent)
        tau = [mp.inf] + [mp.mpf(t) for t in thresholds]  # tau[i] = tau_i
        B = len(thresholds)
        ex, ex2, epx = [], [], []
        for j in range(B):
            e1, e2, ep = tau[B], tau[B] ** 2, tau[B] ** (a + 1) / (a + 1)
            for m in range(B, 0, -1):
                lo, hi = tau[m], tau[m - 1]
                if lo < hi:
                    e1 += _moment(mu, m - j, lo, hi, 0)
                    e2 += 2 * _moment(mu, m - j, lo, hi, 1)
                    ep += _moment(mu, m - j, lo, hi, a)
            ex.append(e1)
            ex2.append(e2)
            epx.append(ep)

        def short_of(j, k):
            # Pr(fewer than k + 1 units at age tau_k | post-update level j)
            return mp.mpf(0) if k == 0 else _survival(mu, k + 1 - j, tau[k])

        A = mp.matrix(B, B)
        for j in range(B):
            for i in range(B):
                if i == B - 1:
                    p = 1 - short_of(j, B - 1)
                else:
                    p = short_of(j, i + 1) - short_of(j, i)
                A[i, j] = p - (1 if i == j else 0)  # (T' - I)
        rhs = mp.matrix(B, 1)
        for k in range(B):
            A[B - 1, k] = 1
        rhs[B - 1] = 1
        pi = mp.lu_solve(A, rhs)
        m1 = mp.fsum(pi[j] * ex[j] for j in range(B))
        m2 = mp.fsum(pi[j] * ex2[j] for j in range(B))
        ep = mp.fsum(pi[j] * epx[j] for j in range(B))
        return {
            "m1": float(m1),
            "m2": float(m2),
            "avg_age": float(m2 / (2 * m1)),
            "avg_penalty": float(ep / m1),
            "per_state": [[float(ex[j]), float(ex2[j]), float(epx[j])] for j in range(B)],
            "stationary": [float(pi[j]) for j in range(B)],
        }
