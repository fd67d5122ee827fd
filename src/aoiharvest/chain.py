"""Post-update battery-level Markov chain and its stationary distribution.

Battery levels sampled immediately after each update form a DTMC on
{0, ..., B-1}. Transition probabilities are finite differences of Erlang
CDFs evaluated at the thresholds; notably they never involve the
full-battery threshold, so the stationary distribution is invariant to
it. The derivative of the stationary vector in the thresholds is one more
solve with the same bordered matrix (Golub & Meyer 1986).

Note on the two-state case: the closed-form expression
e^{-mu tau_1} / (1 - mu tau_1 e^{-mu tau_1}) solves the balance equation
of this chain for state 0 (post-update battery empty), and with that
reading the B = 2 closed-form average age reproduces the published
optimal values. Sources that label the same expression as the state-1
probability disagree with the chain built here; we implement the chain
as defined and leave the labeling question open.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .erlang import ErlangKernel, erlang_cdf
from .model import Policy, SystemParams


class SingularSystem(RuntimeError):
    """Stationary solve failed; the chain is not ergodic."""


@dataclass(frozen=True)
class TransitionMatrix:
    """Row j = previous post-update level, column i = next post-update level."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


@dataclass(frozen=True)
class StationaryDistribution:
    pi: np.ndarray

    def __post_init__(self):
        self.pi.setflags(write=False)


def transition_matrix(params: SystemParams, policy: Policy) -> TransitionMatrix:
    """Pr(next post-update level = i | previous = j) from the Erlang CDF.

    Landing on level i means the inter-update time fell in
    [tau_{i+1}, tau_i), with tau_0 = +inf; level B-1 collects everything
    below tau_{B-1}. The full-battery threshold tau_B never appears.
    """
    B = params.battery
    mu = params.mu_h
    if B == 1:
        return TransitionMatrix(np.ones((1, 1)))
    taus = policy.thresholds  # taus[i-1] = tau_i
    # C[j, i] = Pr(Y_{1+i-j} <= tau_i), tau_0 = +inf: 1 for i = 0 and i < j; C[:, B] = 0
    C = np.ones((B, B + 1))
    C[:, B] = 0.0
    for i in range(1, B):
        for j in range(i + 1):
            C[j, i] = erlang_cdf(ErlangKernel(mu, 1 + i - j), taus[i - 1])
    T = C[:, :-1] - C[:, 1:]
    T[(T > -1e-14) & (T < 0.0)] = 0.0
    return TransitionMatrix(T)


def _bordered(T: np.ndarray) -> np.ndarray:
    """T' - I with its last row replaced by ones: A pi = e_B defines pi."""
    A = T.T - np.eye(T.shape[0])
    A[-1, :] = 1.0
    return A


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc


def stationary(matrix: TransitionMatrix) -> StationaryDistribution:
    """Unique probability vector with pi = pi T, by direct linear solve.

    Solves (T' - I) pi = 0 with the last equation replaced by sum(pi) = 1.
    """
    T = matrix.entries
    B = T.shape[0]
    b = np.zeros(B)
    b[-1] = 1.0
    pi = _solve(_bordered(T), b)
    pi = np.where((pi > -1e-14) & (pi < 0.0), 0.0, pi)
    if (pi < 0).any():
        raise SingularSystem(f"negative stationary mass: {pi}")
    pi = pi / pi.sum()
    resid = np.abs(pi @ T - pi).max()
    if resid > 1e-10:
        raise SingularSystem(f"stationary residual {resid:.3e} too large")
    return StationaryDistribution(pi)


def stationary_derivative(matrix: TransitionMatrix, pi: np.ndarray, dcdf: np.ndarray) -> np.ndarray:
    """d pi / d tau_i for i = 1..B-1, one column each, from one bordered solve.

    dcdf[j, i-1] is d C[j, i] / d tau_i for the CDF table C of
    transition_matrix: raising tau_i moves that mass from level i-1 to
    level i, so dT_i is +dcdf[:, i-1] in column i and its negative in
    column i-1. Differentiating pi (T - I) = 0 and sum(pi) = 1 gives
    A dpi = -(pi dT_i)' with its last entry replaced by 0.
    """
    B = pi.shape[0]
    g = pi @ dcdf  # (pi dT_i)[i] = g[i-1] = -(pi dT_i)[i-1]
    rhs = np.zeros((B, B - 1))
    cols = np.arange(B - 1)
    rhs[cols, cols] = g
    rhs[cols + 1, cols] = -g
    rhs[-1, :] = 0.0
    return _solve(_bordered(matrix.entries), rhs)
