"""Post-update battery-level Markov chain and its stationary distribution.

Battery levels sampled immediately after each update form a DTMC on
{0, ..., B-1}. Transition probabilities are finite differences of Erlang
CDFs evaluated at the thresholds, Pr(Y_n <= tau) = P(n, mu tau) with P the
regularized lower incomplete gamma, read from erlang's table of incomplete
gammas at the thresholds (renewal reads its moments from the same table).
They never involve the full-battery threshold, so the stationary
distribution is invariant to it. transition_matrix and stationary also
take a batch of policies: every array then carries a leading policy axis.
The relative values of a per-transition cost c solve the chain's Poisson
equation (I - T) h = c, one more linear solve.

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
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .erlang import erlang_cdf  # noqa: F401  (patched by perfbench/tracer.py)
from .erlang import gamma_table, threshold_cdfs
from .model import Policy, SystemParams


# Smallest entry transition_from_cdfs keeps: the square of anything above
# it is a normal double.
FLUSH = 1e-150

_CDF_TERMS = ((1.0, 0.0),)  # the exponent-0 table holds the CDFs


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


def transition_from_cdfs(cdfs: np.ndarray) -> TransitionMatrix:
    """Transition matrices from erlang.threshold_cdfs' C, T[j, i] = C[j, i] - C[j, i+1]."""
    T = cdfs[..., :-1] - cdfs[..., 1:]
    # Tiny negatives are rounding. Entries below FLUSH weigh nothing, but
    # their products in the LU factorization of stationary go subnormal,
    # which slowed the threaded solve at B = 128 from 0.3 ms to 110 ms.
    T[(T > -1e-14) & (T < FLUSH)] = 0.0
    return TransitionMatrix(T)


def transition_matrix(params: SystemParams, policy) -> TransitionMatrix:
    """Pr(next post-update level = i | previous = j) from the Erlang CDF.

    Landing on level i means the inter-update time fell in
    [tau_{i+1}, tau_i), with tau_0 = +inf; level B-1 collects everything
    below tau_{B-1}. The full-battery threshold tau_B never appears.
    policy is a Policy, or an (N, B) array of thresholds, one policy per
    row, for N matrices at once.
    """
    taus = np.asarray(policy.thresholds if isinstance(policy, Policy) else policy, dtype=float)
    B = params.battery
    table = gamma_table(params.mu_h, taus.reshape(-1, B), _CDF_TERMS)
    return transition_from_cdfs(threshold_cdfs(table).reshape(taus.shape[:-1] + (B, B + 1)))


@lru_cache(maxsize=32)
def _identity(battery: int) -> np.ndarray:
    eye = np.eye(battery)
    eye.setflags(write=False)
    return eye


def _singular(err, flag):
    raise SingularSystem("Singular matrix")


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X with A X = b for float64 stacks of matrices A and of columns b (b.ndim == A.ndim).

    np.linalg.solve's LAPACK gufunc (numpy.linalg._umath_linalg.solve, in
    NumPy 1.x and 2 alike) under the error state np.linalg.solve sets: the
    same bits, and SingularSystem where np.linalg.solve raises LinAlgError,
    without the argument handling that costs more than a small solve.
    """
    with np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.solve(A, b, signature="dd->d")


def stationary(matrix: TransitionMatrix) -> StationaryDistribution:
    """Unique probability vector with pi = pi T, by direct linear solve.

    Solves (T' - I) pi = 0 with the last equation replaced by sum(pi) = 1,
    for each matrix of a batch. A one-level chain has pi = 1, which is
    what that solve gives.
    """
    T = matrix.entries
    B = T.shape[-1]
    if B == 1:
        pi = np.ones(T.shape[:-1])
    else:
        eye = _identity(B)
        A = T.swapaxes(-1, -2) - eye
        A[..., -1, :] = 1.0
        pi = _solve(A, eye[-1].reshape((1,) * (A.ndim - 2) + (-1, 1)))[..., 0]
        if np.minimum.reduce(pi, axis=None) < 0.0:
            pi = np.where((pi > -1e-14) & (pi < 0.0), 0.0, pi)
            if (pi < 0).any():
                raise SingularSystem(f"negative stationary mass: {pi}")
        pi /= np.add.reduce(pi, axis=-1, keepdims=True)
    resid = np.maximum.reduce(np.abs(np.matmul(pi[..., None, :], T)[..., 0, :] - pi), axis=None)
    if resid > 1e-10:
        raise SingularSystem(f"stationary residual {resid:.3e} too large")
    return StationaryDistribution(pi)


def relative_values(T: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solution h of (I - T) h = c with h[B-1] = 0, given pi . c = 0.

    T is a transition matrix's entries. With pi . c = 0 the last equation
    follows from the others and is dropped. Pinning state B-1 (the level
    left by an update from a full battery) keeps the solve well conditioned
    at large B, where state 0's stationary mass gets small; it needs state
    B-1 reachable from every state, that is tau_{B-1} > 0.
    """
    B = T.shape[0]
    h = np.zeros(B)
    if B > 1:
        h[:-1] = _solve(_identity(B - 1) - T[:-1, :-1], c[:-1, None])[:, 0]
    return h
