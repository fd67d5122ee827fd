"""Post-update battery-level Markov chain: stationary vector and unit values.

Battery levels sampled immediately after each update form a DTMC on
{0, ..., B-1}. An update spends one unit, so from level j the next level
is at least j - 1: the chain is skip-free to the left, and two arrays of
erlang's table of incomplete gammas at the thresholds (the table renewal
reads its moments from) describe it:

    C[j, k] = Pr(next level >= k | j) = P(1+k-j, mu tau_k), tau_0 = inf,
    Q_k = Pr(next level = k-1 | k) = Q(1, mu tau_k) = e^{-mu tau_k},

erlang.threshold_cdfs and erlang.down_rates, Q read as an upper tail and
never as 1 - P. Neither involves tau_B, so pi is invariant to it.

Stationary vector by cut balance: across the cut below level k,
pi_k Q_k = sum_{j<k} pi_j C[j, k]. Run forward from pi_0 = 1 and
normalized at the end, every term is positive, so every entry keeps its
relative accuracy (the GTH property: Grassmann, Taksar & Heyman 1985,
Operations Research 33(5)).

Unit values by pi-weighted cuts. The Bellman levels read d_m = h_{m-1} - h_m
of the relative values h, (I - T) h = c with pi . c = 0. Adding the rows
j < m with weights pi_j, cut balance cancels every d_k, k < m:

    sum_{k>=m} F_m[k] d_k = -S_m,    F_m[k] = sum_{j<m} pi_j C[j, k],

S_m = -sum_{j<m} pi_j c_j = sum_{j>=m} pi_j c_j taken from the side of the
cut with the lighter mass; back substitution from m = B-1 gives every d_m.
The rows themselves, solved the same way, drop row 0 and with it
pi . c = 0, and their rounding grows like 1 / pi_0.

A down-rate below TINY (mu tau_k > 693) counts as 0: the levels below the
highest such level K hold under TINY of the mass, so they are transient,
pi_j = 0 for j < K, and pi_K = 1 starts the recursion. Their cuts carry
no mass, and d_m, m <= K, comes from row m-1 itself, where Q_{m-1} = 0.

Note on the two-state case: the closed-form expression
e^{-mu tau_1} / (1 - mu tau_1 e^{-mu tau_1}) solves the balance equation
of this chain for state 0 (post-update battery empty), and with that
reading the B = 2 closed-form average age reproduces the published
optimal values. Sources that label the same expression as the state-1
probability disagree with the chain built here; we implement the chain
as defined and leave the labeling question open.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .erlang import erlang_cdf  # noqa: F401  (patched by perfbench/tracer.py)
from .erlang import down_rates, gamma_table, threshold_cdfs
from .model import Policy, SystemParams

TINY = 2.0**-1000  # down-rates below this count as 0
_RANGE = 1000  # log2 of the largest mass the forward recursion may reach
_FLOOR = 2.0**-500  # cut rows with less mass below come from _prefix_rows
_CDF_EXPONENTS = (0.0,)  # the exponent-0 table holds the CDFs


class SingularSystem(RuntimeError):
    """The chain's equations gave a result that is not finite."""


def cut_tables(params: SystemParams, policy) -> tuple[np.ndarray, np.ndarray]:
    """C and Q of a Policy, shapes (B, B) and (B,), or of an (N, B) array of thresholds."""
    taus = np.asarray(policy.thresholds if isinstance(policy, Policy) else policy, dtype=float)
    B = params.battery
    table = gamma_table(params.mu_h * taus.reshape(-1, B), _CDF_EXPONENTS)
    lead = taus.shape[:-1]
    return threshold_cdfs(table).reshape(lead + (B, B)), down_rates(table).reshape(lead + (B,))


def transition_matrix(params: SystemParams, policy) -> np.ndarray:
    """T[j, i] = Pr(next post-update level = i | previous = j) = C[j, i] - C[j, i+1], for the tests.

    Landing on level i means the inter-update time fell in [tau_{i+1}, tau_i),
    tau_0 = +inf; level B-1 collects everything below tau_{B-1} (C[j, B] = 0).
    """
    cdfs = cut_tables(params, policy)[0]
    T = cdfs.copy()
    T[..., :-1] -= cdfs[..., 1:]
    return T


@lru_cache(maxsize=32)
def _above_diagonal(size: int) -> np.ndarray:
    """(size, size) mask of the entries [k, i] with i > k."""
    mask = np.triu(np.ones((size, size)), 1)
    mask.setflags(write=False)
    return mask


def _rescale(flow: np.ndarray, rate: np.ndarray, k: int):
    """Scale each chain's flows by the power of two that brings sum_{j<k} pi_j into [1/2, 1)."""
    flow *= np.ldexp(1.0, -np.frexp(np.add.reduce(flow[:k] / rate[:k], axis=0))[1])


def stationary(cdfs: np.ndarray, down: np.ndarray) -> np.ndarray:
    """pi = pi T by cut balance, from C and Q of shapes (..., B, B) and (..., B).

    Level by level, the flow x_k = pi_k Q_k across cut k is complete, and
    level k adds pi_k C[k, i] = x_k (C[k, i] / Q_k) to every cut i > k.
    Where a chain's mass could leave double range, the flows of every
    chain are rescaled by powers of two, which changes no bit that stays
    normal.
    """
    shape = down.shape
    B = shape[-1]
    if B == 1:
        return np.ones(shape)
    rate = down.reshape(-1, B).copy()
    rate[:, 0] = 1.0  # level 0 has no down-rate; pi_0 = 1 starts the recursion
    flow = np.zeros((B, len(rate)))  # flow[k, n] = pi_k Q_k of chain n
    flow[0] = 1.0
    lowest = np.minimum.reduce(rate, axis=None)
    tiny = None
    if lowest < TINY:
        tiny = rate < TINY  # levels 1..K, a prefix: the levels below K are transient
        rate[tiny] = 1.0
        flow[tiny.T] = 1.0
        lowest = np.minimum.reduce(rate, axis=None)
    rescale, total = set(), 0.0  # levels before which to rescale
    if B * (1.0 - math.log2(lowest)) > _RANGE:
        # level k multiplies the mass by at most 1 + 1/Q_k <= 2^bits
        for k, bits in enumerate((1.0 - np.log2(np.minimum.reduce(rate, axis=0))).tolist()):
            total += bits
            if total > _RANGE:
                rescale.add(k)
                total = bits
    if tiny is not None:
        rate[:, :-1][tiny[:, 1:]] = np.inf  # pi_j = 0 below the last tiny level
    push = (cdfs.reshape(-1, B, B) / rate[:, :, None]).transpose(1, 2, 0)
    push *= _above_diagonal(B)[:, :, None]
    for k in range(B - 1):
        if k in rescale:
            _rescale(flow, rate.T, k)
        flow += push[k] * flow[k]
    if B - 1 in rescale:
        _rescale(flow, rate.T, B - 1)
    pi = np.ascontiguousarray(flow.T) / rate
    pi /= np.add.reduce(pi, axis=-1, keepdims=True)
    return pi.reshape(shape)


def _prefix_rows(table: np.ndarray, down: np.ndarray, count: int) -> np.ndarray:
    """The first count cut rows over their mass below, G_m = F_m / sum_{j<m} pi_j.

    table[j] holds C[j], then c_j. Cut balance gives the next level's
    share r = pi_m / sum_{j<m} pi_j = G_m[m] / Q_m, so from G_1 = table[0],
    G_{m+1} = (G_m + r table[m]) / (1 + r), or table[m] past a tiny
    down-rate. All terms are positive and in double range where pi underflows.
    """
    rows = np.empty((count, table.shape[1]))
    rows[0] = table[0]
    for m in range(1, count):
        if down[m] < TINY:
            rows[m] = table[m]
        else:
            r = rows[m - 1, m] / down[m]
            np.multiply(table[m], r, out=rows[m])
            rows[m] += rows[m - 1]
            rows[m] /= 1.0 + r
    return rows


def unit_values(cdfs: np.ndarray, down: np.ndarray, pi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """d_m = h_{m-1} - h_m, m = 1..B-1, for the relative values h of a cost c with pi . c = 0.

    One chain: C (B, B) and Q (B,) as for stationary, and its pi. The
    cut rows come from one running sum over the levels, or from
    _prefix_rows where the mass below the cut is under _FLOOR; from m = B-1
    down, each d_m is pushed into the rows above it. Raises SingularSystem
    when a d_m is not finite.
    """
    B = len(pi)
    if B == 1:
        return np.empty(0)
    # cuts[m-1, k] = F_m[k]; F_m[0] is the mass below m, as C[j, 0] = 1
    cuts = np.add.accumulate(pi[:, None] * cdfs, axis=0)
    pc = pi * c
    above = np.add.accumulate(pc[::-1])[-2::-1]  # sum_{j>=m} pi_j c_j
    rhs = np.where(cuts[:-1, 0] <= 0.5, np.add.accumulate(pc)[:-1], -above)  # -S_m
    if cuts[0, 0] < _FLOOR:
        low = np.count_nonzero(cuts[:-1, 0] < _FLOOR)
        prefix = _prefix_rows(np.concatenate((cdfs, c[:, None]), axis=1), down, low)
        cuts[:low] = prefix[:, :B]
        rhs[:low] = prefix[:, B]
    rows = cuts[:-1, 1:]  # rows[m-1, k-1] = F_m[k], read for k >= m
    diag = rows.diagonal()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if B > 2:
            push = rows.T / diag[:, None] * _above_diagonal(B - 1).T  # [m-1, j-1] = F_j[m] / F_m[m], j < m
            for i in range(B - 2, 0, -1):
                rhs -= push[i] * rhs[i]
        d = rhs / diag
    if not all(map(math.isfinite, d.tolist())):
        raise SingularSystem("unit values not finite")
    return d
