"""Erlang arrival-time distribution and its weighted interval integrals.

Everything the analytic evaluator computes reduces to integrals of the
form  int_a^b p(x) Pr(Y_k > x) dx,  where Y_k is the waiting time for k
Poisson arrivals at rate mu and p is a sum of powers. The survival
function is the Poisson sum  Pr(Y_k > x) = sum_{v<k} e^{-mu x} (mu x)^v / v!,
and each of its terms integrates to a difference of regularized incomplete
gammas:

    mu^v / v! int_a^b x^(e+v) e^{-mu x} dx
        = poch(v+1, e) / mu^(e+1) * [Q(e+v+1, mu a) - Q(e+v+1, mu b)],

with Q = 1 - P the regularized upper gamma (the Poisson CDF for integer
e) and poch(v+1, e) = Gamma(e+v+1) / v!. gamma_table takes P and Q once
each over the table of thresholds and orders, for every exponent.
threshold_integrals differences each piece between two thresholds on its
own: in upper tails Q once mu a >= e+v+1, where P rounds toward 1, and in
lower tails P below that. Adding up whole tails instead (telescoping)
cancels digits the accuracy contract needs. No truncation or quadrature is
ever used. The same table's exponent-0 entries are the Erlang CDFs at the
thresholds, Pr(Y_n <= tau) = P(n, mu tau), which threshold_cdfs gathers
for the battery chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc, gammaincc, poch

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


@lru_cache(maxsize=32)
def piece_orders(battery: int) -> tuple[np.ndarray, np.ndarray]:
    """Piece m and order v of the Poisson terms in threshold_integrals.

    Every piece m = 1..B with every order v < m, sorted by descending
    shortfall m - v (then by v): a start state j <= B - 1 sees the term v
    on piece m exactly when m - v > j.
    """
    k, v = np.divmod(np.arange(battery * battery), battery)
    d = battery - k
    keep = v + d <= battery
    m, v = v[keep] + d[keep], v[keep]
    m.setflags(write=False)
    v.setflags(write=False)
    return m, v


@dataclass(frozen=True)
class _Layout:
    """Index arrays of a gamma table for one battery size and term list.

    The table holds Q and P, for each distinct exponent (0 among them) and
    each point k of (inf, tau_1..tau_B), at the orders v <= min(k, B-1)
    that the pieces ending there need; piece m runs from tau_m (lo) to
    tau_{m-1} (hi). Flat indices address the table as (Q, P) blocks. The
    integrals' column 0, the head, repeats piece 1 until it is overwritten.
    """

    column: np.ndarray  # (L,) threshold column of each table entry; entry 0 is tau_0
    s: np.ndarray  # (U, L) shape parameter e + v + 1 per distinct exponent
    pairs: np.ndarray  # (2, 2, R, 1+M) flat: (Q at lo, P at hi) minus (Q at hi, P at lo)
    lo: np.ndarray  # (1, 1+M) table entry of every piece's lo
    lo_s: np.ndarray  # (R, 1+M) shape parameter at lo
    coef: np.ndarray  # (R, 1+M) c * poch(v+1, e)
    power: np.ndarray  # (R, 1) e + 1
    head_scale: np.ndarray  # (R,) c / (e+1)
    head_power: np.ndarray  # (R,) e
    cdf: np.ndarray  # (B, B+1) flat index of Pr(Y_{1+i-j} <= tau_i), then 0


@lru_cache(maxsize=32)
def _layout(battery: int, terms: tuple[tuple[float, float], ...]) -> _Layout:
    counts = np.minimum(np.arange(battery + 1), battery - 1) + 1  # orders tabled at point k
    point = np.repeat(np.arange(battery + 1), counts)
    start = np.cumsum(counts) - counts  # table entry of (k, 0)
    order = np.arange(len(point)) - start[point]
    m, v = piece_orders(battery)
    m, v = np.append(1, m), np.append(0, v)  # the head's column, overwritten
    distinct = sorted({0.0, *(float(e) for _, e in terms)})
    width = len(point)
    rows = np.array([[distinct.index(float(e))] for _, e in terms]) * width
    lo = rows + start[m] + v
    hi = rows + start[m - 1] + v
    p_block = len(distinct) * width
    c, e = np.asarray(terms, dtype=float).T[:, :, None]
    # C[j, i] for i < B: P(1+i-j, mu tau_i) of exponent 0, and P(1, inf) = 1
    # where the order is <= 0 or tau_i = tau_0; C[j, B] = Q(1, inf) = 0.
    zero = distinct.index(0.0) * width
    j, i = np.indices((battery, battery + 1))
    cdf = np.where((j <= i) & (i >= 1), start[np.minimum(i, battery)] + i - j, 0) + zero + p_block
    cdf[:, battery] = zero
    return _Layout(
        column=np.maximum(point - 1, 0),
        s=np.asarray(distinct)[:, None] + order + 1.0,
        pairs=np.stack(((lo, hi + p_block), (hi, lo + p_block))),
        lo=(start[m] + v)[None],
        lo_s=e + v + 1.0,
        coef=c * poch(v + 1.0, e),
        power=e + 1.0,
        head_scale=(c / (e + 1.0))[:, 0],
        head_power=e[:, 0],
        cdf=cdf,
    )


class GammaTable(NamedTuple):
    """Regularized incomplete gammas at the thresholds of a batch of policies."""

    values: np.ndarray  # (N, 2, U, L): Q, then P, at s = layout.s and z
    z: np.ndarray  # (N, L) mu times the threshold of each table entry
    taus: np.ndarray  # (N, B) the thresholds
    mu: float
    layout: _Layout


def gamma_table(mu: float, taus: np.ndarray, terms) -> GammaTable:
    """Q(s, mu tau) and P(s, mu tau) at every threshold, for the given terms.

    taus is an (N, B) array of non-increasing thresholds, one policy per
    row, and terms a tuple of (c, e) pairs. gammaincc and gammainc run once
    each over the whole table; threshold_integrals and threshold_cdfs read
    from it.
    """
    lay = _layout(taus.shape[1], tuple(terms))
    z = mu * taus.take(lay.column, axis=-1)
    z[:, 0] = INF
    values = np.empty((len(z), 2) + lay.s.shape)
    per_exponent = z[:, None, :]
    gammaincc(lay.s, per_exponent, out=values[:, 0])
    gammainc(lay.s, per_exponent, out=values[:, 1])
    return GammaTable(values, z, taus, mu, lay)


def threshold_integrals(table: GammaTable) -> np.ndarray:
    """Every integral the conditional moments add up, for every term.

    With tau_0 = inf, piece m is [tau_m, tau_{m-1}). Returns J of shape
    (N, R, 1 + M), R the number of terms and M = B(B+1)/2. Column 0 is the
    head [0, tau_B), where every start state's survival is 1:

        J[n, r, 0] = c_r int_0^{tau_B} x^e_r dx,

    computed as tau_B * (c_r / (e_r+1) * tau_B^e_r), which keeps x and x^2
    exact. Column 1 + i is the Poisson term v on piece m of entry i of
    piece_orders(B), clamped at zero:

        J[n, r, 1 + i] = c_r mu^v / v! int_{piece m} x^(e_r + v) e^{-mu x} dx.
    """
    values, z, taus, mu, lay = table
    ends = values.reshape(len(z), -1).take(lay.pairs, axis=-1)
    diff = ends[:, 0] - ends[:, 1]
    d = diff[:, 1]  # lower tails before the mode, upper tails past it
    np.copyto(d, diff[:, 0], where=z.take(lay.lo, axis=-1) >= lay.lo_s)
    np.maximum(d, 0.0, out=d)
    d *= lay.coef / mu**lay.power
    tau_b = taus[:, -1:]
    d[..., 0] = tau_b * (lay.head_scale * tau_b**lay.head_power)
    return d


def threshold_cdfs(table: GammaTable) -> np.ndarray:
    """C[n, j, i] = Pr(Y_{1+i-j} <= tau_i) for i < B, with tau_0 = inf, and C[n, j, B] = 0.

    Shape (N, B, B+1): the exponent-0 entries of the table, gathered.
    """
    return table.values.reshape(len(table.z), -1).take(table.layout.cdf, axis=-1)


def _check_interval(a: float, b: float):
    if a < 0 or math.isnan(a) or math.isnan(b) or a > b:
        raise InvalidInterval(f"need 0 <= a <= b, got a={a}, b={b}")


def _interval_integral(mu: float, a: float, b: float, terms, order: int) -> float:
    """int_a^b p(x) Pr(Y_order > x) dx, from the last piece [a, b) of the
    thresholds (b, ..., b, a), order + 1 of them."""
    taus = np.full((1, order + 1), float(b))
    taus[0, -1] = a
    m, v = piece_orders(order + 1)
    J = threshold_integrals(gamma_table(mu, taus, terms))[0, :, 1:]
    return float(J[:, (m == order + 1) & (v < order)].sum())


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
    return _interval_integral(k.rate, a, b, ((1.0, float(weight_degree)),), k.order)


def penalty_weighted_integral(k: ErlangKernel, a: float, b: float, p: PenaltySpec) -> float:
    """int_a^b p(x) Pr(Y_i > x) dx, exact for the power penalty family."""
    _check_interval(a, b)
    if k.order <= 0 or a == b:
        return 0.0
    return _interval_integral(k.rate, a, b, p.terms, k.order)
