"""Erlang arrival-time distribution and its weighted interval integrals, at unit rate.

Everything the analytic evaluator computes reduces to integrals of the
form  int_a^b z^e Pr(Y_k > z) dz,  where Y_k is the waiting time for k
Poisson arrivals at rate 1 and z = mu tau is a threshold in units of the
mean inter-arrival time; renewal turns them into the moments at rate mu,
once per call. The survival function is the Poisson sum
Pr(Y_k > z) = sum_{v<k} e^{-z} z^v / v!, and each of its terms integrates
to a difference of regularized incomplete gammas:

    1 / v! int_a^b z^(e+v) e^{-z} dz = poch(v+1, e) [Q(e+v+1, a) - Q(e+v+1, b)],

with Q = 1 - P the regularized upper gamma (the Poisson CDF for integer
e) and poch(v+1, e) = Gamma(e+v+1) / v!, a product of v + e factors
taken once per battery size and exponent list. An exponent at which
poch(B, e) is past double range gives moments outside it whatever the
thresholds, so the layout refuses it with OverflowError before any of
that work.

gamma_table takes P and Q at every threshold, order and exponent from one
recurrence. For each distinct fractional part f of the exponents and each
threshold x it forms the terms

    u_w = x^(f+w) e^{-x} / Gamma(f+w+1),   w = 0 .. W-1,

u_0 from libm scalars (math.exp, and ** for x^f) and the rest as one
running product of x / (f+w). Then, for every row r,

    Q(f+r, x) = Q(f, x) + sum_{w<r} u_w     a running sum of positive terms;
    P(f+r, x) = sum_{w>=r} u_w              where x < f+r, smallest first,
              = 1 - Q(f+r, x)               elsewhere, where P > 1/2.

Q(0, x) = 0. For 0 < f < 1, Q(f, x) is 1 - P(f, x) below SWITCH and
Legendre's continued fraction from SWITCH on. 1 - P loses about
log10(1/Q(f, x)) digits, which the integrals over short pieces feel: on
pieces 1e-3 wide the worst integral is within 5e-12 of mpmath at
SWITCH = 4, within 1.9e-11 at 5 and only at the contract's 1e-10 at 6.
The sums stop after W terms, W fixed by the battery size and exponents so
that the rest, sum_{w>=W} u_w, is below ULP = 2^-53 of P wherever P is the
tail sum (x < f+r, bounded as x tends to the top row's f+r) and below
ULP absolutely in P(f, x) below SWITCH. An infinite threshold, z_0
among them, gives Q = 0 and P = 1. Past x = 708, e^{-x} is subnormal and
loses digits; past 745 it is 0 and so is every Q(s, x), where the true
value is below 1e-160 for s <= 135.

The array work is division, running products and sums along the terms
(which numpy adds in order), subtraction and gathers, each rounded once
per element, so its results do not depend on how many policies share a
call. e^{-x} and x^f come from libm one at a time: numpy's exp and pow
can run vector code that differs from libm in the last bit on some inputs
(about one in twenty for exp), and which code runs may depend on the
array. So a batch of policies gets bitwise the table each policy gets
alone.

threshold_integrals differences each piece between two thresholds on its
own: in upper tails Q once a >= e+v+1, where P rounds toward 1, and in
lower tails P below that. Adding up whole tails instead (telescoping)
cancels digits the accuracy contract needs. The same table's exponent-0
entries are the Erlang CDFs at the thresholds, Pr(Y_n <= z) = P(n, z),
which threshold_cdfs gathers for the battery chain, and its upper tails
Q(1, z) = e^{-z} are the chain's down-rates, which down_rates gathers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import PenaltySpec

INF = math.inf
ULP = 2.0**-53  # the Poisson-series tails gamma_table drops are below this share of P
SWITCH = 4.0  # x from which Q(f, x), 0 < f < 1, is the continued fraction
_BIG = sys.float_info.max
_RANGE_ERROR = "policy metrics outside double range"


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
    """Index arrays of a gamma table for one battery size and exponent list.

    The table holds Q and P, for each distinct exponent (0 among them) and
    each point k of (inf, z_1..z_B), at the orders v <= min(k, B-1)
    that the pieces ending there need; piece m runs from z_m (lo) to
    z_{m-1} (hi). Flat indices address the table as (Q, P) blocks. The
    integrals' column 0, the head, repeats piece 1 until it is overwritten.

    gamma_table computes Q(f + r, x) and P(f + r, x) for each distinct
    fractional part f of the exponents, each threshold and the rows
    r < R, and gathers the table from them: exponent e = n + f, order v
    is row n + v + 1. Row 0 of f = 0 is Q = 0, P = 1, which z_0 = inf takes.
    """

    exponents: tuple  # the distinct exponents e, increasing, 0 first: one row of the table and integrals each
    s: np.ndarray  # (U, L) shape parameter e + v + 1 per distinct exponent
    pairs: np.ndarray  # (2, 2, U, 1+M) flat: (Q at lo, P at hi) minus (Q at hi, P at lo)
    lo: np.ndarray  # (1, 1+M) threshold column of every piece's lo
    lo_s: np.ndarray  # (U, 1+M) shape parameter at lo
    poch: np.ndarray  # (U, 1+M) poch(v+1, e)
    head_scale: np.ndarray  # (U,) 1 / (e+1)
    head_power: np.ndarray  # (U,) e
    cdf: np.ndarray  # (B, B+1) flat index of Pr(Y_{1+i-j} <= z_i), then 0
    down: np.ndarray  # (B,) flat index of Q(1, z_k), z_0 = inf
    fracs: tuple  # (f, Gamma(f+1)) of each fractional part f > 0 of the exponents
    den: np.ndarray  # (G, 1, W-1) f + w: the ratios u_w / u_{w-1} are x / (f + w)
    s_row: np.ndarray  # (G, 1, R) f + r: P(f + r, x) is the tail sum where x < f + r
    block: tuple  # (2, G, B, W+1), gamma_table's working block of one policy
    flat: np.ndarray  # (2, U, L) index of each table entry in that block


def _tail_terms(a: float) -> int:
    """Fewest terms k past u_{a-1} that leave the rest of P(a, x) = sum u_w,
    x < a, below ULP of the sum: prod_{j<=k} a / (a+j) / (1 - a / (a+k+1)) <= ULP."""
    k, ratio = 0, 1.0
    while True:
        k += 1
        ratio *= a / (a + k)
        if ratio <= ULP * (1.0 - a / (a + k + 1)):
            return k


def _switch_terms(f: float) -> int:
    """Fewest terms W of P(f, x) = sum_{w<W} u_w + rest with rest <= ULP for
    every x < SWITCH: rest <= u_W(SWITCH) / (1 - SWITCH / (f+W+1))."""
    w = math.ceil(SWITCH)
    while math.exp((f + w) * math.log(SWITCH) - SWITCH - math.lgamma(f + w + 1.0)) > ULP * (
        1.0 - SWITCH / (f + w + 1.0)
    ):
        w += 1
    return w


def _poch(orders: int, e: float) -> list[float]:
    """poch(v+1, e) = Gamma(v+1+e) / v! for v < orders, as products:
    Gamma(1+f) prod_{k<=v} (k+f)/k prod_{k<n} (v+1+f+k) with e = n + f."""
    n = math.floor(e)
    f = e - n
    head, out = math.gamma(1.0 + f), []
    for v in range(orders):
        if v:
            head *= (v + f) / v
        rise = head
        for k in range(n):
            rise *= v + 1 + f + k
        out.append(rise)
    return out


def _poch_overflows(orders: int, e: float) -> bool:
    """Is poch(orders, e), the largest product _poch forms, past the largest
    double by more than one nat (a factor 2.718), so that its product is
    surely inf?

    Then every moment with that exponent is inf or NaN. lgamma of the
    exponent is taken at most at 1e300, as lgamma itself overflows from
    about 2.5e305, and the product overflows long before either.
    """
    grown = math.lgamma(orders + min(e, 1e300)) - math.lgamma(orders)
    return grown > math.log(_BIG) + 1.0


@lru_cache(maxsize=32)
def _layout(battery: int, exponents: tuple[float, ...]) -> _Layout:
    distinct = sorted({0.0, *(float(e) for e in exponents)})
    if any(_poch_overflows(battery, e) for e in distinct):
        # _poch would multiply floor(e) factors per order and the block below
        # would hold about e terms per threshold, to end in this same error
        raise OverflowError(_RANGE_ERROR)
    counts = np.minimum(np.arange(battery + 1), battery - 1) + 1  # orders tabled at point k
    point = np.repeat(np.arange(battery + 1), counts)
    start = np.cumsum(counts) - counts  # table entry of (k, 0)
    order = np.arange(len(point)) - start[point]
    m, v = piece_orders(battery)
    m, v = np.append(1, m), np.append(0, v)  # the head's column, overwritten
    width = len(point)
    rows = np.arange(len(distinct))[:, None] * width
    lo = rows + start[m] + v
    hi = rows + start[m - 1] + v
    p_block = len(distinct) * width
    e = np.asarray(distinct)[:, None]
    # C[j, i] for i < B: P(1+i-j, z_i) of exponent 0, and P(1, inf) = 1
    # where the order is <= 0 or z_i = z_0; C[j, B] = Q(1, inf) = 0. Exponent
    # 0 is the first row.
    j, i = np.indices((battery, battery + 1))
    cdf = np.where((j <= i) & (i >= 1), start[np.minimum(i, battery)] + i - j, 0) + p_block
    cdf[:, battery] = 0
    # Q(1, z_k) of exponent 0 at points k < B; Q(1, inf) = 0 at z_0.
    down = start[:battery]
    # Rows r < R of Q(f + r) and P(f + r) for each fractional part f, from
    # the terms u_w, w < W: enough for every tail sum to be within ULP, and
    # for P(f, x), f > 0, below SWITCH. Exponent n + f, order v reads row
    # n + v + 1 of f at its threshold; z_0 reads row 0 of f = 0.
    whole = [math.floor(d) for d in distinct]
    fracs = sorted({d - n for d, n in zip(distinct, whole)})
    n_rows = max(whole) + battery + 1
    n_terms = max(n_rows - 1 + _tail_terms(f + n_rows - 1) for f in fracs)
    n_terms = max([n_terms] + [_switch_terms(f) for f in fracs[1:]])
    depth = n_terms + 1
    part = np.array([fracs.index(d - n) for d, n in zip(distinct, whole)])[:, None]
    finite = point > 0
    cell = np.where(finite, part * battery + point - 1, 0)
    row = np.where(finite, np.array(whole)[:, None] + order + 1, 0)
    entry = cell * depth + row
    f_col = np.asarray(fracs)[:, None, None]
    return _Layout(
        exponents=tuple(distinct),
        s=e + order + 1.0,
        pairs=np.stack(((lo, hi + p_block), (hi, lo + p_block))),
        lo=(m - 1)[None],
        lo_s=e + v + 1.0,
        poch=np.array([_poch(battery, x) for x in distinct])[:, v],
        head_scale=(1.0 / (e + 1.0))[:, 0],
        head_power=e[:, 0],
        cdf=cdf,
        down=down,
        fracs=tuple((f, math.gamma(1.0 + f)) for f in fracs[1:]),
        den=f_col + np.arange(1.0, n_terms),
        s_row=f_col + np.arange(float(n_rows)),
        block=(2, len(fracs), battery, depth),
        flat=np.stack((entry, entry + len(fracs) * battery * depth)),
    )


class GammaTable(NamedTuple):
    """Regularized incomplete gammas at the thresholds of a batch of policies."""

    values: np.ndarray  # (N, 2, U, L): Q, then P, at s = layout.s and z
    z: np.ndarray  # (N, B) the thresholds at unit rate
    layout: _Layout


def _upper_fraction(f: float, x: float) -> float:
    """Q(f, x) / u_0(x) for 0 < f < 1 and x >= SWITCH: f times Legendre's
    continued fraction 1 / (x+1-f - 1(1-f) / (x+3-f - 2(2-f) / ...)), by
    the modified Lentz method."""
    b = x + 1.0 - f
    c = 1e300
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - f)
        b += 2.0
        d = an * d + b
        c = b + an / c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= ULP:
            return f * h


def gamma_table(z: np.ndarray, exponents) -> GammaTable:
    """Q(s, z) and P(s, z) at every threshold, for the given exponents.

    z is an (N, B) array of non-increasing thresholds at unit rate, one
    policy per row, and exponents the powers e of the integrands z^e
    (exponent 0 is always tabled). The recurrence of the module docstring
    runs once, vectorized over the policies, the fractional parts of the
    exponents and the thresholds; threshold_integrals, threshold_cdfs and
    down_rates read from the table.
    """
    n, b = z.shape
    lay = _layout(b, tuple(exponents))
    x, xs = z, z.ravel().tolist()
    top = max(xs, default=0.0)
    if top > _BIG:
        # An infinite threshold takes the largest double, where every u_w
        # is 0: Q = 0 and P = 1, as at z_0.
        x = np.minimum(x, _BIG)
        xs = x.ravel().tolist()
    x = x.reshape(n, 1, b, 1)
    rows = lay.s_row.shape[-1]
    # block[:, 0, k, i] holds Q(f_k, x_i) and then the terms u_0..u_{W-1},
    # block[:, 1, k, i] the tail sums P(f_k + r, x_i) = sum_{w >= r} u_w;
    # the first R entries of each become Q(f_k + r, x_i) and P(f_k + r, x_i).
    block = np.zeros((n,) + lay.block)
    decay = [math.exp(-t) for t in xs]
    block[:, 0, 0, :, 1].flat = decay
    for k, (f, g1) in enumerate(lay.fracs, 1):
        block[:, 0, k, :, 1].flat = [v * t**f / g1 for v, t in zip(decay, xs)]
    np.divide(x, lay.den, out=block[:, 0, :, :, 2:])
    u = block[:, 0, :, :, 1:]
    np.multiply.accumulate(u, axis=-1, out=u)
    np.add.accumulate(u[..., ::-1], axis=-1, out=block[:, 1, :, :, -2::-1])
    if lay.fracs:
        _fractional_base(block, xs, top, lay.fracs)
    q = block[:, 0, :, :, :rows]
    np.add.accumulate(q, axis=-1, out=q)
    # P is the tail sum where x < s, where it can be small, and 1 - Q elsewhere.
    np.subtract(1.0, q, out=block[:, 1, :, :, :rows], where=x >= lay.s_row)
    values = block.reshape(n, -1).take(lay.flat, axis=-1)
    return GammaTable(values, z, lay)


def _fractional_base(block, xs, top, fracs):
    """Q(f, x) of each fractional part f > 0 into gamma_table's block:
    1 - P(f, x) below SWITCH, and u_0 times the continued fraction from it on."""
    qf = block[:, 0, 1:, :, 0]
    np.subtract(1.0, block[:, 1, 1:, :, 0], out=qf)
    if top >= SWITCH:
        base = block[:, 0, 1:, :, 1]
        b = base.shape[-1]
        for i, t in enumerate(xs):
            if t >= SWITCH:
                for k, (f, _) in enumerate(fracs):
                    qf[i // b, k, i % b] = base[i // b, k, i % b] * _upper_fraction(f, t)


def threshold_integrals(table: GammaTable, head: np.ndarray | None = None) -> np.ndarray:
    """Every integral the conditional moments add up, for every exponent.

    With z_0 = inf, piece m is [z_m, z_{m-1}). Returns J of shape
    (N, U, 1 + M), U the number of distinct exponents (table.layout.exponents)
    and M = B(B+1)/2. Column 0 is the head [0, h), h = z_B unless the
    (N, 1) array head gives another end, where every start state's
    survival is 1:

        J[n, u, 0] = int_0^h z^e_u dz,

    computed as h * (1 / (e_u+1) * h^e_u), which keeps z and z^2 / 2
    exact. Column 1 + i is the Poisson term v on piece m of entry i of
    piece_orders(B), clamped at zero:

        J[n, u, 1 + i] = 1 / v! int_{piece m} z^(e_u + v) e^{-z} dz.
    """
    values, z, lay = table
    ends = values.reshape(len(z), -1).take(lay.pairs, axis=-1)
    diff = ends[:, 0] - ends[:, 1]
    d = diff[:, 1]  # lower tails before the mode, upper tails past it
    np.copyto(d, diff[:, 0], where=z.take(lay.lo, axis=-1) >= lay.lo_s)
    np.maximum(d, 0.0, out=d)
    d *= lay.poch
    h = z[:, -1:] if head is None else head
    rise = h**lay.head_power
    rise *= lay.head_scale
    np.multiply(h, rise, out=d[..., 0])
    return d


def threshold_cdfs(table: GammaTable) -> np.ndarray:
    """C[n, j, i] = Pr(Y_{1+i-j} <= z_i) for i < B, with z_0 = inf, and C[n, j, B] = 0.

    Shape (N, B, B+1): the exponent-0 entries of the table, gathered.
    """
    return table.values.reshape(len(table.z), -1).take(table.layout.cdf, axis=-1)


def down_rates(table: GammaTable) -> np.ndarray:
    """Q[n, k] = Pr(Y_1 > z_k) = Q(1, z_k), with z_0 = inf, so Q[n, 0] = 0.

    Shape (N, B): the upper tails of the table's exponent-0 entries, read
    as such rather than as 1 - P, so that they keep their relative
    accuracy where they are small.
    """
    return table.values.reshape(len(table.z), -1).take(table.layout.down, axis=-1)


def _check_interval(a: float, b: float):
    if a < 0 or math.isnan(a) or math.isnan(b) or a > b:
        raise InvalidInterval(f"need 0 <= a <= b, got a={a}, b={b}")


def _interval_integral(mu: float, a: float, b: float, terms, order: int) -> float:
    """int_a^b p(x) Pr(Y_order > x) dx at rate mu, from the last piece
    [mu a, mu b) of the unit-rate thresholds (mu b, ..., mu b, mu a), order + 1
    of them: each term c x^e is c mu^-(e+1) times its unit-rate integral.
    With mu = m 2^k, m in [1, 2), the power of two in mu^-(e+1) is applied
    last, by ldexp, so a term leaves double range only where it does."""
    z = np.full((1, order + 1), mu * float(b))
    z[0, -1] = mu * a
    m, v = piece_orders(order + 1)
    table = gamma_table(z, [e for _, e in terms])
    J = threshold_integrals(table)[0, :, 1:]
    pieces = J[:, (m == order + 1) & (v < order)].sum(axis=1).tolist()
    row = table.layout.exponents.index
    k = math.frexp(mu)[1] - 1
    scale = math.ldexp(mu, -k)
    total = 0.0
    for c, e in terms:
        x = -k * (e + 1.0)
        w = math.floor(x)
        value = c * pieces[row(float(e))] * scale ** -(e + 1.0) * 2.0 ** (x - w)
        try:
            total += math.ldexp(value, w)
        except OverflowError:
            raise OverflowError(_RANGE_ERROR) from None
    return total


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
