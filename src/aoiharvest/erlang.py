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
(which numpy adds in order), subtraction and strided reads, each rounded
once per element, so its results do not depend on how many policies share
a call. e^{-x} and x^f come from libm one at a time: numpy's exp and pow
can run vector code that differs from libm in the last bit on some inputs
(about one in twenty for exp), and which code runs may depend on the
array. So a batch of policies gets bitwise the table each policy gets
alone.

The table is the recurrence's working block itself, read by slices and
strided views and never gathered. values[n, 0, g, i, r] is Q(f_g + r, z_i)
and values[n, 1, g, i, r] is P(f_g + r, z_i), for each fractional part
f_g, each threshold z_i (z_0 = inf first, where Q = 0 and P = 1) and each
row r < R. Piece m = [z_m, z_{m-1}) is the difference of threshold rows
m and m-1, and orders v = 0..B-1 of exponent e = n + f are rows
n+1..n+B of f. threshold_integrals differences each piece on its own: in
upper tails Q once a >= e+v+1, where P rounds toward 1, and in lower
tails P below that. Adding up whole tails instead (telescoping) cancels
digits the accuracy contract needs. It lays the terms out by shortfall
m - v, the order in which renewal adds them up, through a sheared view of
the differences over a zero-padded buffer. threshold_cdfs reads the
Erlang CDFs at the thresholds, Pr(Y_n <= z) = P(n, z), for the battery
chain as the same kind of shear of the exponent-0 rows, and sets those of
Y_n, n <= 0, to 1 itself; down_rates reads the upper tails
Q(1, z) = e^{-z}, the chain's down-rates, as one slice.
A layout holds O(B) numbers: no index array is built.
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
    """Pr(Y_i > x) for x >= 0; zero when order <= 0.

    The Poisson sum sum_{v<i} e^{-z} z^v / v! at z = rate x, from e^{-z}
    up while e^{-z} is a normal double, and otherwise anchored at its
    largest term (_anchored_poisson_sum).
    """
    if x < 0:
        raise NegativeArgument(f"x must be >= 0, got {x}")
    if k.order <= 0:
        return 0.0
    z = k.rate * x
    term = math.exp(-z)
    if term < sys.float_info.min:
        return min(_anchored_poisson_sum(z, k.order), 1.0)
    total = term
    for v in range(1, k.order):
        term *= z / v
        total += term
    return min(total, 1.0)


def _anchored_poisson_sum(z: float, order: int) -> float:
    """sum_{v<order} e^{-z} z^v / v! where e^{-z} is below the normal doubles.

    The terms are ratios to the largest one, u_t at t = min(order - 1,
    floor(z)), by running products of v / z down from t and z / v up.
    log u_t = t log(z / t) - (z - t) - (log t! - t log t + t), the last
    term from Stirling's series from t = 100 on (the first term it drops
    is below 1e-17), so that no part is much larger than log u_t, where
    t log z - z - log t! would cancel digits of numbers about z log z.
    """
    if z == INF:
        return 0.0
    t = min(order - 1, math.floor(z))
    if t < 100:
        log_top = t * math.log(z) - z - math.lgamma(t + 1.0)
    else:
        series = 0.5 * math.log(2.0 * math.pi * t) + 1.0 / (12.0 * t) - 1.0 / (360.0 * t**3) + 1.0 / (1260.0 * t**5)
        log_top = t * math.log1p((z - t) / t) - (z - t) - series
    total = ratio = 1.0
    for v in range(t, 0, -1):
        ratio *= v / z
        total += ratio
    ratio = 1.0
    for v in range(t + 1, order):
        ratio *= z / v
        total += ratio
    return math.exp(log_top) * total


def erlang_cdf(k: ErlangKernel, x: float) -> float:
    """Pr(Y_i <= x); equals 1 for all x >= 0 when order <= 0."""
    if x < 0:
        raise NegativeArgument(f"x must be >= 0, got {x}")
    if k.order <= 0:
        return 1.0
    return 1.0 - erlang_survival(k, x)


@dataclass(frozen=True)
class _Layout:
    """Shapes and constants of the gamma tables of one battery size and
    exponent list, O(B) numbers in all: the table's shape (module
    docstring; its G fractional parts f increase, 0 first), and the views
    that threshold_integrals and threshold_cdfs read."""

    exponents: tuple  # the distinct exponents e, increasing, 0 first: one row of the integrals each
    poch: np.ndarray  # (U, 1, B) poch(v+1, e)
    head_scale: np.ndarray  # (U,) 1 / (e+1)
    head_power: np.ndarray  # (U,) e
    fracs: tuple  # (f, Gamma(f+1)) of each fractional part f > 0 of the exponents
    den: np.ndarray  # (G, 1, W-1) f + w: the ratios u_w / u_{w-1} are x / (f + w)
    s_row: np.ndarray  # (G, 1, R) f + r: P(f + r, x) is the tail sum where x < f + r
    block: tuple  # (2, G, B+1, W+1), the table of one policy
    pieces: tuple  # (2B-1, R-1, G), threshold_integrals' differences of one policy: B pieces, then zeros
    shears: tuple  # (first, count, shape, byte offset, byte strides) of threshold_integrals' views, per run
    cdf_shear: tuple  # (shape, byte offset, byte strides) of threshold_cdfs' view of the table
    order_le_0: np.ndarray  # (2B-1,) bool: entry i - j + B - 1 is 1 + i - j <= 0, the CDF's ones


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
    # Rows r < R of Q(f + r) and P(f + r) for each fractional part f, from
    # the terms u_w, w < W: enough for every tail sum to be within ULP, and
    # for P(f, x), f > 0, below SWITCH.
    whole = [math.floor(d) for d in distinct]
    fracs = sorted({d - n for d, n in zip(distinct, whole)})
    n_rows = max(whole) + battery + 1
    n_terms = max(n_rows - 1 + _tail_terms(f + n_rows - 1) for f in fracs)
    n_terms = max([n_terms] + [_switch_terms(f) for f in fracs[1:]])
    depth = n_terms + 1
    # Row n + 1 + v of part g on piece m of threshold_integrals' differences
    # (N, 2B-1, R-1, G) is entry (m-1) L + k + v G, L = (R-1) G and k = n G + g
    # the exponent's key: term v of shortfall B - r, on piece B - r + v, is
    # [n, r, v] of a view with strides (-L, L + G), one view for each run of
    # exponents whose keys are evenly spaced.
    b, parts, width = battery, len(fracs), (n_rows - 1) * len(fracs)
    slab = parts * (b + 1) * depth  # the Q, or the P, of one policy
    keys = [n * parts + fracs.index(d - n) for d, n in zip(distinct, whole)]
    runs = []  # (first exponent, count, first key, step)
    for u, key in enumerate(keys):
        if runs and (runs[-1][1] == 1 or key == runs[-1][2] + runs[-1][1] * runs[-1][3]):
            first, count, start, step = runs[-1]
            runs[-1] = (first, count + 1, start, key - start if count == 1 else step)
        else:
            runs.append((u, 1, key, 1))
    item = np.dtype(float).itemsize

    def view(shape, start, *steps):  # shape, offset and strides in bytes of a view of (N, ...)
        return shape, start * item, tuple(s * item for s in steps)

    e = np.asarray(distinct)
    f_col = np.asarray(fracs)[:, None, None]
    return _Layout(
        exponents=tuple(distinct),
        poch=np.array([_poch(battery, x) for x in distinct])[:, None],
        head_scale=1.0 / (e + 1.0),
        head_power=e,
        fracs=tuple((f, math.gamma(1.0 + f)) for f in fracs[1:]),
        den=f_col + np.arange(1.0, n_terms),
        s_row=f_col + np.arange(float(n_rows)),
        block=(2, parts, battery + 1, depth),
        pieces=(2 * battery - 1, n_rows - 1, parts),
        shears=tuple(
            (u, count, *view((count, b, b), (b - 1) * width + key, (2 * b - 1) * width, step, -width, width + parts))
            for u, count, key, step in runs
        ),
        # C[j, i] = P(1+i-j, z_i), i < B: row 1 + i - j of the exponent-0 P at threshold i,
        # which for j > i + 1 reads the rows before it
        cdf_shear=view((b, b), slab + 1, 2 * slab, -1, depth + 1),
        order_le_0=np.arange(2 * b - 1) < b - 2,
    )


class GammaTable(NamedTuple):
    """Regularized incomplete gammas at the thresholds of a batch of policies."""

    values: np.ndarray  # (N,) + layout.block: Q, then P, per fractional part, threshold (inf first) and row
    z: np.ndarray  # (N, B) the thresholds at unit rate
    layout: _Layout
    upper: np.ndarray  # (N, G, B, R) z_i >= f + r: there P is 1 - Q, and pieces from z_i up upper tails
    top: float  # the largest threshold of the batch at unit rate (0 for no thresholds)


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
    # Q = 0 and P = 1 at z_0 = inf, where the recurrence below does not write
    values = np.zeros((n,) + lay.block)
    values[:, 1, :, 0] = 1.0
    # block[:, 0, k, i] holds Q(f_k, x_i) and then the terms u_0..u_{W-1},
    # block[:, 1, k, i] the tail sums P(f_k + r, x_i) = sum_{w >= r} u_w;
    # the first R entries of each become Q(f_k + r, x_i) and P(f_k + r, x_i).
    block = values[:, :, :, 1:]
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
    upper = x >= lay.s_row
    np.subtract(1.0, q, out=block[:, 1, :, :, :rows], where=upper)
    return GammaTable(values, z, lay, upper, top)


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


def threshold_integrals(
    table: GammaTable, head: np.ndarray | None = None, scale: np.ndarray | None = None
) -> np.ndarray:
    """Every integral the conditional moments add up, for every exponent.

    With z_0 = inf, piece m is [z_m, z_{m-1}). Returns J of shape
    (N, U, 1 + B^2), U the number of distinct exponents
    (table.layout.exponents). Column 0 is the head [0, h), h = z_B unless
    the (N, 1) array head gives another end, where every start state's
    survival is 1:

        J[n, u, 0] = int_0^h z^e_u dz,

    computed as h * (1 / (e_u+1) * h^e_u), which keeps z and z^2 / 2
    exact. The other columns are the Poisson terms by shortfall d = m - v:
    row r = B - d of a (B, B) grid holds shortfall d's terms in ascending
    order v, clamped at zero, and zeros past its last, v = r:

        J[n, u, 1 + r B + v] = scale_u / v! int_{piece B-r+v} z^(e_u + v) e^{-z} dz,

    scale, a (U,) array, 1 where it is None. Start state j adds the head
    and the rows of shortfall d > j, so one running sum along a row of J,
    read at column (B - j) B, gives every state.

    Piece m of order v is the difference of threshold rows m and m-1 of
    the table at its order's row: one array of differences, B pieces long
    and padded with B-1 pieces of zeros, then sheared views of it, one per
    run of exponents (_Layout.shears), times poch(v+1, e) scale_u.
    """
    values, z, lay = table.values, table.z, table.layout
    n, b = z.shape
    rows = values[..., 1:lay.s_row.shape[-1]]  # rows 1..R-1 of Q and P
    diff = np.zeros((n,) + lay.pieces)
    d = diff[:, :b].transpose(0, 3, 1, 2)
    np.subtract(rows[:, 1, :, :-1], rows[:, 1, :, 1:], out=d)  # lower tails before the mode
    np.subtract(rows[:, 0, :, 1:], rows[:, 0, :, :-1], out=d, where=table.upper[..., 1:])  # upper tails past it
    np.maximum(d, 0.0, out=d)
    coef = lay.poch if scale is None else lay.poch * scale[:, None, None]
    J = np.empty((n, len(coef), 1 + b * b))
    terms = J[:, :, 1:].reshape(n, -1, b, b)
    for u, count, shape, offset, strides in lay.shears:
        # numpy refuses a view that would reach outside diff
        view = np.ndarray((n,) + shape, float, diff, offset, strides)
        np.multiply(view, coef[u:u + count], out=terms[:, u:u + count])
    h = z[:, -1:] if head is None else head
    rise = h**lay.head_power
    rise *= lay.head_scale
    np.multiply(h, rise, out=J[..., 0])
    return J


def threshold_cdfs(table: GammaTable) -> np.ndarray:
    """C[n, j, i] = Pr(Y_{1+i-j} <= z_i), with z_0 = inf.

    Shape (N, B, B): P(1+i-j, z_i) of exponent 0, a sheared view of its
    rows at the thresholds z_0..z_{B-1}. Where 1+i-j <= 0, Y_{1+i-j} = 0
    and the CDF is 1; the view reads other entries of the table there, so
    those take 1 through a sheared view of _Layout.order_le_0.
    """
    n, b = table.z.shape
    shape, offset, strides = table.layout.cdf_shear
    c = np.empty((n, b, b))
    c[...] = np.ndarray((n,) + shape, float, table.values, offset, strides)  # bounds-checked by numpy
    np.copyto(c, 1.0, where=np.ndarray((b, b), bool, table.layout.order_le_0, b - 1, (-1, 1)))
    return c


def down_rates(table: GammaTable) -> np.ndarray:
    """Q[n, k] = Pr(Y_1 > z_k) = Q(1, z_k), with z_0 = inf, so Q[n, 0] = 0.

    Shape (N, B): a copy of the exponent-0 upper tails at row 1, read as
    such rather than as 1 - P, so that they keep their relative accuracy
    where they are small.
    """
    return table.values[:, 0, 0, : table.z.shape[1], 1].copy()


def _check_interval(a: float, b: float):
    if a < 0 or math.isnan(a) or math.isnan(b) or a > b:
        raise InvalidInterval(f"need 0 <= a <= b, got a={a}, b={b}")


def _interval_integral(mu: float, a: float, b: float, terms, order: int) -> float:
    """int_a^b p(x) Pr(Y_order > x) dx at rate mu, each term c x^e as
    c rho^-(e+1) times its integral at a power-of-two rate rho = 2^k, the
    power of two applied last, by ldexp, so that a term leaves double
    range only where it does.

    Where mu b >= 2^-53, rho is the power of two at or below mu, m = mu / rho
    in [1, 2), and the integral at rate rho is m^-(e+1) times the last piece
    [mu a, mu b) of the unit-rate thresholds (mu b, ..., mu b, mu a), order + 1
    of them. Below, Pr(Y_order > x) >= 1 - mu b is within 2^-53 of 1 on the
    interval, and the unit-rate piece, about (mu b)^(e+1), would underflow
    where the answer does not (1/3 for x^2 on [0, 1] at mu = 1e-300): there
    rho is the power of two at or below 1 / b, and the integral at rate rho
    is that of z^e over [rho a, rho b)."""
    exponents = [float(e) for _, e in terms]
    if mu * b < ULP:
        k = -math.frexp(b)[1]
        lo, hi = math.ldexp(a, k), math.ldexp(b, k)
        pieces = [hi * (hi**e / (e + 1.0)) - lo * (lo**e / (e + 1.0)) for e in exponents]
        row = exponents.index
        scale = 1.0
    else:
        z = np.full((1, order + 1), mu * float(b))
        z[0, -1] = mu * a
        table = gamma_table(z, exponents)
        # order v on the last piece has shortfall order + 1 - v: column 1 + v (order + 2)
        pieces = threshold_integrals(table)[0, :, 1::order + 2][:, :order].sum(axis=1).tolist()
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
