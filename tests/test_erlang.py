import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from aoiharvest import erlang
from aoiharvest.erlang import (
    INF,
    SWITCH,
    ErlangKernel,
    InvalidInterval,
    NegativeArgument,
    erlang_cdf,
    erlang_survival,
    gamma_table,
    penalty_weighted_integral,
    survival_weighted_integral,
    threshold_cdfs,
    threshold_integrals,
)
from aoiharvest.model import PenaltySpec


def quad_survival_integral(mu, order, a, b, weight):
    """Independent quadrature oracle for the closed-form integrals."""
    def surv(x):
        if order <= 0:
            return 0.0
        return sum(
            math.exp(-mu * x) * (mu * x) ** v / math.factorial(v) for v in range(order)
        )
    hi = 80.0 / mu if b == INF else b
    val, _ = integrate.quad(lambda x: weight(x) * surv(x), a, hi, limit=200)
    return val


class TestCdf:
    def test_exponential_point(self):
        # frozen from direct evaluation of the one-term sum
        assert erlang_cdf(ErlangKernel(1.0, 1), 1.0) == pytest.approx(
            0.6321205588285577, rel=1e-12
        )

    def test_order_two_point(self):
        assert erlang_cdf(ErlangKernel(1.0, 2), 1.5) == pytest.approx(
            0.4421745996289254, rel=1e-12
        )

    def test_nonpositive_order_is_degenerate(self):
        assert erlang_cdf(ErlangKernel(1.0, 0), 5.0) == 1.0
        assert erlang_cdf(ErlangKernel(1.0, -3), 0.0) == 1.0
        assert erlang_survival(ErlangKernel(1.0, 0), 2.0) == 0.0

    def test_negative_argument(self):
        with pytest.raises(NegativeArgument):
            erlang_cdf(ErlangKernel(1.0, 1), -0.5)

    @pytest.mark.parametrize(
        "order,z", [(800, 760.0), (1000, 800.0), (2000, 1900.0), (3000, 3100.0), (5000, 4900.0), (200, 720.0)]
    )
    def test_survival_where_exp_minus_z_is_not_normal(self, order, z):
        # e^{-z} is subnormal from z = 708 and 0 from 745, where the Poisson
        # sum started from it lost digits or returned 0
        got = erlang_survival(ErlangKernel(1.0, order), z)
        want = mpmath.gammainc(order, mpmath.mpf(z), mpmath.inf, regularized=True)
        assert abs(got - want) <= 1e-11 * want
        assert erlang_cdf(ErlangKernel(2.0, order), z / 2.0) == 1.0 - got  # the same z at rate 2

    @given(
        st.floats(0.2, 4.0),
        st.integers(1, 8),
        st.floats(0.0, 20.0),
    )
    def test_stochastic_dominance_in_order(self, mu, order, x):
        lo = erlang_cdf(ErlangKernel(mu, order), x)
        hi = erlang_cdf(ErlangKernel(mu, order + 1), x)
        assert lo >= hi - 1e-12


class TestSurvivalWeightedIntegral:
    def test_frozen_exponential_interval(self):
        # antiderivative -e^{-x}: e^{-0.72} - e^{-1.5}
        want = math.exp(-0.72) - math.exp(-1.5)
        got = survival_weighted_integral(ErlangKernel(1.0, 1), 0.72, 1.5, 0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_exponential_mean(self):
        assert survival_weighted_integral(ErlangKernel(1.0, 1), 0.0, INF, 0) == pytest.approx(1.0)

    def test_frozen_order2_linear_weight(self):
        # oracle: quadrature of x (1+x) e^{-x} over [0.72, 1.5] = 0.5884549487959123
        got = survival_weighted_integral(ErlangKernel(1.0, 2), 0.72, 1.5, 1)
        assert got == pytest.approx(0.5884549487959123, rel=1e-10)

    def test_degenerate_and_nonpositive_order(self):
        assert survival_weighted_integral(ErlangKernel(1.0, 3), 1.2, 1.2, 1) == 0.0
        assert survival_weighted_integral(ErlangKernel(1.0, 0), 0.0, INF, 0) == 0.0

    def test_scales_with_the_rate(self):
        # int_a^b x^d Pr(Y > x) dx at rate mu is mu^-(d+1) times the unit-rate
        # integral over [mu a, mu b); past double range it is 0 (about 1e-900
        # at mu = 1e300), with no exception from mu^-(d+1) alone
        want = survival_weighted_integral(ErlangKernel(1.0, 2), 0.5, 2.0, 2)
        for mu in (1e-100, 1e-50, 1e50, 1e100):
            got = survival_weighted_integral(ErlangKernel(mu, 2), 0.5 / mu, 2.0 / mu, 2)
            assert got * mu**3 == pytest.approx(want, rel=1e-14)
        assert survival_weighted_integral(ErlangKernel(1e300, 2), 0.0, 1.0, 2) == 0.0

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            survival_weighted_integral(ErlangKernel(1.0, 1), 2.0, 1.0, 0)
        with pytest.raises(InvalidInterval):
            survival_weighted_integral(ErlangKernel(1.0, 1), -1.0, 1.0, 0)

    def test_additivity(self):
        k = ErlangKernel(0.7, 3)
        whole = survival_weighted_integral(k, 0.3, 5.0, 2)
        split = survival_weighted_integral(k, 0.3, 1.7, 2) + survival_weighted_integral(
            k, 1.7, 5.0, 2
        )
        assert split == pytest.approx(whole, rel=1e-12)

    @pytest.mark.parametrize("mu", [1e-300, 1e-200, 1e-100, 1e-20])
    def test_slow_rate_keeps_the_survival_mass(self, mu):
        # Pr(Y_2 > x) is 1 to the last bit on [0, 1], so the integral is
        # int_0^1 x^2 dx = 1/3, though the unit-rate piece (about (mu b)^3 / 3)
        # is far below the smallest double at mu = 1e-200 and 1e-300
        got = survival_weighted_integral(ErlangKernel(mu, 2), 0.0, 1.0, 2)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-14, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.3, 3.0),
        st.integers(1, 6),
        st.integers(0, 2),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
    )
    def test_matches_quadrature(self, mu, order, degree, a, b):
        a, b = min(a, b), max(a, b)
        k = ErlangKernel(mu, order)
        got = survival_weighted_integral(k, a, b, degree)
        want = quad_survival_integral(mu, order, a, b, lambda x: x**degree)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def piece_orders(battery):
    """Piece m and threshold_integrals column of every Poisson term v < m:
    shortfall d = m - v fills row B - d of the (B, B) grid after the head."""
    r, v = np.divmod(np.arange(battery * battery), battery)
    keep = v <= r
    return (battery - r + v)[keep], 1 + (r * battery + v)[keep]


def piece_terms(mu, a, b, terms, orders):
    """The terms of orders v < `orders` on [a, b) at rate mu: threshold_integrals'
    terms on the last piece of the unit-rate thresholds mu (b, ..., b, a),
    orders + 1 of them, each exponent's row times c / mu^(e+1). Row r is term r."""
    table = gamma_table(mu * np.array([[b] * orders + [a]], dtype=float), [e for _, e in terms])
    # order v on the last piece has shortfall orders + 1 - v: column 1 + v (orders + 2)
    J = threshold_integrals(table)[0, :, 1::orders + 2]
    return np.array([c * J[table.layout.exponents.index(e), :orders] / mu ** (e + 1.0) for c, e in terms])


class TestWeightedPrefix:
    """Prefix sums over the orders of one piece: sum_{v<k} of threshold_integrals'
    terms is int_a^b p(x) Pr(Y_k > x) dx."""

    @pytest.mark.parametrize("a,b", [(0.0, 0.8), (0.4, 2.5), (1.3, INF)])
    @pytest.mark.parametrize(
        "p", [PenaltySpec.identity(), PenaltySpec.power(0.5), PenaltySpec.power(2.0, 3.0)]
    )
    def test_entry_k_matches_quadrature_of_order_k(self, a, b, p):
        row = np.cumsum(piece_terms(1.3, a, b, p.terms, 6).sum(axis=0))
        for k in range(1, 7):
            want = quad_survival_integral(1.3, k, a, b, p)
            assert row[k - 1] == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_empty_interval_gives_exact_zeros(self):
        # tied thresholds make empty pieces, which renewal adds unconditionally
        m, column = piece_orders(6)
        taus = np.array([[2.0, 0.7, 0.7, 0.7, 0.7, 0.7]])
        J = threshold_integrals(gamma_table(1.3 * taus, (0.5,)))
        assert np.all(J[0][:, column[m > 2]] == 0.0) and np.all(J[0][:, column[m <= 2]] > 0.0)

    def test_head_column_integrates_the_terms_below_tau_b(self):
        # column 0 is int_0^{z_B} z^e dz, one row per exponent; 1 and z give
        # z_B and z_B^2 / 2 exactly
        z = 0.9 * np.array([[2.0, 0.7, 0.3], [1.1, 1.1, 0.0]])
        table = gamma_table(z, (1.0, 0.5, 2.0))
        assert table.layout.exponents == (0.0, 0.5, 1.0, 2.0)
        head = threshold_integrals(table)[:, :, 0]
        for n, zb in enumerate(z[:, -1].tolist()):
            assert head[n, 0] == zb and head[n, 2] == zb * zb / 2.0
            assert [head[n, 1], head[n, 3]] == pytest.approx([zb**1.5 / 1.5, zb**3 / 3.0], rel=1e-15)

    def test_scale_multiplies_each_exponent_row_bitwise(self):
        # keys n G + g of (0, 0.5, 1, 3.7) are 0, 1, 3, 11: two runs of views,
        # each exponent with its own power of two, so both roundings agree
        z = 1.7 * np.array([[3.0, 2.2, 2.2, 0.9, 0.4], [6.0, 5.0, 1.5, 1.0, 0.0]])
        table = gamma_table(z, (0.5, 1.0, 3.7))
        scale = np.array([0.5, 8.0, 2.0**-30, 2.0**40])
        J, scaled = threshold_integrals(table), threshold_integrals(table, scale=scale)
        assert np.array_equal(scaled[..., 0], J[..., 0])
        for u, s in enumerate(scale.tolist()):
            assert np.array_equal(scaled[:, u, 1:], J[:, u, 1:] * s)


class TestPenaltyWeightedIntegral:
    def test_identity_full_line(self):
        got = penalty_weighted_integral(ErlangKernel(1.0, 1), 0.0, INF, PenaltySpec.identity())
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_square_full_line(self):
        got = penalty_weighted_integral(ErlangKernel(1.0, 1), 0.0, INF, PenaltySpec.power(2.0))
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_nonpositive_order_vanishes(self):
        got = penalty_weighted_integral(ErlangKernel(1.0, -1), 0.0, INF, PenaltySpec.power(2.0))
        assert got == 0.0

    def test_fractional_exponent_against_quadrature(self):
        p = PenaltySpec.power(1.5, 2.0)
        k = ErlangKernel(0.8, 2)
        got = penalty_weighted_integral(k, 0.4, 6.0, p)
        want = quad_survival_integral(0.8, 2, 0.4, 6.0, lambda x: 2.0 * x**1.5)
        assert got == pytest.approx(want, rel=1e-9)


class TestPowerExpIntegral:
    """mu^v/v! int_a^b x^(e+v) e^{-mu x} dx, one term of threshold_integrals
    at the unit-rate thresholds mu a and mu b divided by mu^(e+1), against
    mpmath at 40 digits.

    Domain: e in {0.25, 0.5, 1.5, 2.5, 3.5, 5.5} and the integers 0..2,
    orders v in 0..7, mu in [1e-3, 10] (log-uniform), mu*a in [0, 60] and
    mu*(b - a) in [1e-3, 30] (log-uniform), plus b = inf; and again with
    orders v in 0..130 and mu*a in [0, 200]; bound 1e-10 relative. Far past
    the mode both regularized lower incomplete gammas round to 1, so
    differencing them loses every digit there.
    """

    EXPONENTS = (0.25, 0.5, 1.5, 2.5, 3.5, 5.5, 0.0, 1.0, 2.0)

    @staticmethod
    def reference(e, v, mu, a, b, digits=40):
        with mpmath.workdps(digits):
            mu = mpmath.mpf(mu)
            upper = mpmath.inf if b == INF else mu * mpmath.mpf(b)
            val = mpmath.gammainc(e + v + 1, mu * mpmath.mpf(a), upper)
            return float(val * mu**v / mpmath.factorial(v) / mu ** (e + v + 1))

    @staticmethod
    def term(e, v, mu, a, b):
        return piece_terms(mu, a, b, ((1.0, e),), v + 1)[0, v]

    def test_far_tail_keeps_precision(self):
        assert self.term(0.5, 0, 1.0, 40.0, 41.0) == pytest.approx(
            self.reference(0.5, 0, 1.0, 40.0, 41.0), rel=1e-10, abs=0.0
        )

    def worst_error(self, seed, samples, orders, reach, digits=40):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(samples):
            e = float(rng.choice(self.EXPONENTS))
            v = int(rng.integers(0, orders))
            mu = float(10 ** rng.uniform(-3.0, 1.0))
            a = float(rng.uniform(0.0, reach)) / mu
            if rng.random() < 0.1:
                b = INF
            else:
                b = a + float(10 ** rng.uniform(-3.0, math.log10(30.0))) / mu
            want = self.reference(e, v, mu, a, b, digits)
            worst = max(worst, abs(self.term(e, v, mu, a, b) - want) / want)
        return worst

    def test_matches_mpmath_on_domain(self):
        assert self.worst_error(20261018, 600, 8, 60.0) <= 1e-10

    def test_matches_mpmath_on_high_orders(self):
        # orders v in 0..130 (batteries up to 132) and mu*a in [0, 200]: the
        # Poisson-series tails at the top orders and e^{-x} near 1e-87. The
        # oracle takes 80 digits: at 40, mpmath's difference of two upper
        # gammas near x = 120..190 loses every digit (it gave 0.0 for 4.2e-51).
        assert self.worst_error(20261019, 200, 131, 200.0, digits=80) <= 1e-10


class TestGammaTable:
    """gamma_table's recurrence against mpmath, across batches and at infinity.

    Terms with fractional exponents 0.25, 0.5 and 2.5 take Q(f, x) from
    1 - P(f, x) below SWITCH and from the continued fraction from it on.
    """

    EXPONENTS = (0.0, 1.0, 0.5, 0.25, 2.5)

    @staticmethod
    def entries(table):
        """s, z, Q and P of every entry threshold_integrals reads, each of
        shape (N, U, B+1, B): exponent e = n + f (u), threshold z_i, z_0 = inf
        first, and order v < B, row n + v + 1 of f, at s = e + v + 1."""
        values, z, lay = table.values, table.z, table.layout
        N, B = z.shape
        points = np.concatenate((np.full((N, 1), INF), z), axis=1)
        x = np.broadcast_to(points[:, None, :, None], (N, len(lay.exponents), B + 1, B))
        s = np.broadcast_to(np.add.outer(lay.exponents, np.arange(1.0, B + 1.0))[None, :, None, :], x.shape)
        fracs = [0.0] + [f for f, _ in lay.fracs]
        start = [math.floor(e) + 1 for e in lay.exponents]
        part = [fracs.index(e - math.floor(e)) for e in lay.exponents]
        rows = np.stack([values[:, :, g, :, r:r + B] for g, r in zip(part, start)], axis=2)
        return s, x, rows[:, 0], rows[:, 1]

    def test_entries_match_mpmath(self):
        # bound 1e-13 relative on every entry of a normal double
        rng = np.random.default_rng(20261020)
        worst = 0.0
        for B, scale in ((1, 3.0), (2, 8.0), (4, 0.5), (4, 12.0), (8, 4.0), (16, 40.0), (16, 2.0)):
            taus = np.sort(rng.uniform(0.0, scale, (1, B)))[:, ::-1]
            table = gamma_table(taus, self.EXPONENTS)
            for s, x, q, p in zip(*(a[0].ravel().tolist() for a in self.entries(table))):
                if x == INF:
                    continue
                with mpmath.workdps(50):
                    upper = mpmath.gammainc(s, x, mpmath.inf, regularized=True)
                    lower = mpmath.gammainc(s, 0, x, regularized=True)
                    for got, want in ((q, upper), (p, lower)):
                        if want > 1e-300:
                            worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-13

    def test_batch_rows_are_single_tables_bitwise(self):
        # thresholds on both sides of SWITCH, at it, at 0 and infinite, and 64
        # drawn policies
        mu = 0.8
        at = SWITCH / mu
        taus = np.array(
            [
                [INF, 3.0 * at, at, 0.5 * at],
                [2.0 * at, at, at, 0.0],
                [np.nextafter(at, 0.0), 0.9 * at, 0.2, 0.1],
                [60.0, 40.0, 1.1 * at, 0.99 * at],
            ]
        )
        rng = np.random.default_rng(20261021)
        drawn = np.sort(rng.uniform(0.0, 2.0 * at, (64, 4)))[:, ::-1]
        taus = np.concatenate([taus * k for k in (1.0, 0.5, 1.5, 2.0, 0.25)] + [drawn])
        batch = gamma_table(mu * taus, self.EXPONENTS)
        for n, row in enumerate(taus):
            assert np.array_equal(batch.values[n], gamma_table(mu * row[None], self.EXPONENTS).values[0])
        # Q(1, x) is the first term alone, e^{-x} from libm: numpy's vector
        # exp differs from it in the last bit on about one input in twenty
        s, x, q, _ = self.entries(batch)
        first = (s == 1.0) & (x < INF)
        assert q[first].tolist() == [math.exp(-t) for t in x[first].tolist()]

    @pytest.mark.parametrize("B", [1, 2, 4, 16, 32])
    @pytest.mark.parametrize("exponents", [EXPONENTS[:2], EXPONENTS[:3]], ids=["id", "pow0.5"])
    def test_tail_sums_at_the_truncation_bound(self, B, exponents):
        # the series for P is cut where it is longest: every threshold just
        # below the top row's shape parameter; bound 5e-15 relative
        top = float(self.entries(gamma_table(np.zeros((1, B)), exponents))[0].max())
        x = float(np.nextafter(top, 0.0))
        table = gamma_table(np.full((1, B), x), exponents)
        s, _, _, p = self.entries(table)
        worst, want = 0.0, {}
        with mpmath.workdps(50):
            for got, shape in zip(p[0, :, 1:].ravel().tolist(), s[0, :, 1:].ravel().tolist()):
                if shape not in want:
                    want[shape] = mpmath.gammainc(shape, 0, x, regularized=True)
                worst = max(worst, float(abs(got - want[shape]) / want[shape]))
        assert worst <= 5e-15

    def test_infinite_threshold_reads_like_tau_0(self):
        # Q = 0 and P = 1 at tau_0 and at a user's infinite threshold alike
        table = gamma_table(1.3 * np.array([[INF, INF, 2.0, 1.0]]), self.EXPONENTS)
        _, x, q, p = (a[0] for a in self.entries(table))
        far = x == INF
        assert np.all(q[far] == 0.0) and np.all(p[far] == 1.0)
        assert np.all(q[~far] > 0.0) and np.all(p[~far] > 0.0)
        assert np.all(threshold_cdfs(table)[0, :2, 1] == 1.0)


class TestPochRange:
    """The layout refuses an exponent whose poch(v+1, e) cannot be a double.

    _poch multiplies floor(e) factors per order and the working block holds
    about e terms per threshold, so such an exponent used to run for as long
    as e is large only to give moments outside double range.
    """

    @pytest.mark.parametrize("battery", [1, 2, 3, 8, 64])
    def test_refused_only_where_the_product_overflows(self, battery):
        for e in np.linspace(0.0, 200.0, 801).tolist():
            if erlang._poch_overflows(battery, e):
                assert math.isinf(erlang._poch(battery, e)[-1])
                with pytest.raises(OverflowError, match="policy metrics outside double range"):
                    erlang._layout(battery, (0.0, e))
        # a one-nat margin, less than a unit of exponent: refused from one past the first inf
        first_inf = next(e for e in np.arange(0.0, 200.0, 0.25).tolist() if math.isinf(erlang._poch(battery, e)[-1]))
        assert erlang._poch_overflows(battery, first_inf + 1.0)

    @pytest.mark.parametrize("exponent", [1e7, 1e300, sys.float_info.max])
    def test_huge_exponent_refused_before_any_work(self, exponent):
        with pytest.raises(OverflowError, match="policy metrics outside double range"):
            gamma_table(np.array([[1.0, 0.5]]), (0.0, exponent))


class TestLayoutSize:
    """A layout holds O(B) numbers: the table is read by slices and views,
    so no index array over the (piece, order) grid is cached per battery."""

    @staticmethod
    def nbytes(battery):
        layout = erlang._layout(battery, (0.0, 1.0))
        fields = (getattr(layout, f.name) for f in dataclasses.fields(layout))
        return sum(a.nbytes for a in fields if isinstance(a, np.ndarray))

    def test_grows_at_most_linearly_in_the_battery(self):
        sizes = [self.nbytes(b) for b in (128, 256, 512, 1024, 2048)]
        assert all(big <= 2.1 * small for small, big in zip(sizes, sizes[1:]))
        assert sizes[-1] < 1 << 20
