import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoiharvest.model import (
    DimensionMismatch,
    NegativeAge,
    NonFinite,
    NotMonotone,
    PenaltySpec,
    SystemParams,
    policy_from_json,
    policy_to_json,
    validate_policy,
)


@pytest.fixture
def params2():
    return SystemParams(mu_h=1.0, battery=2)


class TestSystemParams:
    def test_rejects_bad_rate(self):
        for mu in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SystemParams(mu_h=mu, battery=1)

    def test_rejects_bad_battery(self):
        for battery in (0, True, 2.0):
            with pytest.raises(ValueError, match="battery must be a positive integer"):
                SystemParams(mu_h=1.0, battery=battery)


class TestValidatePolicy:
    def test_accepts_table_row(self, params2):
        pol = validate_policy(params2, [1.5, 0.72])
        assert pol.thresholds == (1.5, 0.72)
        assert pol.tau_full == 0.72

    def test_rejects_increasing(self, params2):
        with pytest.raises(NotMonotone):
            validate_policy(params2, [0.5, 0.9])

    def test_equal_thresholds_ok(self):
        params = SystemParams(mu_h=1.0, battery=3)
        assert validate_policy(params, [1.0, 1.0, 1.0]).thresholds == (1.0, 1.0, 1.0)

    def test_length_mismatch(self, params2):
        with pytest.raises(DimensionMismatch):
            validate_policy(params2, [1.0])

    def test_non_finite_and_negative(self, params2):
        with pytest.raises(NonFinite):
            validate_policy(params2, [math.inf, 1.0])
        with pytest.raises(NonFinite):
            validate_policy(params2, [1.0, -0.1])

    def test_idempotent(self, params2):
        pol = validate_policy(params2, [1.5, 0.72])
        again = validate_policy(params2, pol.thresholds)
        assert again == pol


class TestPenalty:
    def test_identity(self):
        p = PenaltySpec.identity()
        assert p(0.72) == 0.72
        assert p(0.0) == 0.0
        assert p.antiderivative(2.0) == 2.0
        assert p.antiderivative(0.0) == 0.0

    def test_power(self):
        p = PenaltySpec.power(2.0)
        assert p(3.0) == 9.0
        p3 = PenaltySpec.power(2.0, coefficient=3.0)
        assert p3.antiderivative(1.0) == pytest.approx(1.0)

    def test_negative_age_rejected(self):
        p = PenaltySpec.identity()
        with pytest.raises(NegativeAge):
            p(-0.1)
        with pytest.raises(NegativeAge):
            p.antiderivative(-1.0)

    def test_needs_unbounded_term(self):
        with pytest.raises(ValueError):
            PenaltySpec(((1.0, 0.0),))
        # constant offset combined with a growing term is allowed
        p = PenaltySpec(((0.5, 0.0), (1.0, 1.0)))
        assert p(0.0) == 0.5

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError):
            PenaltySpec(((0.0, 1.0),))
        with pytest.raises(ValueError):
            PenaltySpec(((-1.0, 1.0),))

    @given(
        st.sampled_from(
            [
                PenaltySpec.identity(),
                PenaltySpec.power(2.0),
                PenaltySpec.power(0.5, 2.0),
                PenaltySpec(((0.3, 0.0), (1.0, 3.0))),
            ]
        ),
        st.floats(0.0, 50.0),
        st.floats(0.0, 50.0),
    )
    def test_mean_value_bounds(self, p, x, y):
        # p non-decreasing implies p(x)(y-x) <= P(y)-P(x) <= p(y)(y-x)
        x, y = min(x, y), max(x, y)
        lo = p(x) * (y - x)
        hi = p(y) * (y - x)
        mid = p.antiderivative(y) - p.antiderivative(x)
        slack = 1e-9 * max(1.0, hi)
        assert lo - slack <= mid <= hi + slack


def summed_antiderivative(p, x):
    """P(x) as one sum of fresh temporaries, kept as the oracle of the in-place antiderivative."""
    return sum(c * x ** (a + 1) / (a + 1) for c, a in p.terms)


ANTIDERIVATIVE_PENALTIES = {
    "identity": PenaltySpec.identity(),
    "power0.5": PenaltySpec.power(0.5),
    "power2_c3": PenaltySpec.power(2.0, 3.0),
    "power1.5_c0.7": PenaltySpec.power(1.5, 0.7),
    "two_terms": PenaltySpec(((1.0, 1.0), (0.25, 2.0))),
    "constant_and_cube": PenaltySpec(((0.3, 0.0), (1.7, 3.0))),
    "three_terms": PenaltySpec(((0.1, 0.5), (2.0, 1.0), (1e-3, 4.0))),
}

# zero, subnormal, ordinary, large and overflowing ages: x^(a+1) past the
# largest double, or c x^(a+1) past it where x^(a+1) is not (5.6e102 cubed,
# times 3); 1.3e154 squared lies just below it
AGES = [0.0, 5e-324, 1e-200, 0.1, 0.72, 1.0, 2.5, 1e5, 5.6e102, 1e150, 1.3e154, 1e200, 1.7e308]


def outcome(f, x):
    """The IEEE bytes of the float f(x), or the type of the exception it raises."""
    try:
        return np.float64(f(x)).tobytes()
    except OverflowError as exc:
        return type(exc)


class TestAntiderivativeBits:
    """The in-place antiderivative gives the summed expression's bits."""

    @pytest.mark.parametrize("name", ANTIDERIVATIVE_PENALTIES)
    def test_python_scalars(self, name):
        # a Python float power past double range raises OverflowError in both
        p = ANTIDERIVATIVE_PENALTIES[name]
        for x in AGES:
            got, want = outcome(p.antiderivative, x), outcome(lambda x: summed_antiderivative(p, x), x)
            assert got == want, x
        assert type(p.antiderivative(0.72)) is float

    @pytest.mark.parametrize("name", ANTIDERIVATIVE_PENALTIES)
    def test_arrays(self, name):
        p = ANTIDERIVATIVE_PENALTIES[name]
        x = np.concatenate([AGES, np.random.default_rng(1).exponential(2.0, 1000)])
        with np.errstate(over="ignore"):
            got, want = p.antiderivative(x), summed_antiderivative(p, x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.tobytes() == want.tobytes()
        assert np.isinf(got[AGES.index(1.7e308)])

    def test_leaves_the_ages_alone(self):
        x = np.array(AGES[:8])
        before = x.tobytes()
        ANTIDERIVATIVE_PENALTIES["two_terms"].antiderivative(x)
        assert x.tobytes() == before

    def test_integer_ages(self):
        p = ANTIDERIVATIVE_PENALTIES["two_terms"]
        assert p.antiderivative(np.arange(4)).tobytes() == summed_antiderivative(p, np.arange(4.0)).tobytes()
        assert p.antiderivative(2) == summed_antiderivative(p, 2)


class TestPenaltyInverse:
    def test_single_power_closed_form(self):
        assert PenaltySpec.identity().inverse(0.72) == 0.72
        assert PenaltySpec.power(2.0, 3.0).inverse(12.0) == pytest.approx(2.0, rel=1e-15)
        assert PenaltySpec.power(0.5).inverse(3.0) == pytest.approx(9.0, rel=1e-15)

    @pytest.mark.parametrize(
        "p",
        [
            PenaltySpec(((0.3, 0.0), (1.0, 3.0))),
            PenaltySpec(((1.0, 0.0), (2.0, 0.5), (0.5, 2.0))),
            PenaltySpec(((1e-6, 40.0), (1.0, 1.0))),
        ],
    )
    def test_sum_of_powers_is_a_monotone_root(self, p):
        y = np.array([0.31, 1.0, 1.5, 10.0, 1e6])
        x = p.inverse(y)
        hit = y > p(0.0)
        assert np.all(np.diff(x) >= 0) and np.all(x[~hit] == 0.0)
        assert np.allclose(p(x[hit]), y[hit], rtol=1e-13, atol=0.0)

    def test_below_the_constant_term_is_zero(self):
        p = PenaltySpec(((0.5, 0.0), (1.0, 1.0)))
        assert np.array_equal(p.inverse(np.array([0.0, 0.5, 0.25])), np.zeros(3))


def test_policy_json_roundtrip(params2):
    pol = validate_policy(params2, [1.5, 0.72])
    text = policy_to_json(params2, pol)
    obj = json.loads(text)
    assert obj == {"mu_h": 1.0, "battery": 2, "thresholds": [1.5, 0.72]}
    params_back, pol_back = policy_from_json(text)
    assert params_back == params2
    assert pol_back == pol
