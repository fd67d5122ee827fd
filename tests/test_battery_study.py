"""The abstract's battery claim, pinned under each reading of it.

The abstract says that "more than half the total possible reduction in age
is attained when battery storage increases from one transmission's worth of
energy to two". The share gained from B = 1 to B = 2 depends on what the
total reduction is measured against; these tests pin the measured share
under each reading (see the README section "Large batteries"). The last
test pins how fast the optimal age approaches its limit as B grows.
"""

import math

import numpy as np
import pytest

from aoiharvest.model import SystemParams
from aoiharvest.optimizer import OptimizerConfig, optimize_penalty

MU = 1.0
BATTERIES = (1, 2, 4, 8, 32)


@pytest.fixture(scope="module")
def ages():
    return {b: optimize_penalty(SystemParams(MU, b), OptimizerConfig()).objective for b in BATTERIES}


def share(ages, floor):
    """Share of the reduction from B = 1 down to floor gained by B = 2."""
    return (ages[1] - ages[2]) / (ages[1] - floor)


def test_ages_fall_strictly_toward_the_energy_causality_bound(ages):
    values = [ages[b] for b in BATTERIES]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0 / (2.0 * MU)


@pytest.mark.parametrize(
    "floor_of,expected",
    [
        ("limit", 0.452),  # against the B -> infinity limit 1/(2 mu): not more than half
        (8, 0.502),  # against the optimum at B = 8
        (4, 0.607),  # against the optimum at B = 4
    ],
)
def test_share_of_reduction_from_one_unit_to_two(ages, floor_of, expected):
    floor = 1.0 / (2.0 * MU) if floor_of == "limit" else ages[floor_of]
    assert share(ages, floor) == pytest.approx(expected, abs=5e-4)


def test_share_from_zero_wait(ages):
    # the zero-wait policy (B = 1, tau = 0) has age 1/mu; B = 2 attains 56.0% of
    # the reduction from there to the limit, 19.8 points of it at B = 1 already
    zero_wait, limit = 1.0 / MU, 1.0 / (2.0 * MU)
    assert (zero_wait - ages[2]) / (zero_wait - limit) == pytest.approx(0.560, abs=5e-4)
    assert (zero_wait - ages[1]) / (zero_wait - limit) == pytest.approx(0.1976, abs=5e-4)


def test_large_battery_law():
    # (gamma* - 1/(2 mu)) B^2 -> pi^2 / 2 from below: the exact fit of
    # C + D/B + E/B^2 through B = 128, 256, 512 gives C within 8.5e-6 of
    # pi^2 / 2 and D = -32.1
    batteries = (128, 256, 512)
    scaled = [
        (optimize_penalty(SystemParams(MU, b), OptimizerConfig()).objective - 0.5 / MU) * MU * b**2
        for b in batteries
    ]
    c, d, _ = np.linalg.solve([[1.0, 1.0 / b, 1.0 / b**2] for b in batteries], scaled)
    assert abs(c - math.pi**2 / 2) <= 1e-4 * math.pi**2 / 2
    assert d < 0


def test_threshold_profile_layers():
    # the optimal thresholds z = mu tau at B = 64, 128, 256: the edge layers
    # settle (z_1 -> 1.7554, z_2 -> 1.4420, z_{B-1} -> 0.7310, each move about
    # a quarter of the one before) while the middle flattens toward 1, with
    # z_{B/2} - 1 = 1.94e-3, 6.37e-4, 1.97e-4
    profiles = [
        optimize_penalty(SystemParams(MU, b), OptimizerConfig()).policy.thresholds for b in (64, 128, 256)
    ]
    for layer in (lambda z: z[0], lambda z: z[1], lambda z: z[-2]):
        values = [MU * layer(z) for z in profiles]
        first, second = (abs(b - a) for a, b in zip(values, values[1:]))
        assert second < first
    middle = [MU * z[len(z) // 2] - 1.0 for z in profiles]
    assert all(m > 0 for m in middle)
    assert middle[0] >= 2.5 * middle[1] and middle[1] >= 2.5 * middle[2]
