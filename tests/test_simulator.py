import dataclasses
import functools
import math
import os
import pathlib
import struct
import tracemalloc
import types
from math import log

import numpy as np
import pytest
from scipy import stats

from aoiharvest import _simcore_cache, _simcore_py, simulator
from aoiharvest.chain import cut_tables, stationary
from aoiharvest.model import PenaltySpec, Policy, SystemParams, validate_policy
from aoiharvest.renewal import interupdate_cdf, policy_metrics
from aoiharvest.simulator import (
    SimConfig,
    SimReport,
    ZeroMeasurementWindow,
    simulate,
    simulate_greedy,
)
from test_simcore_cache import missing_compiler

IDENT = PenaltySpec.identity()


def make(mu, taus):
    params = SystemParams(mu_h=mu, battery=len(taus))
    return params, validate_policy(params, taus)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        params, pol = make(1.0, [1.5, 0.72])
        cfg = SimConfig(seed=42, renewals=20000)
        a = simulate(params, pol, IDENT, cfg)
        b = simulate(params, pol, IDENT, cfg)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_kernel_parity_with_fallback(self):
        # the active kernel (compiled when built) and the pure-Python one
        # must produce the same path, cycle by cycle, bit for bit
        params, pol = make(1.0, [1.5, 0.72])
        taus = np.asarray(pol.thresholds)
        x_py, s_py = _simcore_py.run_cycles(taus, 1.0, 30000, 0, np.random.Generator(np.random.PCG64(7)))
        x_k, s_k = simulator._kernel.run_cycles(taus, 1.0, 30000, 0, np.random.Generator(np.random.PCG64(7)))
        assert x_py.tobytes() == x_k.tobytes()
        assert np.array_equal(s_py, s_k)
        cfg = SimConfig(seed=7, renewals=30000, warmup=0)
        rep = simulate(params, pol, IDENT, cfg)
        assert bits(rep) == bits(reference_report(params, IDENT, cfg, x_py, s_py))
        assert rep.state_freq[0] == np.count_nonzero(s_py == 0) / len(s_py)


def reference_run_cycles(thresholds, mu, n_cycles, start_state, rng):
    """The scalar cycle loop _simcore_py ran before its chunked rewrite, kept
    word for word as the oracle of the exact path tests. CHUNK is the
    compiled kernel's refill size, fixed here so that the oracle does not
    follow a change to _simcore_py.CHUNK."""
    CHUNK = 8192
    taus = tuple(float(t) for t in thresholds)
    B = len(taus)
    x_out = np.empty(n_cycles)
    s_out = np.empty(n_cycles, dtype=np.int64)
    buf = rng.random(CHUNK)
    idx = 0
    j = start_state
    for c in range(n_cycles):
        t = 0.0
        k = 0
        while True:
            L = j + k
            if L > B:
                L = B
            if L >= 1:
                cand = taus[L - 1]
                if cand < t:
                    cand = t
                if L == B:
                    x = cand
                    break
            if idx == CHUNK:
                buf = rng.random(CHUNK)
                idx = 0
            u = buf[idx]
            idx += 1
            t_next = t - log(1.0 - u) / mu
            if L >= 1 and cand < t_next:
                x = cand
                break
            t = t_next
            k += 1
        x_out[c] = x
        j = L - 1
        s_out[c] = j
    return x_out, s_out


# the pure-Python kernel, and the compiled one when it is built
KERNELS = {"python": _simcore_py, simulator.KERNEL: simulator._kernel}
# and _simcore.c built through an empty user cache by these tests
COLD_BUILD = "cold-build"


@pytest.fixture(scope="module")
def cold_built(tmp_path_factory):
    """_simcore.c built, checked against _simcore_py and loaded through an empty cache."""
    reason = missing_compiler()
    if reason:
        pytest.skip(reason)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        kernel = _simcore_cache.load()
        path = _simcore_cache.cache_path(pathlib.Path(_simcore_cache.SOURCE).read_bytes())
        failed = pathlib.Path(path + _simcore_cache.FAILED)
        assert kernel is not None, failed.read_text() if failed.exists() else "no kernel"
    assert kernel.path == path and os.path.isfile(path)
    assert kernel is not _simcore_py and kernel is not simulator._kernel
    return kernel


@pytest.fixture
def kernel(request):
    return request.getfixturevalue("cold_built") if request.param == COLD_BUILD else KERNELS[request.param]


def stratified(mu, battery, seed):
    """The k-th smallest threshold uniform on the k-th of B parts of [0, 4/mu]."""
    rng = np.random.default_rng(seed)
    width = 4.0 / (mu * battery)
    return [float(rng.uniform(k * width, (k + 1) * width)) for k in reversed(range(battery))]


_ORACLE = {}


def oracle(taus, mu, n_cycles, start_state, make_rng, key):
    """reference_run_cycles' x and levels as bytes, and its generator's final
    state, computed once per input key and shared by every kernel."""
    if key not in _ORACLE:
        rng = make_rng()
        x, s = reference_run_cycles(taus, mu, n_cycles, start_state, rng)
        _ORACLE[key] = x.tobytes(), s.tobytes(), rng.bit_generator.state
    return _ORACLE[key]


def sunk_cycles(kernel, taus, mu, n_cycles, start_state, rng):
    """run_cycles with a sink: the views it was handed, each copied before
    the next chunk overwrites it, joined in order."""
    xs, ss = [np.empty(0)], [np.empty(0, dtype=np.int64)]

    def sink(x, s):
        assert x.dtype == np.float64 and s.dtype == np.int64
        assert 0 < len(x) == len(s) <= _simcore_py.CHUNK + 1
        xs.append(x.copy())
        ss.append(s.copy())

    assert kernel.run_cycles(taus, mu, n_cycles, start_state, rng, sink) is None
    return np.concatenate(xs), np.concatenate(ss)


def assert_matches_oracle(kernel, taus, mu, n_cycles, start_state, make_rng, key):
    """Both modes of kernel.run_cycles, the arrays it returns and the views it
    hands a sink, give the oracle's cycles and leave its generator state."""
    x_ref, s_ref, state_ref = oracle(taus, mu, n_cycles, start_state, make_rng, key)
    for run in (kernel.run_cycles, functools.partial(sunk_cycles, kernel)):
        rng_new = make_rng()
        x_new, s_new = run(taus, mu, n_cycles, start_state, rng_new)
        assert x_new.dtype == np.float64 and s_new.dtype == np.int64
        assert x_new.tobytes() == x_ref
        assert s_new.tobytes() == s_ref
        # the chunks were refilled at the same moments: the generators agree
        assert rng_new.bit_generator.state == state_ref


def assert_same_path(kernel, taus, mu, n_cycles, start_state, seed=11):
    taus = np.asarray(taus, dtype=np.float64)

    def make_rng():
        return np.random.Generator(np.random.PCG64(seed))

    assert_matches_oracle(kernel, taus, mu, n_cycles, start_state, make_rng, (taus.tobytes(), mu, n_cycles, start_state, seed))


@pytest.mark.parametrize("kernel", [*KERNELS, COLD_BUILD], indirect=True)
class TestExactPath:
    @pytest.mark.parametrize("mu", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n_cycles", [1, 8191, 8192, 8193, 50_000])
    @pytest.mark.parametrize("start", ["empty", "full"])
    @pytest.mark.parametrize("battery", [1, 2, 3, 4, 16])
    def test_matches_scalar_loop(self, kernel, battery, start, n_cycles, mu):
        taus = stratified(mu, battery, seed=battery)
        assert_same_path(kernel, taus, mu, n_cycles, 0 if start == "empty" else battery)

    @pytest.mark.parametrize(
        "taus",
        [[0.8], [1.0, 1.0], [2.0, 0.9, 0.9], [1.2, 1.2, 0.5, 0.5], [0.7] * 16]
        + [[0.0] * b for b in (1, 2, 3, 4, 16)],
        ids=["b1", "b2", "b3", "b4", "b16"] + [f"zero-b{b}" for b in (1, 2, 3, 4, 16)],
    )
    @pytest.mark.parametrize("start", ["empty", "full"])
    def test_tied_thresholds(self, kernel, taus, start):
        assert_same_path(kernel, taus, 1.0, 20_000, 0 if start == "empty" else len(taus))

    def test_no_cycles(self, kernel):
        assert_same_path(kernel, [1.5, 0.72], 1.0, 0, 0)

    @pytest.mark.parametrize("n_cycles", [0, 1, 2])
    @pytest.mark.parametrize("start", ["empty", "full"])
    @pytest.mark.parametrize("battery", [1, 2])
    def test_fewest_cycles(self, kernel, battery, start, n_cycles):
        # a full battery's first cycle alone, or before one chunk's cycle
        taus = stratified(1.0, battery, seed=battery)
        assert_same_path(kernel, taus, 1.0, n_cycles, 0 if start == "empty" else battery)

    @pytest.mark.parametrize("battery", [1, 2, 4])
    def test_start_state_out_of_range(self, kernel, battery):
        taus = np.array(stratified(1.0, battery, seed=battery))
        for start in (-1, battery + 1):
            with pytest.raises(ValueError, match="start_state"):
                kernel.run_cycles(taus, 1.0, 100, start, np.random.Generator(np.random.PCG64(1)))


@pytest.mark.parametrize("kernel", [*(k for k in KERNELS if k != "python"), COLD_BUILD], indirect=True)
def test_walk_takes_chunks_of_any_length(kernel):
    # run_cycles hands the walk CHUNK uniforms a step; a longer chunk must
    # not overrun the C walk's scratch, and a shorter one must walk alike
    walk = kernel.run_cycles.keywords["walk"]
    u = np.random.Generator(np.random.PCG64(5)).random(3 * _simcore_py.CHUNK + 7)
    taus = tuple(stratified(1.0, 4, seed=4))
    outs = []
    for factory in (_simcore_py.walk_levels, walk):
        x, s = np.zeros(40_000), np.zeros(40_000, dtype=np.int64)
        step = factory(taus, 1.0, 0, x, s)
        c = step(u[:5], 0)
        c = step(u[5:], c)
        outs.append((c, x.tobytes(), s.tobytes()))
    assert outs[0] == outs[1]


class ScriptedGenerator:
    """A stand-in for numpy's Generator whose random(n) hands out the
    scripted uniforms first, then seeded PCG64 uniforms; its
    bit_generator.state counts the uniforms handed out."""

    def __init__(self, script, seed=0):
        fill = np.random.Generator(np.random.PCG64(seed)).random(4 * 8192)
        self._stream = np.concatenate([np.asarray(script, dtype=np.float64), fill])
        self.bit_generator = types.SimpleNamespace(state={"drawn": 0})

    def random(self, n):
        start = self.bit_generator.state["drawn"]
        if start + n > len(self._stream):
            raise RuntimeError("scripted stream exhausted")
        self.bit_generator.state = {"drawn": start + n}
        return self._stream[start : start + n].copy()


MU = 1.3
U0 = 0.3
E0 = -(log(1.0 - U0) / MU)  # the arrival U0 gives, as every kernel computes it


def edge_script(tau):
    """Uniforms at the kernels' edges for a policy whose tau_1 is tau: u = 0
    (E = -0.0); U0, whose arrival E0 the thresholds are built from, and its
    neighbours; the B = 1 screen bound u_lo and its neighbours; the exact
    u at which the arrival reaches tau, and its neighbours."""
    script = [0.0, 0.0, U0, 0.0, U0, U0]
    script += [math.nextafter(U0, 0.0), math.nextafter(U0, 1.0)]
    u_lo = _simcore_py._screen_bound(tau, MU)
    u_tau = -math.expm1(-MU * tau)
    for u in (u_lo, u_tau):
        if 0.0 <= u < 1.0:
            script += [u, math.nextafter(u, 0.0), math.nextafter(u, 1.0), 0.0, u]
    return [u for u in script if 0.0 <= u < 1.0]


def edge_policies():
    """Policies (tau_1 first) with thresholds at, and one ulp either side of,
    the arrival E0, and thresholds of 0.0 and -0.0. At mu tau_1 = 3e-12 the
    rounding of 1 - u moves the arrival at 1 - exp(-mu tau_1 (1 - 2^-30))
    above tau_1, so the B = 1 screen must not pass that uniform."""
    below, above = math.nextafter(E0, 0.0), math.nextafter(E0, math.inf)
    return {
        "b1-at": [E0],
        "b1-below": [below],
        "b1-above": [above],
        "b1-zero": [0.0],
        "b1-negzero": [-0.0],
        "b1-tiny": [3e-12 / MU],
        "b2-at": [E0, E0],
        "b2-around": [above, below],
        "b2-zeros": [0.0, -0.0],
        "b2-negzero-last": [E0, -0.0],
        "b4-at": [3 * E0, 2 * E0, E0, E0],
        "b4-around": [above, E0, below, 0.0],
        "b4-zeros": [-0.0, -0.0, 0.0, -0.0],
    }


@pytest.mark.parametrize("kernel", [*KERNELS, COLD_BUILD], indirect=True)
class TestScriptedEdges:
    @pytest.mark.parametrize("start", ["empty", "full"])
    @pytest.mark.parametrize("n_cycles", [40, 9000])
    @pytest.mark.parametrize("name", list(edge_policies()))
    def test_matches_scalar_loop(self, kernel, name, n_cycles, start):
        taus = np.array(edge_policies()[name])
        script = edge_script(taus[0])
        state = 0 if start == "empty" else len(taus)
        assert_matches_oracle(
            kernel, taus, MU, n_cycles, state, lambda: ScriptedGenerator(script), ("scripted", name, n_cycles, state)
        )

    def test_screen_sees_both_sides(self, kernel):
        # the B = 1 policies put scripted uniforms on both sides of u_lo
        u_lo = _simcore_py._screen_bound(E0, MU)
        assert 0.0 < u_lo < U0
        script = edge_script(E0)
        assert any(0.0 < u <= u_lo for u in script) and any(u_lo < u < U0 for u in script)


def libm(v):
    """math.log of each element, as float64."""
    return np.fromiter(map(math.log, v.tolist()), np.float64, len(v))


def simd_misses(v):
    """The elements of v where numpy's contiguous np.log differs from math.log (none on some machines)."""
    return v[np.log(v).view(np.int64) != libm(v).view(np.int64)]


class TestLibmLog:
    """_libm_log is the pure-Python kernel's log wherever its first-call
    probe accepts it; it must be libm's log bit for bit."""

    @pytest.fixture(autouse=True)
    def accepted(self):
        if _simcore_py.log_kind() != "numpy-scalar":
            pytest.skip("the probe rejected numpy's scalar log here; the kernel takes math.log per element")

    def test_equals_math_log_on_seeded_draws(self):
        rng = np.random.Generator(np.random.PCG64(2024))
        for _ in range(8):
            v = 1.0 - rng.random(2**18)
            assert _simcore_py._libm_log(v).tobytes() == libm(v).tobytes()

    def test_edge_inputs(self):
        v = np.array([1.0, math.nextafter(1.0, 0.0), 2.0**-53, np.finfo(np.float64).tiny, 5e-324])
        assert _simcore_py._libm_log(v).tobytes() == libm(v).tobytes()
        for x in v:
            assert _simcore_py._libm_log(np.array([x])).tobytes() == libm(np.array([x])).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 7, 8192])
    def test_any_length(self, n):
        # B = 1 gathers the unscreened uniforms of a chunk, any number of them;
        # the SIMD log's misses come first, so even n = 1 holds one where it has one
        v = 1.0 - np.random.Generator(np.random.PCG64(5)).random(65536)
        v = np.concatenate([simd_misses(v), v])[:n]
        out = _simcore_py._libm_log(v)
        assert out.shape == (n,) and out.dtype == np.float64
        assert out.tobytes() == libm(v).tobytes()

    def test_probe_falls_back_on_a_one_ulp_difference(self, monkeypatch):
        real = _simcore_py._libm_log
        probe = 1.0 - np.random.Generator(np.random.PCG64(0)).random(_simcore_py.PROBE)
        target = probe[1234]

        def one_ulp_off(v):
            out = np.array(real(v))
            hit = v == target
            out[hit] = np.nextafter(out[hit], np.inf)
            return out

        real_fallback = _simcore_py._frompyfunc_log
        calls = []

        def counted(v):
            calls.append(len(v))
            return real_fallback(v)

        monkeypatch.setattr(_simcore_py, "_libm_log", one_ulp_off)
        monkeypatch.setattr(_simcore_py, "_frompyfunc_log", counted)
        monkeypatch.setattr(_simcore_py, "_log", None)
        assert _simcore_py.log_kind() == "frompyfunc"
        for battery in (1, 4):
            assert_same_path(_simcore_py, stratified(1.0, battery, seed=battery), 1.0, 20_000, 0)
        assert calls


class TestAgreementWithAnalytics:
    def test_b1_optimum(self):
        tau = 0.901201031729666
        params, pol = make(1.0, [tau])
        rep = simulate(params, pol, IDENT, SimConfig(seed=42, renewals=1_000_000))
        assert abs(rep.avg_age - tau) <= 3 * rep.stderr

    def test_b2_table_row(self):
        params, pol = make(1.0, [1.5, 0.72])
        rep = simulate(params, pol, IDENT, SimConfig(seed=42, renewals=1_000_000))
        assert abs(rep.avg_age - 0.7198038206519034) <= 3 * rep.stderr
        pi = stationary(*cut_tables(params, pol))
        n = rep.renewals_measured
        for j in range(2):
            sigma = math.sqrt(pi[j] * (1 - pi[j]) / n)
            assert abs(rep.state_freq[j] - pi[j]) <= 3.5 * sigma

    def test_zero_threshold_age(self):
        params, pol = make(1.0, [0.0])
        rep = simulate(params, pol, IDENT, SimConfig(seed=3, renewals=400_000))
        assert rep.avg_age == pytest.approx(1.0, abs=0.01)

    def test_quadratic_penalty(self):
        params, pol = make(1.0, [1.5, 0.72])
        p2 = PenaltySpec.power(2.0)
        rep = simulate(params, pol, p2, SimConfig(seed=11, renewals=400_000))
        want = policy_metrics(params, pol, p2).avg_penalty
        assert abs(rep.avg_penalty - want) <= 4 * rep.stderr


class TestInternalConsistency:
    def test_ratio_estimator(self):
        params, pol = make(1.0, [1.5, 0.72])
        rep = simulate(params, pol, IDENT, SimConfig(seed=1, renewals=50000))
        assert rep.avg_age == pytest.approx(rep.mean_x2 / (2 * rep.mean_x), rel=1e-12)
        assert rep.avg_penalty == pytest.approx(rep.avg_age, rel=1e-12)

    def test_state_frequencies_sum_to_one(self):
        params, pol = make(0.8, [2.0, 1.3, 0.7])
        rep = simulate(params, pol, IDENT, SimConfig(seed=2, renewals=50000))
        assert sum(rep.state_freq) == pytest.approx(1.0, abs=1e-12)

    def test_inter_update_at_least_min_threshold(self):
        params, pol = make(1.0, [1.5, 0.72])
        rng = np.random.Generator(np.random.PCG64(9))
        x, s = _simcore_py.run_cycles(np.asarray(pol.thresholds), 1.0, 20000, 0, rng)
        assert x.min() >= pol.tau_full
        # post-update battery in range: energy causality held at every firing
        assert s.min() >= 0 and s.max() <= params.battery - 1

    def test_energy_conservation(self):
        # starting empty, firings + banked units cannot exceed harvested units,
        # which are Poisson(mu * T): check against a 5-sigma upper band
        params, pol = make(1.0, [1.2, 0.6])
        rng = np.random.Generator(np.random.PCG64(4))
        n = 5000
        x, s = _simcore_py.run_cycles(np.asarray(pol.thresholds), 1.0, n, 0, rng)
        mean_harvest = params.mu_h * x.sum()
        assert n + s[-1] <= mean_harvest + 5 * math.sqrt(mean_harvest)

    def test_conditional_cdf_ks(self):
        # the inter-update law has atoms at the thresholds (firing exactly at
        # tau_i), so run KS on a randomized probability integral transform:
        # U = F(x-) + V (F(x) - F(x-)) is uniform iff the sample follows F
        params, pol = make(1.0, [1.5, 0.72])
        cfg = SimConfig(seed=42, renewals=320_000, warmup=1000)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        x, s = _simcore_py.run_cycles(np.asarray(pol.thresholds), 1.0, cfg.renewals, 0, rng)
        starts = np.concatenate(([0], s[:-1]))
        x, starts = x[cfg.warmup :], starts[cfg.warmup :]
        vrng = np.random.Generator(np.random.PCG64(4242))
        for j in range(2):
            sample = x[starts == j][:100_000]
            assert len(sample) >= 90_000
            right = np.array([interupdate_cdf(params, pol, j, float(v)) for v in sample])
            left = np.array(
                [interupdate_cdf(params, pol, j, float(np.nextafter(v, -np.inf))) for v in sample]
            )
            u = left + vrng.random(len(sample)) * (right - left)
            res = stats.kstest(u, "uniform")
            assert res.pvalue > 0.001


class TestConfigAndErrors:
    def test_zero_measurement_window(self):
        params, pol = make(1.0, [1.0])
        with pytest.raises(ZeroMeasurementWindow):
            simulate(params, pol, IDENT, SimConfig(seed=0, renewals=10, warmup=10))

    @pytest.mark.parametrize(
        "counts",
        [dict(seed=True), dict(renewals=5000.5), dict(warmup=True), dict(initial_state=0.0), dict(batches=2.0)],
    )
    def test_config_rejects_non_integer_counts(self, counts):
        # a float count failed late, in the kernel; a bool seed or warmup was
        # written as true in SimReport.to_json
        with pytest.raises(ValueError, match="must be integers"):
            SimConfig(**{"seed": 1, "renewals": 5000, **counts})

    def test_initial_state_bound(self):
        params, pol = make(1.0, [1.0])
        with pytest.raises(ValueError, match="initial_state"):
            simulate(params, pol, IDENT, SimConfig(seed=0, renewals=2000, initial_state=5))

    def test_greedy_b1(self):
        params = SystemParams(1.0, 1)
        rep = simulate_greedy(params, IDENT, SimConfig(seed=6, renewals=400_000))
        assert rep.avg_age == pytest.approx(1.0, abs=0.01)

    def test_greedy_large_battery_still_at_exponential_floor(self):
        # zero thresholds fire the instant energy exists, so the nonzero
        # inter-update gaps stay Exp(mu) and avg age sits at 1/mu for any B
        params = SystemParams(1.0, 8)
        rep = simulate_greedy(params, IDENT, SimConfig(seed=6, renewals=200_000))
        assert rep.avg_age == pytest.approx(1.0, abs=0.02)

    def test_greedy_deterministic(self):
        params = SystemParams(1.0, 2)
        a = simulate_greedy(params, IDENT, SimConfig(seed=8, renewals=5000))
        b = simulate_greedy(params, IDENT, SimConfig(seed=8, renewals=5000))
        assert a == b


def keep_everything_report(params, p, cfg, x, states):
    """The sums simulate took while it kept every kernel array to the end,
    whole-array numpy sums: the yardstick of the block-order sums' rounding."""
    xm = x[cfg.warmup :]
    sm = states[cfg.warmup :]
    n = len(xm)
    total_x = float(xm.sum())
    px = p.antiderivative(xm)
    total_p = float(px.sum())
    mean_x2 = float((xm * xm).sum()) / n
    freq = np.bincount(sm, minlength=params.battery)[: params.battery] / n

    nb = min(cfg.batches, n)
    m = n // nb
    bp = px[: nb * m].reshape(nb, m).sum(axis=1)
    bx = xm[: nb * m].reshape(nb, m).sum(axis=1)
    return _report(cfg, n, freq, total_x, total_p, mean_x2, bx, bp)


# The reference's block of measured cycles, fixed here so that the oracle
# does not follow a change to simulator.BLOCK.
REFERENCE_BLOCK = 8192


def reference_report(params, p, cfg, x, states):
    """The block-order reductions, taken on the kernel's full arrays: the
    oracle of the bit-identity tests. The measured cycles are cut into
    segments at every multiple of REFERENCE_BLOCK and every batch boundary;
    each segment's sums of x, P(x) and x^2 are one np.add.reduceat, math.fsum
    adds the segments of each batch (the cycles past the last batch making
    one more), and then the batch sums."""
    xm = x[cfg.warmup :]
    sm = states[cfg.warmup :]
    n = len(xm)
    nb = min(cfg.batches, n)
    m = n // nb
    starts = sorted({*range(0, n, REFERENCE_BLOCK), *range(0, nb * m + 1, m)} - {n})
    segments = [np.add.reduceat(v, starts) for v in (xm, p.antiderivative(xm), xm * xm)]
    batch = np.minimum(np.array(starts) // m, nb)
    per_batch = np.array([[math.fsum(v[batch == k]) for v in segments] for k in range(batch[-1] + 1)])
    total_x, total_p, total_x2 = (math.fsum(column) for column in per_batch.T)
    freq = np.bincount(sm, minlength=params.battery) / n
    return _report(cfg, n, freq, total_x, total_p, total_x2 / n, per_batch[:nb, 0], per_batch[:nb, 1])


def _report(cfg, n, freq, total_x, total_p, mean_x2, bx, bp):
    """The report of these sums, as simulate forms it."""
    mean_x = total_x / n
    nb = len(bx)
    ratios = bp / bx
    stderr = float(ratios.std(ddof=1) / np.sqrt(nb)) if nb > 1 else 0.0
    return SimReport(
        avg_penalty=total_p / total_x,
        avg_age=mean_x2 / (2.0 * mean_x),
        mean_x=mean_x,
        mean_x2=mean_x2,
        state_freq=tuple(float(f) for f in freq),
        stderr=stderr,
        elapsed_sim_time=total_x,
        renewals_measured=n,
        seed=cfg.seed,
        renewals=cfg.renewals,
        warmup=cfg.warmup,
    )


def bits(report):
    """Every compared field of a report, floats as their IEEE bytes."""
    out = []
    for f in dataclasses.fields(report):
        v = getattr(report, f.name)
        if isinstance(v, float):
            v = struct.pack("<d", v)
        elif isinstance(v, tuple):
            v = struct.pack(f"<{len(v)}d", *v)
        if f.compare:
            out.append((f.name, v))
    return out


REDUCTION_PENALTIES = {
    "identity": IDENT,
    "power0.5": PenaltySpec.power(0.5),
    "two_terms": PenaltySpec(((1.0, 1.0), (0.25, 2.0))),
}


class TestReductions:
    """simulate reduces the cycles block by block as the kernel completes
    them, bit for bit the block-order reductions of the full arrays."""

    @pytest.mark.parametrize("renewals", [5000, 30_000])
    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize("batches", [1, 7, 100])
    @pytest.mark.parametrize("warmup", [0, 1000, 4990])
    @pytest.mark.parametrize("penalty", REDUCTION_PENALTIES)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_fields_equal_the_block_order_reductions(self, seed, penalty, warmup, batches, start, renewals):
        params, pol = make(1.3, [2.0, 1.1, 0.4])
        p = REDUCTION_PENALTIES[penalty]
        cfg = SimConfig(seed=seed, renewals=renewals, warmup=warmup, initial_state=start, batches=batches)
        rng = np.random.Generator(np.random.PCG64(seed))
        x, states = simulator._kernel.run_cycles(np.asarray(pol.thresholds), 1.3, cfg.renewals, start, rng)
        want = reference_report(params, p, cfg, x, states)
        got = simulate(params, pol, p, cfg)
        assert bits(got) == bits(want)
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize(
        "renewals, warmup, batches",
        [
            (3 * 8192, 0, 3),  # every batch boundary on a block boundary
            (3 * 8192, 0, 6),  # every other one
            (3 * 8192 + 5, 5, 2),  # the warmup ends inside the first chunk
            (2000, 0, 2000),  # a batch per cycle
            (20_000, 0, 19_999),  # batches of one cycle, and one cycle past them
            (40_000, 30_000, 3),  # the measured cycles start in a later chunk
        ],
    )
    def test_batch_and_block_edges(self, renewals, warmup, batches):
        params, pol = make(1.0, [1.5, 0.72])
        cfg = SimConfig(seed=5, renewals=renewals, warmup=warmup, batches=batches)
        x, states = _simcore_py.run_cycles(np.asarray(pol.thresholds), 1.0, renewals, 0, np.random.Generator(np.random.PCG64(5)))
        p = REDUCTION_PENALTIES["two_terms"]
        assert bits(simulate(params, pol, p, cfg)) == bits(reference_report(params, p, cfg, x, states))

    @pytest.mark.parametrize("chunk", [1000, 3001])
    @pytest.mark.parametrize("battery", [1, 4])
    def test_bits_do_not_follow_the_chunks(self, monkeypatch, battery, chunk):
        # the uniforms, and so the cycles, are the same at any refill size,
        # while the cycles each chunk completes are not
        params, pol = make(1.0, stratified(1.0, battery, seed=battery))
        cfg = SimConfig(seed=8, renewals=30_000, batches=9)
        want = simulate(params, pol, IDENT, cfg)
        monkeypatch.setattr(_simcore_py, "CHUNK", chunk)
        assert bits(simulate(params, pol, IDENT, cfg)) == bits(want)

    @pytest.mark.parametrize("penalty", REDUCTION_PENALTIES)
    def test_rounding_near_the_keep_everything_reductions(self, penalty):
        # the block-order sums differ from the whole-array pairwise sums of
        # the reductions they replaced only in the last bits
        params, pol = make(1.3, [2.0, 1.1, 0.4])
        p = REDUCTION_PENALTIES[penalty]
        cfg = SimConfig(seed=3, renewals=200_000)
        rng = np.random.Generator(np.random.PCG64(3))
        x, states = simulator._kernel.run_cycles(np.asarray(pol.thresholds), 1.3, cfg.renewals, 0, rng)
        old = keep_everything_report(params, p, cfg, x, states)
        got = simulate(params, pol, p, cfg)
        assert got.state_freq == old.state_freq
        for f in dataclasses.fields(got):
            if f.compare and isinstance(getattr(got, f.name), float):
                assert getattr(got, f.name) == pytest.approx(getattr(old, f.name), rel=1e-12, abs=0.0), f.name


def simulate_peak(penalty, n):
    """The tracemalloc peak, in bytes, of one simulate() of n renewals at B = 4 under the penalty."""
    params, pol = make(1.0, [2.5, 1.5, 0.8, 0.5])
    p = REDUCTION_PENALTIES[penalty]
    # a first short run keeps the kernel's one-off set-up out of the trace
    simulate(params, pol, p, SimConfig(seed=1, renewals=2000))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        simulate(params, pol, p, SimConfig(seed=1, renewals=n))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMemory:
    @pytest.mark.parametrize("n", [200_000, 2_000_000])
    @pytest.mark.parametrize("penalty", REDUCTION_PENALTIES)
    def test_peak_does_not_grow_with_renewals(self, penalty, n):
        # the kernel's buffers, the block and its sums hold a chunk's cycles
        # at a time, whatever the number of renewals
        assert simulate_peak(penalty, n) <= 2**20
