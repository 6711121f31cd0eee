import math

import numpy as np
import pytest
from scipy import integrate, special

from multiblock import ratecalc as rc
from multiblock.channel import FadingModel
from multiblock.errors import DomainError, SingularChannel
from multiblock.rng import complex_gaussian, philox

from oracles import reference_gauss_markov_capacity

GAMMA = rc.EULER_GAMMA
LN2 = math.log(2.0)
# root-discriminant growth constant of the Martinet tower of totally complex
# fields
MARTINET_G = 92.368


# -- special functions -------------------------------------------------------

def test_digamma_known_values():
    assert rc.digamma(1.0) == pytest.approx(-GAMMA, abs=1e-12)
    assert rc.digamma(2.0) == pytest.approx(1.0 - GAMMA, abs=1e-12)
    assert rc.digamma(0.5) == pytest.approx(-GAMMA - 2.0 * math.log(2.0), abs=1e-12)


def test_digamma_domain():
    with pytest.raises(DomainError):
        rc.digamma(0.0)
    with pytest.raises(DomainError):
        rc.digamma(-1.0)


def test_digamma_matches_lngamma_derivative():
    h = 1e-4
    for x in np.linspace(0.5, 20.0, 79):
        fd = (math.lgamma(x + h) - math.lgamma(x - h)) / (2.0 * h)
        assert abs(rc.digamma(x) - fd) < 1e-6


# -- Rayleigh log-determinant ------------------------------------------------

@pytest.mark.parametrize("n,n_r", [(1, 1), (1, 2), (2, 2)])
def test_expected_logdet_vs_monte_carlo(n, n_r):
    gen = philox(101, n, n_r)
    samples = 100000
    H = (gen.normal(size=(samples, n_r, n)) + 1j * gen.normal(size=(samples, n_r, n))) / math.sqrt(2.0)
    vals = np.linalg.slogdet(H.conj().swapaxes(1, 2) @ H)[1] / LN2
    stderr = vals.std(ddof=1) / math.sqrt(samples)
    assert abs(vals.mean() - rc.expected_logdet_rayleigh(n, n_r)) <= 3 * stderr


def test_expected_logdet_closed_forms():
    assert rc.expected_logdet_rayleigh(1, 1) == pytest.approx(-GAMMA / LN2, abs=1e-12)
    assert rc.expected_logdet_rayleigh(1, 2) == pytest.approx((1 - GAMMA) / LN2, abs=1e-12)
    assert rc.expected_logdet_rayleigh(2, 2) == pytest.approx(
        (rc.digamma(1) + rc.digamma(2)) / LN2, abs=1e-12)


def test_gamma_moment_identities():
    # E[Z_j^-v] = Gamma(j - v)/Gamma(j) for 2 Z_j ~ chi^2(2j)
    gen = philox(103, 0)
    for j, v in ((1, 0.3), (2, 0.5), (3, 0.9)):
        z = gen.gamma(shape=j, scale=1.0, size=200000)
        vals = z ** (-v)
        stderr = vals.std(ddof=1) / math.sqrt(len(vals))
        expect = math.exp(math.lgamma(j - v) - math.lgamma(j))
        assert abs(vals.mean() - expect) <= 3 * stderr


# -- rate formulas -----------------------------------------------------------

def test_rate_theorem1_siso_martinet_identity():
    # mu = -gamma/ln2 and C_L = G/2 reduce to log2(P e^-gamma) - log2(2G/pi e)
    P = 250.0
    mu = -GAMMA / LN2
    lhs = rc.rate_theorem1(mu, P, 1, MARTINET_G / 2.0)
    rhs = math.log2(P * math.exp(-GAMMA)) - math.log2(2 * MARTINET_G / (math.pi * math.e))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_rate_theorem1_with_tower_constants():
    # with C_L = 23^{(n-1)/(10n)} G / 2 the rate collapses to
    # n (log(P/n) + (1/n) sum psi(i) / ln 2 + log(pi e / 2n) - log 23^{(1-1/n)/10} G)
    for n, P in ((2, 50.0), (3, 400.0)):
        mu = rc.expected_logdet_rayleigh(n, n)
        C_L = 23.0 ** ((n - 1) / (10.0 * n)) * MARTINET_G / 2.0
        lhs = rc.rate_theorem1(mu, P, n, C_L)
        rhs = n * (math.log2(P / n) + mu / n
                   + math.log2(math.pi * math.e / (2.0 * n))
                   - math.log2(23.0 ** ((1.0 - 1.0 / n) / 10.0) * MARTINET_G))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_rate_theorem1_ergodic_rearrangement():
    # mu + n(log P - log C_L + log pi e/4n^2)
    #   = (mu + n log(P/n)) - n log C_L + n log(pi e / 4n)
    n, n_r, P, C_L = 2, 3, 77.0, 5.0
    mu = rc.expected_logdet_rayleigh(n, n_r)
    lhs = rc.rate_theorem1(mu, P, n, C_L)
    e_logdet_scaled = mu + n * math.log2(P / n)
    rhs = e_logdet_scaled - n * math.log2(C_L) + n * math.log2(math.pi * math.e / (4.0 * n))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_rate_theorem2_value():
    # independent recomputation of the printed formula
    n, n_r, P, C_L = 2, 1, 100.0, 10.0
    mu = rc.expected_logdet_rayleigh(1, 2)  # E log det H H^dag for 1x2 H
    got = rc.rate_theorem2(mu, P, n, n_r, C_L)
    want = (mu + 1 * (math.log2(100.0) - 2.0) + 1 * math.log2(1.0)
            + 2 * math.log2(math.pi * math.e / (4.0 * 10.0)))
    assert got == pytest.approx(want, abs=1e-12)
    assert 1 * math.log2(1.0) == 0.0  # the (n - n_r) log(n - n_r) term


def test_rate_theorem2_domain():
    with pytest.raises(DomainError):
        rc.rate_theorem2(0.0, 10.0, 2, 2, 1.0)


def test_rate_slow_fading_identity_channel():
    # slow fading through the constant-channel path the rates command runs:
    # C_L = pi e / 4n makes the gap terms cancel, R = n log2(P/n)
    n = 2
    model = FadingModel(kind="constant", n=n, n_r=n)
    P = 40.0
    [rep] = rc.rate_report(model, [P], math.pi * math.e / (4.0 * n))
    assert rep.rate == pytest.approx(n * math.log2(P / n), abs=1e-12)


def test_slow_fading_gap_bounded():
    # C(P) - max(0, R(P)) <= C(P_min) along a power grid, for the fixed
    # block H as the rates command evaluates it (mu = log2 det of H's Gram)
    n = 2
    rng = np.random.default_rng(7)
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    model = FadingModel(kind="constant", n=n, n_r=n, fixed_H=H)
    C_L = 4.0
    grid = [10 ** (db / 10) for db in range(-10, 41, 2)]
    reps = rc.rate_report(model, grid, C_L)
    rates = [max(0.0, rep.rate) for rep in reps]
    p_min_idx = max(i for i, r in enumerate(rates) if r == 0.0)
    bound = reps[p_min_idx + 1].capacity
    for rep in reps:
        assert rep.gap <= bound + 1e-9


def test_ergodic_capacity_small_p():
    model = FadingModel(kind="iid_rayleigh", n=1, n_r=1)
    [(est, stderr)] = rc.ergodic_capacity_mc(model, [1e-6], 20000, seed=3)
    assert est < 1e-4


def test_ergodic_capacity_vs_quadrature():
    # E[log2(1 + P|h|^2)] by numerical integration of the exponential density
    P = 10.0
    val, _ = integrate.quad(lambda s: math.log2(1 + P * s) * math.exp(-s), 0, 60)
    model = FadingModel(kind="iid_rayleigh", n=1, n_r=1)
    [(est, stderr)] = rc.ergodic_capacity_mc(model, [P], 200000, seed=5)
    assert abs(est - val) <= 3 * stderr
    # closed form cross-check: e^{1/P} E_1(1/P) / ln 2
    closed = math.exp(1 / P) * special.exp1(1 / P) / LN2
    assert val == pytest.approx(closed, abs=1e-9)


def test_ergodic_capacity_high_snr_consistency():
    model = FadingModel(kind="iid_rayleigh", n=2, n_r=2)
    diffs = []
    powers = (10.0, 100.0, 1000.0)
    for P, (est, _) in zip(powers, rc.ergodic_capacity_mc(model, powers,
                                                          100000, seed=7)):
        approx = 2 * math.log2(P / 2) + rc.expected_logdet_rayleigh(2, 2)
        diffs.append(abs(est - approx))
    assert diffs[-1] < diffs[0]
    assert diffs[-1] < 0.05


def test_gauss_markov_capacity_matches_iid():
    # first-order statistics coincide, so the ergodic capacity agrees
    gm = FadingModel(kind="gauss_markov", n=1, n_r=1, rho=0.8)
    iid = FadingModel(kind="iid_rayleigh", n=1, n_r=1)
    [(est_gm, se_gm)] = rc.ergodic_capacity_mc(gm, [10.0], 60000, seed=9)
    [(est_iid, se_iid)] = rc.ergodic_capacity_mc(iid, [10.0], 60000, seed=11)
    assert abs(est_gm - est_iid) <= 3 * math.hypot(se_gm, se_iid)


@pytest.mark.parametrize("n, n_r, rho, samples", [
    (1, 1, 0.7, 20000), (1, 2, 0.3, 500), (2, 2, 0.95, 4000), (2, 3, 0.7, 100),
])
def test_stacked_gauss_markov_capacity_matches_per_chain_loop(n, n_r, rho,
                                                               samples):
    # the chains drawn in one stack, and once for all powers, give the
    # per-chain loop's bits at each power
    model = FadingModel(kind="gauss_markov", n=n, n_r=n_r, rho=rho)
    powers = (0.5, 10.0, 1e4)
    assert rc.ergodic_capacity_mc(model, powers, samples, seed=5) == [
        reference_gauss_markov_capacity(model, P, samples, seed=5)
        for P in powers]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_log2det_hpd_matches_slogdet(n):
    # the unpivoted elimination across a stack against LAPACK's pivoted LU,
    # on I + (P/n) H^dag H in the i.i.d. (samples, n, n) and the chains'
    # (chains, length, n, n) shapes, from far below to far above the noise
    H = complex_gaussian(philox(17, n), (1000, n, n))
    G = H.conj().swapaxes(-1, -2) @ H
    for P in np.logspace(-6, 12, 19):
        A = np.eye(n) + (P / n) * G
        for stack in (A, A.reshape(20, 50, n, n)):
            got = rc._log2det_hpd(stack)
            want = np.linalg.slogdet(stack)[1] / LN2
            assert got.shape == want.shape
            assert np.all(np.abs(got - want)
                          <= 1e-11 * np.maximum(1.0, np.abs(want))), P


def test_correlated_capacity_needs_eight_samples():
    # the chains are at least 8, each at least one block long
    gm = FadingModel(kind="gauss_markov", n=1, n_r=1, rho=0.5)
    with pytest.raises(DomainError, match="samples >= 8, not 7"):
        rc.ergodic_capacity_mc(gm, [10.0], 7, seed=1)
    assert len(rc.ergodic_capacity_mc(gm, [10.0], 8, seed=1)) == 1
    # at rho = 0 the blocks are i.i.d.: one stream, no chains
    iid = FadingModel(kind="gauss_markov", n=1, n_r=1, rho=0.0)
    assert len(rc.ergodic_capacity_mc(iid, [10.0], 3, seed=1)) == 1


# -- Chernoff machinery -------------------------------------------------------

def test_chernoff_evaluates_each_point_once(monkeypatch):
    # the residual check reads the gap that the next step compares, so the
    # reachability check near the pole and each of the 34 midpoints of this
    # solve are evaluated once
    calls, real = [], rc._vdelta_gap
    monkeypatch.setattr(rc, "_vdelta_gap", lambda n, n_r, v:
                        calls.append(v) or real(n, n_r, v))
    rc.chernoff(2, 2, 0.5)
    assert len(calls) == len(set(calls)) == 35


def test_vdelta_forced_point():
    # psi(1) - psi(1/2) = 2 ln 2 pins v at exactly 1/2
    v, _ = rc.chernoff(1, 1, 2.0 * math.log(2.0))
    assert v == pytest.approx(0.5, abs=1e-9)


def test_vdelta_residual_and_monotonicity():
    last = 0.0
    for delta in (0.05, 0.1, 0.3, 0.7, 1.5):
        v, _ = rc.chernoff(2, 3, delta)
        gap = sum(rc.digamma(l) - rc.digamma(l - v) for l in (2, 3))
        assert abs(gap - delta) < 1e-10
        assert v > last
        last = v


@pytest.mark.parametrize("delta", [1e-8, 1e-7, 9.99e-7])
def test_vdelta_refuses_delta_below_resolution(delta):
    # below 1e-6 nats the bisection's absolute residual and lgamma's
    # absolute accuracy near 1 swamp v and K (K < 0 at 1e-8)
    with pytest.raises(DomainError, match="resolution of 1e-6 nats"):
        rc.chernoff(1, 1, delta)


def test_vdelta_continuity_at_zero():
    # at the smallest delta, v and K follow their small-delta expansions
    # v = delta / T and K = delta^2 / (2 T), T = sum_l psi'(l)
    delta = 1e-6
    for n, n_r in ((1, 1), (2, 3)):
        T = sum(special.polygamma(1, l) for l in range(n_r - n + 1, n_r + 1))
        v, K = rc.chernoff(n, n_r, delta)
        assert v == pytest.approx(delta / T, rel=1e-4)
        assert K > 0.0
        assert K == pytest.approx(delta ** 2 / (2.0 * T), rel=2e-3)


def test_vdelta_unreachable():
    with pytest.raises(DomainError):
        rc.chernoff(1, 1, 1e13)


@pytest.mark.parametrize("delta", [0.0, -0.5, math.nan])
def test_vdelta_rejects_delta_not_positive(delta):
    with pytest.raises(DomainError):
        rc.chernoff(1, 1, delta)


@pytest.mark.parametrize("samples", [0, 1])
def test_capacity_mc_needs_two_samples(samples):
    model = FadingModel(kind="iid_rayleigh", n=1, n_r=1)
    with pytest.raises(DomainError):
        rc.ergodic_capacity_mc(model, [10.0], samples, seed=1)


def test_exponent_forced_point_value():
    # K = -(0.5 psi(0.5) + ln Gamma(0.5)) at the forced point
    _, K = rc.chernoff(1, 1, 2.0 * math.log(2.0))
    expect = -(0.5 * rc.digamma(0.5) + math.lgamma(0.5))
    assert K == pytest.approx(expect, abs=1e-9)
    assert K == pytest.approx(0.40939007, abs=1e-7)


def test_chernoff_bound_on_simulated_paths():
    # empirical P{mu - mean log det >= delta} <= exp(-k K) + 3 stderr
    n = n_r = 1
    delta = 0.4
    _, K = rc.chernoff(n, n_r, delta)
    k, paths = 60, 40000
    gen = philox(113, 0)
    e = gen.exponential(size=(paths, k))
    means = np.log(e).mean(axis=1)
    phat = float(np.mean(means < -GAMMA - delta))
    bound = math.exp(-k * K)
    stderr = math.sqrt(bound * (1 - bound) / paths)
    assert phat <= bound + 3 * stderr


def test_gap_strictly_decreasing_above_pmin():
    # ergodic Rayleigh SISO: C(P) - R(P) strictly decreasing past P_min
    mu = -GAMMA / LN2
    C_L = 2.0
    caps, rates = [], []
    for db in range(8, 41, 4):
        P = 10 ** (db / 10)
        val, _ = integrate.quad(lambda s: math.log2(1 + P * s) * math.exp(-s), 0, 80)
        caps.append(val)
        rates.append(rc.rate_theorem1(mu, P, 1, C_L))
    gaps = [c - max(0.0, r) for c, r in zip(caps, rates)]
    assert all(r > 0 for r in rates)
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_rate_report_fields():
    # C_L from the Martinet family: a value a genuine lattice family attains,
    # so the theorem rate stays below capacity
    model = FadingModel(kind="iid_rayleigh", n=1, n_r=1)
    [rep] = rc.rate_report(model, [100.0], C_L=MARTINET_G / 2, samples=20000,
                           seed=1)
    assert rep.gap >= 0.0
    assert rep.mu == pytest.approx(-GAMMA / LN2, abs=1e-12)


@pytest.mark.parametrize("kind, rho, iid", [
    ("iid_rayleigh", 0.0, True), ("gauss_markov", 0.0, True),
    ("gauss_markov", 0.9, False), ("constant", 0.0, False)])
def test_rate_report_exponent_needs_iid_rayleigh_blocks(kind, rho, iid):
    # v_delta and K come from (n, n_r, delta) alone, by the i.i.d. Rayleigh
    # law of the blocks: gauss_markov at rho = 0 draws exactly those
    model = FadingModel(kind=kind, n=1, n_r=1, rho=rho)
    if iid:
        assert rc.rayleigh_exponent(model, 0.3) == rc.chernoff(1, 1, 0.3)
    else:
        with pytest.raises(DomainError, match="i.i.d. Rayleigh blocks"):
            rc.rayleigh_exponent(model, 0.3)


@pytest.mark.parametrize("C_L", [math.nan, math.inf, 0.0, -1.0])
def test_rate_report_rejects_c_l_outside_open_half_line(C_L):
    model = FadingModel(kind="iid_rayleigh", n=1, n_r=1)
    with pytest.raises(DomainError, match="C_L"):
        rc.rate_report(model, [100.0], C_L=C_L, samples=100, seed=1)


def test_rate_report_singular_fixed_block_fails_the_rank_rule():
    # mu of a constant channel is the log-det statistic of its block, which
    # a rank-deficient block does not have
    H = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
    model = FadingModel(kind="constant", n=2, n_r=2, fixed_H=H)
    with pytest.raises(SingularChannel, match="numerically rank deficient"):
        rc.rate_report(model, [10.0], C_L=4.0)
