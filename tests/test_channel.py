import math

import numpy as np
import pytest
from scipy import stats

from multiblock.channel import (FadingModel, logdet_statistic, sample,
                               sample_stack, transmit, transmit_stack)
from multiblock.errors import SingularChannel
from multiblock.rng import complex_gaussian, philox

from oracles import reference_logdet_statistic

EULER_GAMMA = 0.5772156649015328606


def iid_model(n=1, n_r=1):
    return FadingModel(kind="iid_rayleigh", n=n, n_r=n_r)


def test_constant_model_repeats_block():
    H = np.array([[0.3 + 0.4j]])
    model = FadingModel(kind="constant", n=1, n_r=1, fixed_H=H)
    assert np.all(sample(model, 5, seed=0) == H[None, :, :])


def test_gauss_markov_rho0_matches_iid():
    gm = FadingModel(kind="gauss_markov", n=2, n_r=2, rho=0.0)
    iid = iid_model(2, 2)
    a = sample(gm, 7, seed=42)
    b = sample(iid, 7, seed=42)
    assert np.array_equal(a, b)


def test_seed_determinism():
    model = iid_model(2, 3)
    a = sample(model, 4, seed=5)
    b = sample(model, 4, seed=5)
    assert np.array_equal(a, b)
    c = sample(model, 4, seed=6)
    assert not np.array_equal(a, c)


def test_mean_frobenius_norm():
    model = iid_model(2, 2)
    H = sample(model, 100000, seed=7)
    vals = np.sum(np.abs(H) ** 2, axis=(1, 2))
    stderr = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 4.0) <= 3 * stderr


def test_blocks_full_rank():
    model = iid_model(2, 2)
    H = sample(model, 2000, seed=8)
    sv = np.linalg.svd(H, compute_uv=False)
    assert sv[:, -1].min() > 0


def test_transmit_noiseless_exact():
    model = iid_model(2, 2)
    H = sample(model, 3, seed=9)
    X = np.arange(12, dtype=float).reshape(3, 2, 2) + 0j
    Y = transmit(X, H, noise_seed=1, noiseless=True)
    assert np.array_equal(Y, H @ X)


def _noise_words(fade, seed, count, start=0):
    """transmit(0, fade, noise_seed=(seed, t)) for t = start, ...,
    start + count - 1, drawn as one stack: the same bits
    (test_stacks_carry_the_one_realization_bits)."""
    H = np.broadcast_to(fade, (count,) + fade.shape)
    X = np.zeros(H.shape[:2] + (H.shape[3],) * 2, dtype=complex)
    return transmit_stack(X, H, seed, [(t,) for t in range(start, start + count)],
                          False)


def test_noise_is_chi_square():
    # X = 0: 2||W||^2 ~ chi^2 with 2 k n n_r degrees of freedom
    k, n, n_r = 2, 2, 2
    model = iid_model(n, n_r)
    Y = _noise_words(sample(model, k, seed=10), 11, 10000)
    vals = 2.0 * np.sum(np.abs(Y) ** 2, axis=(1, 2, 3))
    res = stats.kstest(vals, stats.chi2(2 * k * n * n_r).cdf)
    assert res.pvalue > 0.01


def test_chi_square_tail_bound():
    # P{||W||^2/(k n^2) >= 1 + eps} <= 2 exp(-k n^2 eps^2 / 8)
    k, n, eps, trials = 8, 2, 0.5, 100000
    model = iid_model(n, n)
    H = sample(model, k, seed=12)
    m = k * n * n
    hits = 0
    for start in range(0, trials, 10000):
        Y = _noise_words(H, 13, 10000, start)
        hits += int(np.count_nonzero(np.sum(np.abs(Y) ** 2, axis=(1, 2, 3)) / m
                                     >= 1 + eps))
    assert hits / trials <= 2 * math.exp(-m * eps * eps / 8.0)


def test_logdet_statistic_identity():
    H = np.eye(2, dtype=complex)
    model = FadingModel(kind="constant", n=2, n_r=2, fixed_H=H)
    assert logdet_statistic(sample(model, 6, seed=0)) == pytest.approx(0.0, abs=1e-12)


def test_logdet_statistic_siso_digamma_limit():
    model = iid_model(1, 1)
    k = 10000
    stat = logdet_statistic(sample(model, k, seed=14))
    expect = -EULER_GAMMA / math.log(2.0)
    sigma = math.sqrt(math.pi ** 2 / 6.0) / math.log(2.0)  # sd of log2|h|^2
    assert abs(stat - expect) <= 3 * sigma / math.sqrt(k)


def test_gauss_markov_ergodic_limit_matches_iid():
    # averaged over independent chains, the correlated model has the same
    # log-determinant limit as the iid one
    model = FadingModel(kind="gauss_markov", n=1, n_r=1, rho=0.9)
    k, chains = 10000, 20
    stats_ = [logdet_statistic(sample(model, k, seed=(15, c))) for c in range(chains)]
    mean = np.mean(stats_)
    se = np.std(stats_, ddof=1) / math.sqrt(chains)
    expect = -EULER_GAMMA / math.log(2.0)
    assert abs(mean - expect) <= 3 * se


def test_gauss_markov_stationarity_probe():
    model = FadingModel(kind="gauss_markov", n=2, n_r=2, rho=0.7)
    first, mid = [], []
    for c in range(4000):
        H = sample(model, 9, seed=(16, c))
        first.append(np.sum(np.abs(H[0]) ** 2))
        mid.append(np.sum(np.abs(H[4]) ** 2))
    first, mid = np.array(first), np.array(mid)
    se = math.hypot(first.std(ddof=1), mid.std(ddof=1)) / math.sqrt(len(first))
    assert abs(first.mean() - mid.mean()) <= 3 * se


def test_logdet_statistic_singular_block_raises():
    H = np.zeros((1, 1), dtype=complex)
    model = FadingModel(kind="constant", n=1, n_r=1, fixed_H=H)
    with pytest.raises(SingularChannel, match="numerically rank deficient"):
        logdet_statistic(sample(model, 2, seed=0))


@pytest.mark.parametrize("n, n_r", [(1, 1), (2, 2), (2, 3), (1, 4), (3, 2),
                                    (4, 1)])
def test_logdet_statistic_matches_gram_slogdet(n, n_r):
    # 2 sum log2 sigma over the singular values is log2 det of the Gram
    # H^dag H (n_r >= n) or H H^dag (n_r < n), block by block
    for c in range(5):
        H = sample(iid_model(n, n_r), 7, seed=(31, n, n_r, c))
        assert logdet_statistic(H) == pytest.approx(
            reference_logdet_statistic(H), rel=1e-12)


def test_realization_reports_k():
    model = iid_model(1, 2)
    assert len(sample(model, 11, seed=3)) == 11


def test_model_validation():
    with pytest.raises(ValueError):
        FadingModel(kind="nonsense", n=1, n_r=1)
    # a constant model given no block sees the n_r x n identity
    assert np.array_equal(FadingModel(kind="constant", n=2, n_r=3).fixed_H,
                          np.eye(3, 2))
    with pytest.raises(ValueError):
        FadingModel(kind="gauss_markov", n=1, n_r=1, rho=1.0)
    # a parameter the kind would not read is refused, not ignored
    with pytest.raises(ValueError, match="only to the constant model"):
        FadingModel(kind="iid_rayleigh", n=1, n_r=1, fixed_H=np.eye(1))
    with pytest.raises(ValueError, match="only to the gauss_markov model"):
        FadingModel(kind="iid_rayleigh", n=1, n_r=1, rho=0.5)
    with pytest.raises(ValueError, match="only to the gauss_markov model"):
        FadingModel(kind="constant", n=1, n_r=1, rho=0.3)
    for n, n_r in [(1, 0), (1, -1), (0, 1), (-2, 2)]:
        with pytest.raises(ValueError, match="must be >= 1"):
            FadingModel(kind="iid_rayleigh", n=n, n_r=n_r)
    # a fixed H is an n_r x n block of finite entries
    for H in (np.eye(3), np.eye(2, 3), np.ones(4)):
        with pytest.raises(ValueError, match=r"needs \(n_r, n\) = \(2, 2\)"):
            FadingModel(kind="constant", n=2, n_r=2, fixed_H=H)
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        H = np.eye(2, dtype=complex)
        H[1, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            FadingModel(kind="constant", n=2, n_r=2, fixed_H=H)


@pytest.mark.parametrize("kind,rho", [("iid_rayleigh", 0.0),
                                      ("gauss_markov", 0.7)])
def test_stacks_carry_the_one_realization_bits(kind, rho):
    # each realization and received word of a stack has the bits of the
    # one-realization arithmetic on its own seed path
    model = FadingModel(kind=kind, n=2, n_r=3, rho=rho)
    k, seed = 4, 61
    streams = [(t,) for t in range(100, 140)]
    H = sample_stack(model, k, seed, streams)
    X = complex_gaussian(philox(62), (len(streams), k, 2, 2))
    Y = transmit_stack(X, H, seed, streams, False)
    for t, (s,) in enumerate(streams):
        g = complex_gaussian(philox(seed, 0x48, s), (k, 3, 2))
        blocks = g
        if rho:
            blocks = np.empty_like(g)
            blocks[0] = g[0]
            scale = np.sqrt(1.0 - rho ** 2)
            for i in range(1, k):
                blocks[i] = rho * blocks[i - 1] + scale * g[i]
        assert H[t].tobytes() == blocks.tobytes()
        y = blocks @ X[t] + complex_gaussian(philox(seed, 0x57, s), (k, 3, 2))
        assert Y[t].tobytes() == y.tobytes()
        fade = sample(model, k, (seed, s))
        assert fade.tobytes() == blocks.tobytes()
        assert transmit(X[t], fade, (seed, s)).tobytes() == y.tobytes()


@pytest.mark.parametrize("kind,rho", [("iid_rayleigh", 0.0),
                                      ("gauss_markov", 0.7),
                                      ("constant", 0.0)])
@pytest.mark.parametrize("streams", [[], np.zeros((0, 1), dtype=np.int64)],
                         ids=["list", "array"])
def test_no_streams_give_empty_stacks(kind, rho, streams):
    model = FadingModel(kind=kind, n=2, n_r=3, rho=rho)
    H = sample_stack(model, 4, 61, streams)
    assert H.shape == (0, 4, 3, 2) and H.dtype == complex
    for noiseless in (False, True):
        Y = transmit_stack(np.zeros((0, 4, 2, 2)), H, 61, streams, noiseless)
        assert Y.shape == (0, 4, 3, 2) and Y.dtype == complex
