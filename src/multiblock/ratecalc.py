"""Special functions and the closed-form rate, capacity, gap and exponent
expressions for the multiblock scheme.

Conventions: capacity and rates are in bits per complex channel use; the
large-deviation machinery (v_delta, the exponent K) works in nats, matching
its defining equations, with conversions confined to the API boundary.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .errors import DomainError, PrecisionFailure
from .rng import complex_gaussian, philox

EULER_GAMMA = 0.5772156649015328606
LOG2 = math.log(2.0)


def digamma(x):
    """psi(x) for x > 0: recurrence up to x >= 8, then the asymptotic series.
    Absolute error below 1e-12."""
    if x <= 0:
        raise DomainError("digamma requires x > 0")
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = (-1.0 / 12.0 + inv2 * (1.0 / 120.0 + inv2 * (-1.0 / 252.0 + inv2 * (
        1.0 / 240.0 + inv2 * (-1.0 / 132.0 + inv2 * (691.0 / 32760.0
                                                     + inv2 * (-1.0 / 12.0)))))))
    return acc + math.log(x) - 0.5 / x + inv2 * series


def expected_logdet_rayleigh(n, n_r):
    """E[log2 det H^dag H] for an i.i.d. Rayleigh n_r x n block:
    sum of psi(j) for j = n_r - n + 1 .. n_r, in bits."""
    if not n_r >= n >= 1:
        raise DomainError("requires n_r >= n >= 1")
    return sum(digamma(j) for j in range(n_r - n + 1, n_r + 1)) / LOG2


def rate_theorem1(mu, P, n, C_L):
    """Achievable rate mu + n (log P - log C_L + log pi e / 4n^2), bits.
    mu is the log-det law-of-large-numbers constant in bits."""
    return mu + n * (math.log2(P) - math.log2(C_L)
                     + math.log2(math.pi * math.e / (4.0 * n * n)))


def rate_theorem2(mu, P, n, n_r, C_L):
    """Achievable rate for n_r < n:
    mu + n_r (log P - 2) + (n - n_r) log(n - n_r) + n log pi e / (n^2 C_L)."""
    if n_r >= n:
        raise DomainError("rate_theorem2 requires n_r < n")
    return (mu + n_r * (math.log2(P) - 2.0)
            + (n - n_r) * math.log2(n - n_r)
            + n * math.log2(math.pi * math.e / (n * n * C_L)))


def _theorem_rate(mu, P, n, n_r, C_L):
    """Theorem 1 when n_r >= n, else Theorem 2."""
    if n_r >= n:
        return rate_theorem1(mu, P, n, C_L)
    return rate_theorem2(mu, P, n, n_r, C_L)


def _smaller_gram(H):
    """The smaller Gram of each fade of a stack H (..., n_r, n), H^dag H or
    H H^dag: det(I_n + c H^dag H) = det(I_{n_r} + c H H^dag), and the larger
    matrix, of rank min(n, n_r), has condition number near c."""
    Hdag = H.conj().swapaxes(-1, -2)
    return H @ Hdag if H.shape[-2] < H.shape[-1] else Hdag @ H


def _log2det_hpd(A):
    """log2 det A for each Hermitian positive definite matrix of a stack
    (..., m, m): the sum of the logs of the pivots of one elimination
    without pivoting, run across the whole stack.  Each pivot of such a
    matrix is real and positive, and the elimination is backward stable."""
    logs = 0.0
    for _ in range(A.shape[-1]):
        piv = A[..., 0, 0].real
        logs = logs + np.log(piv)
        A = (A[..., 1:, 1:]
             - A[..., 1:, :1] / piv[..., None, None] * A[..., :1, 1:])
    return logs / LOG2


def ergodic_capacity_mc(model, powers, samples, seed):
    """Monte Carlo estimates of E[log2 det(I + (P/n) H^dag H)] under the
    stationary block law, one (estimate, standard error) per power P of
    `powers`.  The capacity reads the law only through its block marginal,
    CN(0, 1) entries for every sampled model (a Gauss-Markov chain keeps it
    at every rho), so each draws the same `samples` i.i.d. blocks on the
    stream (seed, 0xE7); a constant channel's fixed block is a stack of one,
    exact, with standard error 0, whatever `samples` says.  Each power
    scales the stack's smaller Gram (`_smaller_gram`) in turn."""
    if model.kind == "constant":
        G = _smaller_gram(model.fixed_H)[None]
    else:
        if samples < 2:
            raise DomainError("a standard error needs at least 2 samples")
        G = _smaller_gram(complex_gaussian(philox(seed, 0xE7),
                                           (samples, model.n_r, model.n)))
    eye = np.eye(G.shape[-1])
    estimates = []
    for P in powers:
        vals = _log2det_hpd(eye + (P / model.n) * G)
        stderr = (vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1
                  else 0.0)
        estimates.append((float(vals.mean()), float(stderr)))
    return estimates


def _vdelta_gap(n, n_r, v):
    return sum(digamma(l) - digamma(l - v) for l in range(n_r - n + 1, n_r + 1))


def chernoff(n, n_r, delta):
    """(v_delta, K): the tightest Chernoff tilt v solving
    delta = sum_l psi(l) - psi(l - v), delta in nats, by bisection on
    (0, n_r - n + 1) to a residual below 1e-10, and the large-deviation
    exponent K > 0 of P{ mean log det falls delta below its expectation }:
    K = -sum_j (v psi(j - v) - ln Gamma(j) + ln Gamma(j - v)) at that v.
    A delta below 1e-6 nats is refused: there the absolute residual, and
    lgamma's absolute accuracy near 1 in K, are no longer small beside v
    and K."""
    if not n_r >= n >= 1:
        raise DomainError("requires n_r >= n >= 1")
    if not delta > 0:
        raise DomainError(f"delta must be positive, not {delta}")
    if delta < 1e-6:
        raise DomainError(f"delta = {delta} nats is below the solver's "
                          f"resolution of 1e-6 nats")
    pole = n_r - n + 1
    hi = pole - 1e-12
    if _vdelta_gap(n, n_r, hi) < delta:
        raise DomainError(f"delta = {delta} not reachable below the pole at {pole}")
    lo = 0.0
    v = 0.5 * (lo + hi)
    gap = _vdelta_gap(n, n_r, v)
    for _ in range(200):
        if gap < delta:
            lo = v
        else:
            hi = v
        v = 0.5 * (lo + hi)
        gap = _vdelta_gap(n, n_r, v)
        if abs(gap - delta) < 1e-10:
            break
    if abs(gap - delta) >= 1e-10:
        raise DomainError("bisection failed to reach residual 1e-10")
    K = -sum(v * digamma(j - v) - math.lgamma(j) + math.lgamma(j - v)
             for j in range(pole, n_r + 1))
    return v, K


def rayleigh_exponent(model, delta):
    """chernoff's (v_delta, K) for the blocks of a fading model, which must
    have n_r >= n and be i.i.d. Rayleigh (iid_rayleigh, or gauss_markov at
    rho = 0): the exponent reads only (n, n_r, delta), by that law."""
    n, n_r = model.n, model.n_r
    if n_r < n:
        raise DomainError(f"delta applies only when n_r >= n, not n = {n}, "
                          f"n_r = {n_r}")
    if model.kind == "constant" or model.rho != 0.0:
        blocks = (model.kind if model.kind == "constant"
                  else f"{model.kind} at rho = {model.rho}")
        raise DomainError(f"delta applies only to i.i.d. Rayleigh blocks, "
                          f"not {blocks}")
    return chernoff(n, n_r, delta)


@dataclass
class RateReport:
    mu: float                   # bits
    capacity: float             # estimate C(P)
    capacity_stderr: float
    rate: float                 # applicable theorem rate, bits
    gap: float                  # C - max(0, rate)


def rate_report(model, powers, C_L, samples=20000, seed=0):
    """Capacity, achievable rate and gap at each power of `powers`: one
    RateReport per power, the capacities estimated from one draw of fades.
    mu is the log-det statistic of the fixed block for a constant channel
    (SingularChannel if it is rank deficient), else the Rayleigh closed
    form of the i.i.d. marginal that every sampled law shares; the rate is
    Theorem 1's when n_r >= n, else Theorem 2's.  A capacity estimate that
    is not finite raises PrecisionFailure."""
    for P in powers:
        if not 0 < P < math.inf:
            raise DomainError(f"power P must be finite and > 0, not {P}")
    if not 0 < C_L < math.inf:
        raise DomainError(f"C_L must be finite and > 0, not {C_L}")
    n, n_r = model.n, model.n_r
    # an estimate that overflows, or meets a zero pivot, is refused below,
    # not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        estimates = ergodic_capacity_mc(model, powers, samples, seed)
    if model.kind == "constant":
        mu = channel.logdet_statistic(model.fixed_H[None])
    else:   # the i.i.d. marginal; det(H H^dag) when n_r < n
        mu = expected_logdet_rayleigh(min(n, n_r), max(n, n_r))
    reports = []
    for P, (cap, stderr) in zip(powers, estimates):
        if not (math.isfinite(cap) and math.isfinite(stderr)):
            raise PrecisionFailure(f"capacity estimate at P = {P:g} is {cap} "
                                   f"with standard error {stderr}, not finite")
        rate = _theorem_rate(mu, P, n, n_r, C_L)
        reports.append(RateReport(mu=mu, capacity=cap, capacity_stderr=stderr,
                                  rate=rate, gap=cap - max(0.0, rate)))
    return reports
