"""Finite power-constrained codes carved from scaled, shifted lattices.

The scaling constant matches the ball-volume / covolume budget for the
target rate; the shift is found by randomized search (the averaging
argument guarantees existence of a good shift, not how to find one).
Since alpha^2 is proportional to P, the points of shift + alpha L in the
power ball B(sqrt(Pnk)) are alpha times those of u + L in B(sqrt(Pnk) /
alpha), a radius set by the rate alone: one shift search serves every SNR
point of a grid, and only the scaling, the exact power filter and the
truncation are per point.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, CarveFailed
from .lattice import DEFAULT_BUDGET, realify
from .rng import philox

log = logging.getLogger(__name__)

# a carved book keeps at most 2^(ceil(R n k) + TRUNCATE_MARGIN) codewords
TRUNCATE_MARGIN = 2


def log_c_nk(n, k):
    """ln C_{n,k} with C_{n,k} = (pi n k)^{n^2 k} / (n^2 k)!, in log space."""
    m = n * n * k
    return m * math.log(math.pi * n * k) - math.lgamma(m + 1)


def scaling_alpha(P, R, n, k, vol):
    """Scaling alpha with alpha^2 = C_{n,k}^{1/n^2k} P / (2^{R/n} vol^{1/n^2k})."""
    if not 0 < P < math.inf:
        raise ValueError(f"power P must be finite and > 0, not {P}")
    if min(n, k, vol) <= 0:
        raise ValueError("n, k, vol must be positive")
    if not 0 <= R < math.inf:
        raise ValueError(f"rate must be finite and >= 0, not {R}")
    m = n * n * k
    log_alpha2 = (log_c_nk(n, k) / m + math.log(P)
                  - (R / n) * math.log(2.0) - math.log(vol) / m)
    try:
        alpha = math.sqrt(math.exp(log_alpha2))
    except OverflowError:
        alpha = math.inf
    if not 0 < alpha < math.inf:
        raise ValueError(f"scaling alpha for P = {P:g} and R = {R:g} is not "
                         "a finite positive double")
    return alpha


@dataclass
class Codebook:
    """Power-constrained code: the points of B(sqrt(Pnk)) in shift + alpha L,
    stored both as matrices and as exact lattice coordinates."""

    lattice: object
    alpha: float
    shift: np.ndarray           # (k, n, n)
    rate_target: float
    power: float
    coords: np.ndarray          # (m, r) int
    matrices: np.ndarray = field(repr=False)  # (m, k, n, n)

    def __len__(self):
        return len(self.coords)

    @property
    def realized_rate(self):
        return math.log2(len(self.coords)) / (self.lattice.n * self.lattice.k)


def count_points_in_ball(lat, shift, radius, budget=DEFAULT_BUDGET):
    """Number of points of (shift + L) in the closed ball B(radius),
    together with their lattice coordinates and squared norms."""
    center = -realify(np.asarray(shift, dtype=complex))
    coords, metrics, _ = lat.cvp.ball(center, radius, budget)
    return len(coords), coords, metrics


def carve(lat, powers, R, trials, seed, budget=DEFAULT_BUDGET):
    """One code per power of the non-empty list `powers`, all from one
    search of `trials` uniform shifts u of the fundamental parallelotope of
    L for the one whose translate packs the most points (at least
    2^floor(R n k)) of the ball the powers share.  Returns, per power, its
    Codebook, or the CarveFailed of a point whose power filter left too few
    points.  A failure of the search itself fails every power alike and is
    raised."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, k = lat.n, lat.k
    # a ball of 2^floor(Rnk) points takes at least that many search nodes;
    # compare exponents, so that no huge power is ever formed.  This comes
    # before alpha, which underflows at such rates; a rate that is not
    # finite is scaling_alpha's to refuse
    if math.isfinite(R) and R * n * k >= int(budget).bit_length():
        raise BudgetExceeded(f"rate {R} asks for 2^floor({R * n * k:g}) "
                             f"codewords, more than {budget} nodes can find")
    alphas = [scaling_alpha(P, R, n, k, lat.volume) for P in powers]
    target = 2 ** math.floor(R * n * k)
    gen = philox(seed, 0xCA)

    # ||alpha (u + z B)|| <= sqrt(Pnk) iff ||u + z B|| <= sqrt(Pnk) / alpha,
    # and alpha^2 / P depends on the rate alone: the first point's radius is
    # every point's, up to rounding that the ball's closed slack absorbs
    radius = math.sqrt(powers[0] * n * k) / alphas[0]
    best = None
    for _ in range(trials):
        u = lat.point(gen.random(lat.rank))
        count, coords, _ = count_points_in_ball(lat, u, radius, budget)
        if best is None or count > best[0]:
            best = (count, u, coords)
    count, u, coords = best
    if count < target:
        raise CarveFailed(
            f"best shift packs {count} points, target {target}", best_count=count)
    points = lat.points(coords)
    return [_power_cut(lat, P, alpha, R, alpha * u, coords, points, target)
            for P, alpha in zip(powers, alphas)]


def _power_cut(lat, P, alpha, R, shift, coords, points, target):
    """The Codebook of the points shift + alpha z B of the searched ball
    that meet the power constraint exactly, truncated to the lowest-energy
    2^(ceil(R n k) + TRUNCATE_MARGIN); or the CarveFailed of fewer than
    `target` such points."""
    n, k = lat.n, lat.k
    mats = shift[None, :, :, :] + alpha * points
    # the power constraint is exact, no tolerance: drop boundary overshoot
    energies = np.sum(np.abs(mats) ** 2, axis=(1, 2, 3))
    keep = energies <= P * n * k
    coords, mats, energies = coords[keep], mats[keep], energies[keep]
    if len(coords) < target:
        return CarveFailed(
            f"power filter left {len(coords)} points, target {target}",
            best_count=int(len(coords)))

    cap = 2 ** (math.ceil(R * n * k) + TRUNCATE_MARGIN)
    if len(coords) > cap:
        log.info("truncating codebook from %d to %d lowest-energy codewords",
                 len(coords), cap)
        order = np.argsort(energies, kind="stable")[:cap]
        order = np.sort(order)
        coords, mats = coords[order], mats[order]

    return Codebook(lattice=lat, alpha=alpha, shift=shift, rate_target=R,
                    power=P, coords=coords, matrices=mats)


def _fmt_complex(z):
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _matrix_text(blocks):
    """k blocks of n x n as the rows of one n x nk matrix, one line each."""
    return "".join(" ".join(_fmt_complex(z) for z in row) + "\n"
                   for row in np.concatenate(blocks, axis=1))


def format_codebook(book):
    """The codebook in matrix text format: a key = value header, then the
    shift and each codeword as an n x nk matrix, stanzas split by blank
    lines."""
    lat = book.lattice
    head = (f"n = {lat.n}\nk = {lat.k}\nrank = {lat.rank}\n"
            f"alpha = {book.alpha!r}\nP = {book.power!r}\nR = {book.rate_target!r}\n"
            f"realized_rate = {book.realized_rate!r}\n")
    stanzas = [_matrix_text(book.shift)] + [_matrix_text(m) for m in book.matrices]
    return head + "".join("\n" + s for s in stanzas)
