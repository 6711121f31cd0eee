"""Fading-process sampling and the multiblock channel law Y_i = H_i X_i + W_i.

Sampling is pure given (model, seed): constant, i.i.d. Rayleigh, or a
Gauss-Markov chain H_i = rho H_{i-1} + sqrt(1 - rho^2) G_i, which is the
simplest stationary ergodic family with tunable memory.

A realization (a fade) is the complex array H_1..H_k of shape (k, n_r, n).
A seed is a path: an int s, or a tuple (s, *indices).  `fades_and_noise`
and `noise` serve a whole stack of paths (s, *indices), the index rows of
an integer array, in one pass, for every SNR point: `fades_and_noise`
draws a chunk of trials' fades, and for ML their noise too, in one Philox
pass over the paths of both, and `noise` draws the noise W alone, of a
search batch.  Each realization and noise draw is the pure function of its
own path, so `sample` and `transmit` are those functions on a stack of
one.  `noise_energies` gives each path's noise energy ||W||^2 without
drawing the noise itself.  `check_full_rank` is the one rank rule for
fades, and `logdet_statistic` reads its singular values.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularChannel
from .rng import complex_gaussian_streams, gaussian_energies

KINDS = ("constant", "iid_rayleigh", "gauss_markov")


@dataclass(frozen=True)
class FadingModel:
    kind: str
    n: int
    n_r: int
    fixed_H: Optional[np.ndarray] = None   # (n_r, n), constant model only
    rho: float = 0.0

    def __post_init__(self):
        """Validate the model; a constant model given no fixed_H gets the
        n_r x n identity block, and a given one must be a finite n_r x n
        block (kept as a complex array).  A parameter the kind would not
        read is refused: fixed_H unless constant, a nonzero rho unless
        gauss_markov."""
        if self.kind not in KINDS:
            raise ValueError(f"unknown fading model {self.kind!r}")
        if self.n < 1 or self.n_r < 1:
            raise ValueError(f"n and n_r must be >= 1, not n = {self.n}, "
                             f"n_r = {self.n_r}")
        if self.fixed_H is not None and self.kind != "constant":
            raise ValueError(f"a fixed H applies only to the constant "
                             f"model, not {self.kind}")
        if self.kind == "constant":
            H = (np.eye(self.n_r, self.n, dtype=complex) if self.fixed_H is None
                 else np.asarray(self.fixed_H, dtype=complex))
            if H.shape != (self.n_r, self.n):
                raise ValueError(f"fixed H has shape {H.shape}; the channel "
                                 f"needs (n_r, n) = {(self.n_r, self.n)}")
            if not np.all(np.isfinite(H)):
                raise ValueError("fixed H entries must be finite")
            object.__setattr__(self, "fixed_H", H)
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if self.rho != 0.0 and self.kind != "gauss_markov":
            raise ValueError(f"rho applies only to the gauss_markov model, "
                             f"not {self.kind}")


def _path(seed):
    """Root seed and one-row index array of a seed path."""
    root, *indices = seed if isinstance(seed, tuple) else (seed,)
    if not indices:
        return root, np.zeros((1, 0), dtype=np.int64)
    return root, np.array([indices])


def _tagged(tag, streams):
    """The stream paths (tag, *s) for the rows s of `streams`."""
    streams = np.asarray(streams)
    if not len(streams):  # an empty list has no column axis to tag
        return np.zeros((0, 1), dtype=np.int64)
    return np.insert(streams, 0, tag, axis=1)


# the tags of the fade and the noise streams: trial path s draws its fade
# at (seed, 0x48, *s) and its noise at (seed, 0x57, *s)
_FADE, _NOISE = 0x48, 0x57


def fades_and_noise(model, k, seed, streams, noiseless):
    """(H, W): blocks H_1..H_k of the realizations at seed paths (seed, *s)
    for the rows s of `streams`, stacked: shape (len(streams), k, n_r, n),
    and the noise W of the same shape that `noise` draws at the same
    paths, bit for bit, or None if `noiseless`.  A constant model's stack
    is a read-only broadcast of its one block, with no copy per trial; a
    sampled model draws its blocks and the noise from one Philox pass over
    the paths of both tags (each stream is the pure function of its path);
    Gauss-Markov runs its k-step recurrence on all realizations at once."""
    shape, T = (k, model.n_r, model.n), len(streams)
    sampled = model.kind != "constant"
    paths = [_tagged(_FADE, streams)] if sampled else []
    if not noiseless:
        paths.append(_tagged(_NOISE, streams))
    g = (complex_gaussian_streams(seed, np.concatenate(paths), shape)
         if paths else None)
    # the noise rows come last
    W = None if noiseless else g[len(g) - T:]
    if not sampled:
        return np.broadcast_to(model.fixed_H, (T,) + shape), W
    g = g[:T]
    if model.kind == "iid_rayleigh" or model.rho == 0.0:
        return g, W
    blocks = np.empty_like(g)
    blocks[:, 0] = g[:, 0]
    scale = np.sqrt(1.0 - model.rho ** 2)
    for i in range(1, k):
        blocks[:, i] = model.rho * blocks[:, i - 1] + scale * g[:, i]
    return blocks, W


def sample(model, k, seed):
    """One realization H_1..H_k.  With the same seed path, gauss_markov at
    rho = 0 reproduces iid_rayleigh block for block.  Test-only: the one-path
    fade of the oracles against which `fades_and_noise`'s callers are
    checked."""
    if k < 1:
        raise ValueError("k must be >= 1")
    root, path = _path(seed)
    return fades_and_noise(model, k, root, path, True)[0][0]


def noise(seed, streams, shape):
    """The unit-variance circular symmetric noise W of shape (k, n_r, n) at
    seed path (seed, *s) for each row s of `streams`, stacked: shape
    (len(streams), k, n_r, n), bit for bit what `fades_and_noise` draws at
    the same paths."""
    return complex_gaussian_streams(seed, _tagged(_NOISE, streams), shape)


def noise_energies(seed, streams, shape):
    """||W||^2, the sum of squared moduli, of the noise of shape (k, n_r, n)
    that `noise` draws at seed path (seed, *s) for each row s of `streams`,
    as an array (len(streams),): read from the noise's radius words alone
    (`gaussian_energies`), to within a few ulps of the float sum over the
    drawn noise."""
    return gaussian_energies(seed, _tagged(_NOISE, streams), int(np.prod(shape)))


def transmit(X, H, noise_seed, noiseless=False):
    """Y_i = H_i X_i + W_i for the fade H (k, n_r, n), with unit-variance
    circular symmetric noise.
    Test-only: the one-trial channel of the oracle `reference_trial_loop`,
    against which the chunked trial loop is checked bit for bit."""
    Y = H @ np.asarray(X, dtype=complex)
    return Y if noiseless else Y + noise(*_path(noise_seed), H.shape)[0]


def check_full_rank(H):
    """Singular values, descending, of the blocks of one fade H (k, n_r, n)
    or of each fade of a stack (T, k, n_r, n).  SingularChannel if some
    block's smallest is at most 1e-12 times the largest of its fade, so the
    rule reads only the fade's conditioning, never its scale (an all-zero
    fade fails: 0 <= 0)."""
    sv = np.linalg.svd(H, compute_uv=False)
    peak = sv.max(axis=(-2, -1))
    if np.any(sv[..., -1] <= 1e-12 * peak[..., None]):
        raise SingularChannel("fading block numerically rank deficient")
    return sv


def logdet_statistic(H):
    """(1/k) sum_i log2 det of the Gram of each block of the fade H (H^dag H
    when n_r >= n, H H^dag otherwise), as 2 sum log2 sigma / k over the
    singular values of `check_full_rank`: the log-determinant statistic
    whose ergodic limit mu the paper writes its rates in.  SingularChannel
    for a rank-deficient block."""
    return float(2.0 * np.sum(np.log2(check_full_rank(H))) / len(H))
