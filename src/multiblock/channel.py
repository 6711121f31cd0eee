"""Fading-process sampling and the multiblock channel law Y_i = H_i X_i + W_i.

Sampling is pure given (model, seed): constant, i.i.d. Rayleigh, or a
Gauss-Markov chain H_i = rho H_{i-1} + sqrt(1 - rho^2) G_i, which is the
simplest stationary ergodic family with tunable memory.

A realization (a fade) is the complex array H_1..H_k of shape (k, n_r, n).
A seed is a path: an int s, or a tuple (s, *indices).  `sample_stack` and
`transmit_stack` serve a whole stack of paths (s, *indices) in one pass, as
the WER drivers do for a chunk of trials; each realization and each noise
draw is still the pure function of its own path, so `sample` and
`transmit` are those functions on a stack of one.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import complex_gaussian_streams

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
        n_r x n identity block.  A parameter the kind would not read is
        refused: fixed_H unless constant, a nonzero rho unless
        gauss_markov."""
        if self.kind not in KINDS:
            raise ValueError(f"unknown fading model {self.kind!r}")
        if self.n < 1 or self.n_r < 1:
            raise ValueError(f"n and n_r must be >= 1, not n = {self.n}, "
                             f"n_r = {self.n_r}")
        if self.fixed_H is not None and self.kind != "constant":
            raise ValueError(f"a fixed H applies only to the constant "
                             f"model, not {self.kind}")
        if self.kind == "constant" and self.fixed_H is None:
            object.__setattr__(self, "fixed_H",
                               np.eye(self.n_r, self.n, dtype=complex))
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if self.rho != 0.0 and self.kind != "gauss_markov":
            raise ValueError(f"rho applies only to the gauss_markov model, "
                             f"not {self.kind}")


def _path(seed):
    """Root seed and index tuple of a seed path."""
    if isinstance(seed, tuple):
        return seed[0], tuple(seed[1:])
    return seed, ()


def sample_stack(model, k, seed, streams):
    """Blocks H_1..H_k of the realizations at seed paths (seed, *s) for s in
    `streams`, stacked: shape (len(streams), k, n_r, n).  i.i.d. blocks are
    drawn in one call; Gauss-Markov runs its k-step recurrence on all
    realizations at once."""
    shape = (k, model.n_r, model.n)
    if model.kind == "constant":
        return np.broadcast_to(np.asarray(model.fixed_H, dtype=complex),
                               (len(streams),) + shape).copy()
    g = complex_gaussian_streams(seed, [(0x48, *s) for s in streams], shape)
    if model.kind == "iid_rayleigh" or model.rho == 0.0:
        return g
    blocks = np.empty_like(g)
    blocks[:, 0] = g[:, 0]
    scale = np.sqrt(1.0 - model.rho ** 2)
    for i in range(1, k):
        blocks[:, i] = model.rho * blocks[:, i - 1] + scale * g[:, i]
    return blocks


def sample(model, k, seed):
    """One realization H_1..H_k.  With the same seed path, gauss_markov at
    rho = 0 reproduces iid_rayleigh block for block.  Test-only: the one-path
    fade of the oracles against which `sample_stack`'s callers are checked."""
    if k < 1:
        raise ValueError("k must be >= 1")
    root, indices = _path(seed)
    return sample_stack(model, k, root, [indices])[0]


def transmit_stack(X, H, seed, streams, noiseless):
    """Y = H X + W for a stack of words X over a stack of fades H (both
    indexed by realization first), word s drawing its unit-variance circular
    symmetric noise at seed path (seed, *streams[s])."""
    Y = H @ np.asarray(X, dtype=complex)
    if not noiseless:
        Y = Y + complex_gaussian_streams(seed, [(0x57, *s) for s in streams],
                                         Y.shape[1:])
    return Y


def transmit(X, H, noise_seed, noiseless=False):
    """Y_i = H_i X_i + W_i for the fade H (k, n_r, n), with unit-variance
    circular symmetric noise.
    Test-only: the one-trial channel of the oracle `reference_trial_loop`,
    against which the chunked trial loop is checked bit for bit."""
    root, indices = _path(noise_seed)
    X = np.asarray(X, dtype=complex)
    return transmit_stack(X[None], H[None], root, [indices], noiseless)[0]


def logdet_statistic(H):
    """(1/k) sum_i log2 det of the Gram of each block of the fade H (H^dag H
    when n_r >= n, H H^dag otherwise).  Test-only witness of the ergodic
    log-determinant limit in which the paper writes its rates."""
    k, n_r, n = H.shape
    Hh = H.conj().swapaxes(1, 2)
    grams = Hh @ H if n_r >= n else H @ Hh
    signs, logdets = np.linalg.slogdet(grams)
    if np.any(signs <= 0) or not np.all(np.isfinite(logdets)):
        warnings.warn("singular fading block in logdet statistic", stacklevel=2)
        return -np.inf
    return float(np.sum(logdets) / np.log(2.0) / k)
