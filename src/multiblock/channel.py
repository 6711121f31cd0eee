"""Fading-process sampling and the multiblock channel law Y_i = H_i X_i + W_i.

Sampling is pure given (model, seed): constant, i.i.d. Rayleigh, or a
Gauss-Markov chain H_i = rho H_{i-1} + sqrt(1 - rho^2) G_i, which is the
simplest stationary ergodic family with tunable memory.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import complex_gaussian, philox

KINDS = ("constant", "iid_rayleigh", "gauss_markov")


@dataclass(frozen=True)
class FadingModel:
    kind: str
    n: int
    n_r: int
    fixed_H: Optional[np.ndarray] = None   # (n_r, n), constant model only
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fading model {self.kind!r}")
        if self.kind == "constant" and self.fixed_H is None:
            raise ValueError("constant model needs fixed_H")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")


@dataclass(frozen=True)
class ChannelRealization:
    blocks: np.ndarray          # (k, n_r, n)
    model: FadingModel
    seed: object

    @property
    def k(self):
        return self.blocks.shape[0]


def _stream(seed, tag):
    if isinstance(seed, tuple):
        return philox(seed[0], tag, *seed[1:])
    return philox(seed, tag)


def sample(model, k, seed):
    """One realization H_1..H_k.  With the same seed path, gauss_markov at
    rho = 0 reproduces iid_rayleigh block for block."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if model.kind == "constant":
        blocks = np.broadcast_to(np.asarray(model.fixed_H, dtype=complex),
                                 (k, model.n_r, model.n)).copy()
    else:
        gen = _stream(seed, 0x48)
        g = complex_gaussian(gen, (k, model.n_r, model.n))
        if model.kind == "iid_rayleigh" or model.rho == 0.0:
            blocks = g
        else:
            blocks = np.empty_like(g)
            blocks[0] = g[0]
            scale = np.sqrt(1.0 - model.rho ** 2)
            for i in range(1, k):
                blocks[i] = model.rho * blocks[i - 1] + scale * g[i]
    return ChannelRealization(blocks=blocks, model=model, seed=seed)


def transmit(X, realization, noise_seed, noiseless=False):
    """Y_i = H_i X_i + W_i with unit-variance circular symmetric noise."""
    X = np.asarray(X, dtype=complex)
    H = realization.blocks
    Y = H @ X
    if not noiseless:
        gen = _stream(noise_seed, 0x57)
        Y = Y + complex_gaussian(gen, Y.shape)
    return Y


def logdet_statistic(realization):
    """(1/k) sum_i log2 det of the Gram of each block (H^dag H when
    n_r >= n, H H^dag otherwise).  Test-only witness of the ergodic
    log-determinant limit in which the paper writes its rates."""
    H = realization.blocks
    k, n_r, n = H.shape
    Hh = H.conj().swapaxes(1, 2)
    grams = Hh @ H if n_r >= n else H @ Hh
    signs, logdets = np.linalg.slogdet(grams)
    if np.any(signs <= 0) or not np.all(np.isfinite(logdets)):
        warnings.warn("singular fading block in logdet statistic", stacklevel=2)
        return -np.inf
    return float(np.sum(logdets) / np.log(2.0) / k)
