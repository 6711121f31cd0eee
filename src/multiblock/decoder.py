"""Decoders for the multiblock channel: ML over a finite codebook, naive
lattice decoding (closest point in the infinite shifted scaled lattice), and
the per-block thin-QR reduction that maps an n_r > n system to square form.
Every lattice decision of the CLI searches an unscaled preparation: whether
a nonzero point of alpha H L is closer to the residual W than 0 is whether
one of H L is closer to W / alpha, so alpha divides the target and never
scales a basis.  A constant channel's residuals share the one LLL-reduced
preparation of the faded lattice H L (`shared_fade_decodes_to`), and a
fading channel's residuals each get a faded copy of the lattice's LLL basis
(`faded_decodes_to`).  No CLI command builds a `LatticeDecoder`, which
LLL-reduces alpha H B of its own at each alpha and is the tests' reference.
"""

from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .channel import check_full_rank
from .errors import BudgetExceeded, DomainError
from .lattice import DEFAULT_BUDGET, PreparedCVP, fade_blocks, realify


@dataclass
class DecodeResult:
    """One decision.  `approximate` is read only by tests: it witnesses that
    a search cut off by its budget is reported as approximate, never as an
    exact decode (the rule by which the simulation scores such a search as
    an error and a budget hit)."""
    coords: Optional[list]      # lattice coordinates, None for pure-ML results
    index: Optional[int]        # codeword index, None for lattice decoding
    metric: float               # sum_i ||Y_i - H_i Xhat_i||^2 of the decision
    nodes: int                  # enumeration / comparison effort
    approximate: bool = False   # True when the budget forced a Babai answer


def ml_decode(Y, H, codebook):
    """argmin over codewords of sum_i ||Y_i - H_i X_i||^2, ties broken by the
    lowest codeword index.  Y and H may also be stacks (T, k, n_r, n) of
    received words and their fades: the result then holds one coordinate
    row, index and metric per word, as arrays, and `nodes` counts the
    comparisons of the whole stack."""
    if len(codebook) == 0:
        raise ValueError("codebook is empty")
    Y = np.asarray(Y, dtype=complex)
    H = np.asarray(H, dtype=complex)
    if Y.ndim == 3:
        res = ml_decode(Y[None], H[None], codebook)
        return DecodeResult(coords=list(res.coords[0]), index=int(res.index[0]),
                            metric=float(res.metric[0]), nodes=len(codebook))
    diffs = Y[:, None] - H[:, None] @ codebook.matrices
    metrics = np.sum(np.abs(diffs) ** 2, axis=(2, 3, 4))
    idx = np.argmin(metrics, axis=1)
    return DecodeResult(coords=codebook.coords[idx], index=idx,
                        metric=metrics[np.arange(len(idx)), idx],
                        nodes=len(idx) * len(codebook))


class LatticeDecoder:
    """Naive lattice decoder for a fixed (H, alpha, L, shift): closest point
    of shift + alpha L to Y under the faded metric, LLL-reducing alpha H B.
    Test-only: the reference whose decisions `faded_decodes_to` and
    `shared_fade_decodes_to` reproduce, and the decoder of acceptance
    criterion 7; no CLI command builds one."""

    def __init__(self, H, alpha, lat, shift=None):
        H = np.asarray(H, dtype=complex)
        k, n_r, n = H.shape
        if n_r < n:
            # the faded infinite lattice is not discrete here; only ML applies
            raise DomainError("lattice decoding requires n_r >= n")
        check_full_rank(H)
        self.H = H
        self.alpha = alpha
        self.lat = lat
        self.shift = (np.zeros((k, n, n), dtype=complex) if shift is None
                      else np.asarray(shift, dtype=complex))
        self.prepared = PreparedCVP(realify(fade_blocks(H, alpha * lat.blocks)))

    def decode(self, Y, budget=DEFAULT_BUDGET):
        """The closest point of shift + alpha L to Y, as a DecodeResult.
        Test-only: it witnesses that decoding after the per-block QR
        reduction returns the same point (acceptance criterion 7), and it is
        the decoder whose error event `decodes_to` decides."""
        Y = np.asarray(Y, dtype=complex)
        target = realify(Y - self.H @ self.shift)
        metric, coords, nodes, exact = self.prepared.closest(target, budget)
        xhat = self.shift + self.alpha * self.lat.point(coords)
        direct = float(np.sum(np.abs(Y - self.H @ xhat) ** 2))
        return DecodeResult(coords=coords, index=None, metric=direct,
                            nodes=nodes, approximate=not exact)

    def decodes_to(self, W, budget=DEFAULT_BUDGET):
        """(ok, nodes) for each residual W_t = Y_t - H X_t of a stack W
        (T, k, n_r, n): ok iff decode(Y_t) returns X_t, which fails exactly
        when a nonzero point of alpha H L is strictly closer to W_t than 0
        (up to ties of measure zero).  A search that exhausts `budget` gives
        (None, budget).  Test-only witness of that error event: the
        reference decision against which `faded_decodes_to`,
        `shared_fade_decodes_to` and the trial loop are checked."""
        ys, _ = self.prepared.project(realify(W))
        return _decisions(repeat(self.prepared), ys, budget)


def faded_decodes_to(H, alpha, lat, W, budget=DEFAULT_BUDGET):
    """`LatticeDecoder.decodes_to` for a stack of residuals W (T, k, n_r, n),
    each with its own fade H_t of the stack H (T, k, n_r, n), with no
    decoder and no LLL per fade: one stacked QR factors the faded bases
    H_t (U B) of the lattice's own LLL basis U B, searched at W_t / alpha.
    The decision does not depend on the basis, so it is the decoder's; only
    the node counts differ.  The caller checks the fades' rank
    (`check_full_rank`); a zero or non-finite pivot of a faded basis still
    raises DegenerateLattice."""
    preps, ys = PreparedCVP.stack(realify(fade_blocks(H, lat.reduced_blocks)),
                                  realify(W) / alpha)
    return _decisions(preps, ys, budget)


def shared_fade_decodes_to(H, alpha, lat, W, budget=DEFAULT_BUDGET):
    """`LatticeDecoder(H, alpha, lat).decodes_to(W)` for a stack of residuals
    W (T, k, n_r, n) that all share the one fade H (k, n_r, n), with no
    decoder: the searches run at W_t / alpha on the faded lattice's
    LLL-reduced preparation, `lat.faded_cvp(H)`, built once per fade (for
    the n x n identity fade it is `lat.cvp`).  The caller checks the fade's
    rank (`check_full_rank`)."""
    prep = lat.faded_cvp(H)
    ys, _ = prep.project(realify(W) / alpha)
    return _decisions(repeat(prep), ys, budget)


def _decisions(preps, ys, budget):
    """(ok, nodes) per target, from the search of preparation t for a
    nonzero point closer than 0 to the target with span coordinates ys[t]."""
    out = []
    for prep, y in zip(preps, ys):
        try:
            found, nodes = prep.exists_closer(y, budget)
            out.append((not found, nodes))
        except BudgetExceeded:
            out.append((None, budget))
    return out


def qr_reduce(Y, H):
    """Per-block thin QR: H_i = Q_i' R_i' with R_i' upper triangular n x n and
    positive real diagonal; Y_i' = Q_i'^dag Y_i.  Distances to lattice points
    are preserved: ||H_i X|| = ||R_i' X||.  Test-only witness of the paper's
    n_r > n QR-reduction equivalence (acceptance criterion 7)."""
    Y = np.asarray(Y, dtype=complex)
    H = np.asarray(H, dtype=complex)
    k, n_r, n = H.shape
    if n_r <= n:
        raise ValueError("qr_reduce applies to n_r > n")
    check_full_rank(H)
    Yp = np.empty((k, n, Y.shape[2]), dtype=complex)
    Rp = np.empty((k, n, n), dtype=complex)
    for i in range(k):
        Q, R = np.linalg.qr(H[i], mode="reduced")
        phases = np.diag(R)
        u = phases / np.abs(phases)
        R = R * u.conj()[:, None]
        Q = Q * u[None, :]
        Rp[i] = R
        Yp[i] = Q.conj().T @ Y[i]
    return Yp, Rp


def mismatched_bound(H, X):
    """Lower bound sum_j lambda_j l_j <= ||H X||^2 with the eigenvalues of
    H^dag H ascending and those of X X^dag descending.  Test-only witness
    of the paper's mismatched eigenvalue bound (n_r < n allowed)."""
    H = np.asarray(H, dtype=complex)
    X = np.asarray(X, dtype=complex)
    lam = np.linalg.eigvalsh(H.conj().T @ H)
    lam = np.clip(lam, 0.0, None)                 # ascending
    ell = np.linalg.eigvalsh(X @ X.conj().T)[::-1]
    ell = np.clip(ell, 0.0, None)                 # descending
    return float(lam @ ell)
