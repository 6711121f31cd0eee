"""Decoders for the multiblock channel: ML over a finite codebook, and naive
lattice decoding (closest point in the infinite shifted scaled lattice).
A lattice decision of the CLI searches H L at W / alpha, never a scaled
basis: a constant channel's residuals, at every SNR point, on the one
preparation of H L that the trial loop builds (`shared_fade_decodes_to`),
and a fading channel's on faded copies of the lattice's LLL basis
(`faded_decodes_to`).  No CLI command builds a `LatticeDecoder`, which
LLL-reduces alpha H B of its own at each alpha and is the tests' reference.
"""

from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .channel import check_full_rank
from .errors import BudgetExceeded, DomainError
from .lattice import (DEFAULT_BUDGET, PreparedCVP, _span_coords, fade_blocks,
                      realify)


@dataclass
class DecodeResult:
    """The decision of `LatticeDecoder.decode`, or those of `ml_decode` on a
    stack of words, one coordinate row, index and metric per word.
    `approximate` is read only by tests: it witnesses that a search cut off
    by its budget is reported as approximate, never as an exact decode (the
    rule by which the simulation scores such a search as an error and a
    budget hit)."""
    coords: Optional[list]      # lattice coordinates
    index: Optional[int]        # codeword index, None for lattice decoding
    metric: float               # sum_i ||Y_i - H_i Xhat_i||^2 of the decision
    nodes: int                  # enumeration / comparison effort
    approximate: bool = False   # True when the budget forced a Babai answer


def ml_decode(Y, H, codebook):
    """argmin over codewords of sum_i ||Y_i - H_i X_i||^2, ties broken by the
    lowest codeword index, for each received word of a stack Y (T, k, n_r,
    n) with its fade in the stack H: the result holds one coordinate row,
    index and metric per word, as arrays, and `nodes` counts the
    comparisons of the whole stack."""
    if len(codebook) == 0:
        raise ValueError("codebook is empty")
    Y = np.asarray(Y, dtype=complex)
    H = np.asarray(H, dtype=complex)
    diffs = Y[:, None] - H[:, None] @ codebook.matrices
    # at extreme power a far codeword's metric overflows to inf; the sent
    # word's is the noise energy, so the decision stands
    with np.errstate(over="ignore"):
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
        ys = _span_coords(self.prepared.Q, realify(W))
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


def shared_fade_decodes_to(prep, alpha, W, budget=DEFAULT_BUDGET):
    """`LatticeDecoder(H, alpha, lat).decodes_to(W)` for a stack of residuals
    W (T, k, n_r, n) that all share the one fade H (k, n_r, n), with no
    decoder: the searches run at W_t / alpha on `prep`, the faded lattice's
    LLL-reduced preparation `lat.faded_cvp(H)`, which the caller builds once
    per fade and shares across every alpha.  The caller checks the fade's
    rank (`check_full_rank`)."""
    ys = _span_coords(prep.Q, realify(W) / alpha)
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

