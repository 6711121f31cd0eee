"""Decoders for the multiblock channel: ML over a finite codebook, and naive
lattice decoding (closest point in the infinite shifted scaled lattice).
One routine, `lattice_decisions`, makes every lattice decision of the CLI:
it searches H L at W / alpha, never a scaled basis, on the preparations
`lattice` builds (`MatrixLattice.faded_cvp` for a constant channel's one
fade, `faded_stack` for a fading search batch).  No CLI command builds a
`LatticeDecoder`, which LLL-reduces alpha H B of its own at each alpha and
is the tests' reference."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import check_full_rank
from .errors import BudgetExceeded, DomainError
from .lattice import (DEFAULT_BUDGET, PreparedCVP, _span_coords,
                      closer_thresholds, fade_blocks, realify, zero_path)


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
    Test-only: the reference whose decisions `lattice_decisions` reproduces
    on the trial loop's preparations, and the decoder of acceptance
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
        """(ok, nodes) for each trial's noise W_t = Y_t - H X_t of a stack W
        (T, k, n_r, n): ok iff decode(Y_t) returns X_t, which fails exactly
        when a nonzero point of alpha H L is strictly closer to W_t than 0
        (up to ties of measure zero).  A search that exhausts `budget` gives
        (None, budget).  Test-only witness of that error event: the
        reference decision, on this decoder's own preparation of alpha H L,
        against which the trial loop's preparations are checked."""
        prep = self.prepared
        return lattice_decisions([prep] * len(W), prep.Q, prep.diag,
                                 [(1.0, np.arange(len(W)), W)], budget)[0]


def lattice_decisions(preps, Q, diag, searches, budget=DEFAULT_BUDGET):
    """`LatticeDecoder.decodes_to` at several SNR points on one stack of
    preparations of faded lattices H_t L, `preps`, whose Q factors and R
    diagonals are the stacks `Q` (U, dim, rank) and `diag` (U, rank), or
    the one Q (dim, rank) and diagonal (rank,) they all share.  Each search
    (alpha, at, W) is a point's: the noise W of the trials at stack
    indices `at`, searched at W / alpha and scattered into the stack's
    order, so the span coordinates are read with no copy of Q.  One
    `zero_path` pass over every point's targets decides those whose walk
    would be the zero path; each other target is walked by
    `exists_closer`, under the threshold computed once for both.  The
    decision does not depend on the basis (Agrell et al. 2002), only the
    node counts do.  Returns one list of (ok, nodes) per search.  The
    caller checks the fades' rank (`check_full_rank`)."""
    ys = []
    for alpha, at, W in searches:
        t = np.zeros((len(preps), Q.shape[-2]))
        t[at] = realify(W) / alpha
        ys.append(_span_coords(Q, t)[at])
    Y = np.concatenate(ys)
    rows = np.concatenate([at for _, at, _ in searches])
    thr = closer_thresholds(Y)
    decided = zero_path(Y, diag if diag.ndim == 1 else diag[rows], thr,
                        budget)
    zero_nodes = 2 * Y.shape[1] - 1
    outcomes = []
    for i, y, th, done in zip(rows.tolist(), Y, thr, decided.tolist()):
        if done:
            outcomes.append((True, zero_nodes))
            continue
        try:
            found, nodes = preps[i].exists_closer(y, th, budget)
            outcomes.append((not found, nodes))
        except BudgetExceeded:
            outcomes.append((None, budget))
    out, start = [], 0
    for y in ys:
        out.append(outcomes[start:start + len(y)])
        start += len(y)
    return out
