"""Word-error-rate simulation drivers shared by the CLI and the test suite.

Trials are seed-split: trial t of a run with seed s draws its channel and
noise from independent Philox streams keyed by (s, t), so runs are
reproducible and trivially parallelizable.  Finite-codebook and
infinite-lattice runs share one trial loop.  It works in chunks of trials:
one numpy pass per chunk computes every trial's streams, channel, received
word and ML metrics, and on a fading channel one stacked QR prepares the
searches of all of the chunk's searched trials; only the lattice searches
run per trial.  Trial t's streams are still the pure function of (s, tag,
t), so the chunking changes no output bit.

Each lattice decision is read from the trial's residual W = Y - H X.  Naive
lattice decoding errs exactly when some nonzero point of the faded lattice
alpha H L is closer to W than 0, whatever the shift and the sent point.
Most decisions need no search at all.  When the lattice carries a certified
minimum determinant det_min, every nonzero X of alpha L has
||H X||^2 >= nk alpha^2 det_min^{2/nk} prod_i det(H_i^dag H_i)^{1/nk}
(AM-GM over the nk eigenvalues of the faded blocks' Grams), a lower bound
lam2 on the squared minimum distance of the faded lattice.  If 4 ||W||^2 <
lam2, no nonzero point is as close to W as 0 (the packing-radius argument),
so the decision is correct and costs 0 nodes.  Only the other trials are
searched.  No run builds a `LatticeDecoder`, and no search scales a basis:
a nonzero point of alpha H L is closer to W than 0 exactly when one of H L
is closer to W / alpha.  A constant channel's trials share the faded
lattice H L's one LLL-reduced preparation, built once per command and
searched at every alpha.  On a fading channel no trial gets an LLL of its
own: the search runs on the QR factor of the faded LLL basis of the
lattice, H (U B), since whether a nonzero point is closer to the target
than 0 does not depend on the basis (only the node count does).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .codebook import scaling_alpha
from .decoder import faded_decodes_to, ml_decode, shared_fade_decodes_to
from .errors import DomainError
from .lattice import DEFAULT_BUDGET
from .rng import philox

# Bound on the bytes of the arrays one chunk of trials holds, so memory does
# not grow with the trial count or the codebook size.
CHUNK_BYTES = 1 << 20

# Relative margin by which a certificate must hold: far above the float
# error of the residuals and singular values it is computed from.
CERT_MARGIN = 1e-9


@dataclass
class WERPoint:
    rate: float
    trials: int
    errors: int
    wer: float
    stderr: float
    avg_nodes: float
    decoder: str
    flag: str = ""


def _wer_stderr(errors, trials):
    p = errors / trials
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _chunk_trials(lat, model, book, decoders):
    """Trials per chunk: as many as keep the chunk's complex arrays (fades,
    words, received words, noise, the sent words' faded residuals and the
    searched trials' realified targets, plus the ML differences to every
    codeword) within CHUNK_BYTES, and on a fading channel also the searched
    trials' faded bases, each with its Q and R factors (about three real
    rank x 2 k n_r n arrays)."""
    words = 10 + (3 * len(book) if "ml" in decoders else 0)
    per_trial = 16 * lat.k * lat.n * max(lat.n, model.n_r) * words
    if "lattice" in decoders and model.kind != "constant":
        per_trial += 3 * 8 * lat.rank * 2 * lat.k * model.n_r * lat.n
    return max(1, CHUNK_BYTES // per_trial)


def certified(lat, alpha, sv, resid):
    """Which trials the minimum-determinant bound proves correct: those with
    4 ||W_t||^2 < lam2 (1 - CERT_MARGIN), where lam2 = nk alpha^2
    det_min^{2/nk} prod det(H_i^dag H_i)^{1/nk}.  The product of Gram
    determinants is that of the squared singular values `sv` (T, k, n) of
    each trial's fade, or (1, k, n) of a fade all trials share, and `resid`
    (T, k, n_r, n) holds each trial's residual W_t = Y_t - H X_t.  A lattice
    without a certified det_min proves nothing."""
    if lat.det_min is None:
        return np.zeros(len(resid), dtype=bool)
    nk = lat.n * lat.k
    lam2 = (nk * alpha ** 2 * lat.det_min ** (2.0 / nk)
            * np.exp(2.0 * np.mean(np.log(sv), axis=(1, 2))))
    d2 = np.sum(np.abs(resid) ** 2, axis=(1, 2, 3))
    return 4.0 * d2 < lam2 * (1.0 - CERT_MARGIN)


def _trial_loop(lat, model, alpha, book, trials, seed, decoders, budget,
                noiseless):
    """Send word X_t (a random codeword of `book`, or the zero point when
    `book` is None) through fade H_t and noise, and decode it with each of
    `decoders`.  The lattice decision reads only the residual W_t = Y_t -
    H_t X_t, formed once per chunk: a trial that `certified` proves correct
    costs 0 nodes, and every other residual is searched: on a constant
    channel on the one preparation of the faded lattice, on a fading
    channel by `faded_decodes_to`, one stacked preparation per chunk.  A
    search that exhausts `budget` counts as an error (a conservative WER),
    a budget hit and `budget` nodes.  Returns {decoder: [errors, nodes,
    budget hits]}."""
    tally = {d: [0, 0, 0] for d in decoders}
    if book is not None:
        pick = philox(seed, 0xC0)
    if "lattice" in decoders and model.n_r < model.n:
        # the faded infinite lattice is not discrete here; only ML applies
        raise DomainError("lattice decoding requires n_r >= n")
    chunk = _chunk_trials(lat, model, book, decoders)
    for start in range(0, trials, chunk):
        streams = np.arange(start, min(start + chunk, trials))[:, None]
        H = channel.sample_stack(model, lat.k, seed, streams)
        if book is None:
            words = np.zeros((len(streams), lat.k, lat.n, lat.n), dtype=complex)
        else:
            idx = pick.integers(len(book), size=len(streams))
            words = book.matrices[idx]
        Y = channel.transmit_stack(words, H, seed, streams, noiseless)
        if "ml" in decoders:
            res = ml_decode(Y, H, book)
            tally["ml"][0] += int(np.count_nonzero(res.index != idx))
            tally["ml"][1] += res.nodes
        if "lattice" in decoders:
            # a constant channel's trials share one fade
            shared = model.kind == "constant"
            sv = channel.check_full_rank(H[:1] if shared else H)
            W = Y - H @ words
            todo = np.flatnonzero(~certified(lat, alpha, sv, W))
            if shared:
                outcomes = shared_fade_decodes_to(H[0], alpha, lat, W[todo],
                                                  budget)
            else:
                outcomes = faded_decodes_to(H[todo], alpha, lat, W[todo],
                                            budget)
            for ok, nodes in outcomes:
                tally["lattice"][0] += not ok
                tally["lattice"][1] += nodes
                tally["lattice"][2] += ok is None
    return tally


def _points(R, trials, tally):
    return [WERPoint(rate=R, trials=trials, errors=errors,
                     wer=errors / trials, stderr=_wer_stderr(errors, trials),
                     avg_nodes=nodes / trials, decoder=d,
                     flag=f"budget_hits={hits}" if hits else "")
            for d, (errors, nodes, hits) in tally.items()]


def simulate_infinite_wer(lat, model, P, R, trials, seed, budget=DEFAULT_BUDGET,
                          noiseless=False):
    """Naive lattice decoding on the infinite scaled lattice: transmit the
    zero point with no shift (the error event is shift invariant) and count
    trials where the closest point moves.  Works at rates where a codebook
    would be intractably large."""
    alpha = scaling_alpha(P, R, lat.n, lat.k, lat.volume)
    tally = _trial_loop(lat, model, alpha, None, trials, seed, ("lattice",),
                        budget, noiseless)
    return _points(R, trials, tally)[0]


def simulate_codebook_wer(book, model, trials, seed, decoders=("ml", "lattice"),
                          budget=DEFAULT_BUDGET, noiseless=False):
    """Transmit random codewords of a finite codebook and decode with ML
    and/or naive lattice decoding.  A lattice decision outside the codebook
    counts as an error."""
    tally = _trial_loop(book.lattice, model, book.alpha, book, trials, seed,
                        decoders, budget, noiseless)
    return _points(book.realized_rate, trials, tally)
