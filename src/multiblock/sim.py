"""Word-error-rate simulation drivers shared by the CLI and the test suite.

Trials are seed-split: trial t of a run with seed s draws its fade and noise
from independent Philox streams keyed by (s, t), never by the power, so runs
are reproducible and one trial loop serves a whole SNR grid.  It works in
chunks of trials: one numpy pass per chunk draws every trial's fade and
noise for all points, and per point forms the received words, ML metrics
and residuals; only the lattice searches run per trial, and the chunking
changes no output bit.  The infinite lattice sends the zero point, so its
residual is the noise: a chunk draws each trial's noise energy from the
noise's radius words, and the full noise only for the trials it searches.

Each lattice decision is read from the trial's residual W = Y - H X: naive
lattice decoding errs exactly when some nonzero point of the faded lattice
alpha H L is closer to W than 0.  When the lattice carries a certified
minimum determinant det_min, every nonzero X of alpha L has ||H X||^2 >=
lam2 = nk alpha^2 det_min^{2/nk} prod_i det(H_i^dag H_i)^{1/nk} (AM-GM over
the nk eigenvalues of the faded blocks' Grams), so 4 ||W||^2 < lam2 proves
the decision correct at 0 nodes (the packing-radius argument), and only
the other trials are searched, by `decoder.lattice_decisions` on one stack
of preparations per chunk for every point.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .codebook import scaling_alpha
from .decoder import lattice_decisions, ml_decode
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


def _chunk_trials(lat, model, books, decoders):
    """Trials per chunk: as many as keep within CHUNK_BYTES the fades, noise
    and searched targets; the words, received words and residuals of each of
    `books` (one per SNR point; None for the infinite lattice, whose points
    share them); one book's ML differences to every codeword at a time; and
    on a fading channel the searched trials' faded bases with their Q and R
    factors (about three real rank x 2 k n_r n arrays).  An infinite chunk
    holds less than it is sized for, each trial's noise radius words and
    energy and only its searched trials' complex noise, but it is sized as
    one holding every trial's noise, so its trials and its peak memory do
    not hang on how many a point searches."""
    words = 7 + 3 * (1 if books[0] is None else len(books))
    if "ml" in decoders:
        words += 3 * max(map(len, books))
    per_trial = 16 * lat.k * lat.n * max(lat.n, model.n_r) * words
    if "lattice" in decoders and model.kind != "constant":
        per_trial += 3 * 8 * lat.rank * 2 * lat.k * model.n_r * lat.n
    return max(1, CHUNK_BYTES // per_trial)


def certified(lat, alpha, sv, d2):
    """Which trials the minimum-determinant bound proves correct: those with
    4 ||W_t||^2 < lam2 (1 - CERT_MARGIN), where lam2 = nk alpha^2
    det_min^{2/nk} prod det(H_i^dag H_i)^{1/nk}.  The product of Gram
    determinants is that of the squared singular values `sv` (T, k, n) of
    each trial's fade, or (1, k, n) of a fade all trials share, and `d2`
    (T,) holds each trial's squared residual norm ||W_t||^2.  On the
    infinite path that is the noise energy sum -ln u1 over the noise's
    radius words, within a few ulps of the float sum |W|^2 of the drawn
    noise (`rng.gaussian_energies`), so far inside CERT_MARGIN that the
    bound stays sound for the W a search would read.  A lattice without a
    certified det_min proves nothing."""
    if lat.det_min is None:
        return np.zeros(len(d2), dtype=bool)
    nk = lat.n * lat.k
    lam2 = (nk * alpha ** 2 * lat.det_min ** (2.0 / nk)
            * np.exp(2.0 * np.mean(np.log(sv), axis=(1, 2))))
    return 4.0 * d2 < lam2 * (1.0 - CERT_MARGIN)


def _trial_loop(lat, model, points, trials, seed, decoders, budget,
                noiseless):
    """At each SNR point (alpha, book) of `points`, send word X_t (a random
    codeword of `book`, or the zero point when `book` is None) through fade
    H_t and noise, and decode it with each of `decoders`.  A chunk draws its
    fades and checks their rank once for every point; a constant channel's
    fade is checked and prepared once.  Each point picks its words from its
    own stream.  The lattice decision reads only the residual W_t = Y_t -
    H_t X_t: a trial that `certified` proves correct at the point's alpha
    from ||W_t||^2 costs 0 nodes, and the union of every point's other
    trials is searched by one `lattice_decisions` per chunk, on a constant
    channel's one preparation or a fading chunk's `lat.faded_stack`.  A
    codebook chunk draws every trial's noise, which its received words
    need.  On the infinite lattice W_t is the noise itself, shared by every
    point: a chunk draws each trial's noise energy alone, from the noise's
    radius words, and the full noise only for the searched trials, bit for
    bit the draw of the whole chunk.  A search that exhausts `budget`
    counts as an error (a conservative WER), a budget hit and `budget`
    nodes.  Returns one {decoder: [errors, nodes, budget hits]} per
    point."""
    tallies = [{d: [0, 0, 0] for d in decoders} for _ in points]
    if "lattice" in decoders and model.n_r < model.n:
        # the faded infinite lattice is not discrete here; only ML applies
        raise DomainError("lattice decoding requires n_r >= n")
    books = [book for _, book in points]
    picks = [philox(seed, 0xC0) for book in books if book is not None]
    # the infinite lattice's points all send the zero point
    zero = np.zeros((lat.k, lat.n, lat.n), dtype=complex)
    shared = model.kind == "constant"
    chunk = _chunk_trials(lat, model, books, decoders)
    for start in range(0, trials, chunk):
        streams = np.arange(start, min(start + chunk, trials))[:, None]
        H = channel.sample_stack(model, lat.k, seed, streams)
        if "lattice" in decoders and not (shared and start):
            # a constant channel's trials share one fade and its preparation
            sv = channel.check_full_rank(H[:1] if shared else H)
            prep = lat.faded_cvp(H[0]) if shared else None
        if picks:
            idx = [pick.integers(len(book), size=len(streams))
                   for pick, book in zip(picks, books)]
            words = np.stack([book.matrices[i] for book, i in zip(books, idx)])
            Y = channel.transmit_stack(words, H, seed, streams, noiseless)
        if "ml" in decoders:
            for p, (book, tally) in enumerate(zip(books, tallies)):
                res = ml_decode(Y[p], H, book)
                tally["ml"][0] += int(np.count_nonzero(res.index != idx[p]))
                tally["ml"][1] += res.nodes
        if "lattice" not in decoders:
            continue
        if picks:
            W = Y - H @ words
            d2 = np.sum(np.abs(W) ** 2, axis=(2, 3, 4))
        elif noiseless or lat.det_min is None:
            # W = 0, or a certificate that reads no energy: no radii drawn
            d2 = [np.zeros(len(streams))] * len(points)
        else:
            d2 = [channel.noise_energies(seed, streams,
                                         (lat.k, model.n_r, lat.n))
                  ] * len(points)
        todo = [np.flatnonzero(~certified(lat, alpha, sv, d2_p))
                for (alpha, _), d2_p in zip(points, d2)]
        searched = np.zeros(len(streams), dtype=bool)
        searched[np.concatenate(todo)] = True
        place = np.cumsum(searched) - 1     # trial t's index in the stack
        # the searched trials' residuals, in the stack's order
        if picks:
            W = W[:, searched]
        else:
            # the infinite lattice's residual is the noise, shared by every
            # point and drawn here only for the searched trials
            W = [channel.transmit_stack(zero, H[searched], seed,
                                        streams[searched], noiseless)
                 ] * len(points)
        # a constant channel's searched trials share its one preparation
        preps, Q = (([prep] * np.count_nonzero(searched), prep.Q) if shared
                    else lat.faded_stack(H[searched]))
        searches = [(alpha, place[rows], W_p[place[rows]])
                    for (alpha, _), rows, W_p in zip(points, todo, W)]
        results = lattice_decisions(preps, Q, searches, budget)
        for outcomes, tally in zip(results, tallies):
            for ok, nodes in outcomes:
                tally["lattice"][0] += not ok
                tally["lattice"][1] += nodes
                tally["lattice"][2] += ok is None
    return tallies


def _points(R, trials, tally):
    return [WERPoint(rate=R, trials=trials, errors=errors,
                     wer=errors / trials, stderr=_wer_stderr(errors, trials),
                     avg_nodes=nodes / trials, decoder=d,
                     flag=f"budget_hits={hits}" if hits else "")
            for d, (errors, nodes, hits) in tally.items()]


def simulate_infinite_wer(lat, model, powers, R, trials, seed,
                          budget=DEFAULT_BUDGET, noiseless=False):
    """Naive lattice decoding on the infinite scaled lattice at each power of
    `powers`: transmit the zero point with no shift (the error event is
    shift invariant) and count trials where the closest point moves.  Works
    at rates where a codebook would be intractably large.  Returns one
    WERPoint per power."""
    points = [(scaling_alpha(P, R, lat.n, lat.k, lat.volume), None)
              for P in powers]
    tallies = _trial_loop(lat, model, points, trials, seed, ("lattice",),
                          budget, noiseless)
    return [_points(R, trials, tally)[0] for tally in tallies]


def simulate_codebook_wer(books, model, trials, seed, decoders=("ml", "lattice"),
                          budget=DEFAULT_BUDGET, noiseless=False):
    """Transmit random codewords of each of the finite codebooks `books`
    (one per SNR point, all carved from one lattice) and decode with ML
    and/or naive lattice decoding.  A lattice decision outside the codebook
    counts as an error.  Returns one list of WERPoints per book."""
    tallies = _trial_loop(books[0].lattice, model,
                          [(book.alpha, book) for book in books], trials, seed,
                          decoders, budget, noiseless)
    return [_points(book.realized_rate, trials, tally)
            for book, tally in zip(books, tallies)]
