"""Word-error-rate simulation drivers shared by the CLI and the test suite.

Trials are seed-split: trial t of a run with seed s draws its fade and noise
from independent Philox streams keyed by (s, t), never by the power, so runs
are reproducible and one trial loop serves a whole SNR grid, in chunks of
trials that change no output bit.

Each lattice decision reads only the trial's noise W, which every point
shares: naive lattice decoding errs exactly when some nonzero point of the
faded lattice alpha H L is closer to W than 0, whatever word was sent.
When the lattice carries a certified minimum determinant det_min, every
nonzero X of alpha L has ||H X||^2 >= lam2 = nk alpha^2 det_min^{2/nk}
prod_i det(H_i^dag H_i)^{1/nk} (AM-GM over the nk eigenvalues of the faded
blocks' Grams), so 4 ||W||^2 < lam2 proves the decision correct at 0 nodes
(the packing-radius argument).  A codebook chunk draws the noise with its
fades, as ML's received words need it; the infinite lattice's chunk draws
each trial's noise energy alone, from the noise's radius words.  The other
trials gather in a search batch across chunk boundaries, decided by
`decoder.lattice_decisions` on one stack of preparations for every point;
on the infinite lattice the batch first draws their full noise in one
pass, bit for bit each chunk's own draw.  Chunks and batches are each
sized by what they hold.
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
# error of the noise energies and singular values it is computed from.
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
    """Trials per search batch, and per codebook chunk: as many as keep
    within CHUNK_BYTES ten arrays of a trial's fade shape (a chunk's fades
    and noise, a batch's copies, its full noise and received words on the
    infinite lattice, and the searched targets); with ML, one book of
    `books` (one per SNR point; None on the infinite lattice) at a time:
    its words, received words and differences to every codeword; for each
    point, its searched targets' Python objects (span coordinates and their
    squares as lists, a threshold and an outcome: under 80 bytes per rank
    and 160 more, by tracemalloc); and on a fading channel the searched
    trials' faded bases with their Q and R factors (about three real rank x
    2 k n_r n arrays) and the R lists that a walk builds on a preparation's
    first read (about 40 rank^2 + 104 rank + 640 bytes).  A target that
    `zero_path` decides builds no lists, but those bytes are still counted
    for every trial: at low SNR a batch walks nearly all of its trials.  A
    batch is sized as one in which every point searches every trial, so its
    peak memory does not hang on how many a point searches."""
    words = 10
    if "ml" in decoders:
        words += 2 + 3 * max(map(len, books))
    per_trial = 16 * lat.k * lat.n * max(lat.n, model.n_r) * words
    if "lattice" in decoders:
        per_trial += len(books) * (80 * lat.rank + 160)
        if model.kind != "constant":
            per_trial += (3 * 8 * lat.rank * 2 * lat.k * model.n_r * lat.n
                          + 40 * lat.rank ** 2 + 104 * lat.rank + 640)
    return max(1, CHUNK_BYTES // per_trial)


def _certify_trials(lat, model, points):
    """Trials per certification chunk of the infinite path, as many as keep
    within CHUNK_BYTES what the chunk holds per trial, by tracemalloc: its
    stream row, path, key and energy, one certificate row per SNR point of
    `points`, and the temporaries of the widest Philox draw, about six
    words per word drawn, in blocks of four.  On a fading channel that is
    the fade's draw (two words per complex entry), and the chunk holds the
    fade too; a constant channel's trials share one fade, and its widest
    draw is the noise's radius words, one per entry."""
    entries = lat.k * model.n_r * lat.n
    fade = 0 if model.kind == "constant" else 2 * entries
    drawn = 4 * -(-max(fade, entries) // 4)
    words = fade + 6 * drawn + 16 + len(points)
    return max(1, CHUNK_BYTES // (8 * words))


def certified(lat, alpha, sv, d2):
    """Which trials the minimum-determinant bound proves correct: those with
    4 ||W_t||^2 < lam2 (1 - CERT_MARGIN), where lam2 = nk alpha^2
    det_min^{2/nk} prod det(H_i^dag H_i)^{1/nk}.  The product of Gram
    determinants is that of the squared singular values `sv` (T, k, n) of
    each trial's fade, or (1, k, n) of a fade all trials share, and `d2`
    (T,) holds each trial's noise energy ||W_t||^2: on a codebook the float
    sum over the drawn noise, on the infinite path the sum -ln u1 over the
    noise's radius words, within a few ulps of that float sum
    (`rng.gaussian_energies`), so far inside CERT_MARGIN that the bound
    stays sound for the W a search would read.  A lattice without a
    certified det_min proves nothing."""
    if lat.det_min is None:
        return np.zeros(len(d2), dtype=bool)
    nk = lat.n * lat.k
    # near 3080 dB the bound overflows to inf, which exceeds every finite
    # 4 ||W||^2 as the bound itself does
    with np.errstate(over="ignore"):
        lam2 = (nk * alpha ** 2 * lat.det_min ** (2.0 / nk)
                * np.exp(2.0 * np.mean(np.log(sv), axis=(1, 2))))
    return 4.0 * d2 < lam2 * (1.0 - CERT_MARGIN)


class _SearchBatch:
    """The trials that some SNR point leaves uncertified, gathered across
    chunks until `capacity` of them are held: their stream rows, fades and,
    on a codebook, the rows of the noise their chunk drew, and each point's
    rows in the batch.  `flush` decides them all by one `lattice_decisions`
    call on one stack, a constant channel's one preparation `prep` or the
    batch's `lat.faded_stack`, every point searching the one noise array;
    on the infinite lattice it first draws that noise by one
    `transmit_stack` on the batch's stream rows, bit for bit each chunk's
    own draw."""

    def __init__(self, lat, points, capacity, seed, budget, noiseless,
                 tallies):
        self.lat, self.points, self.capacity = lat, points, capacity
        self.seed, self.budget, self.noiseless = seed, budget, noiseless
        self.tallies, self.prep = tallies, None
        self._empty()

    def _empty(self):
        self.size, self.streams, self.fades, self.noise = 0, [], [], []
        self.rows = [[] for _ in self.points]

    def add(self, streams, H, todo, noise=None):
        """Gather the trials of a chunk, with stream rows `streams` and
        fades H, that some point searches: point p the chunk's trials
        todo[p].  A codebook chunk gives the noise (T, k, n_r, n) it drew.
        The batch is flushed whenever it is full, so a chunk's trials may
        be decided in two batches."""
        searched = np.zeros(len(streams), dtype=bool)
        searched[np.concatenate(todo)] = True
        at = np.flatnonzero(searched)
        place = np.cumsum(searched) - 1     # trial t's index in `at`
        done = 0
        while done < len(at):
            if self.size == self.capacity:
                self.flush()
            take = at[done:done + self.capacity - self.size]
            self.streams.append(streams[take])
            self.fades.append(H[take])
            if noise is not None:
                self.noise.append(noise[take])
            for rows, mine in zip(self.rows, todo):
                mine = mine[(mine >= take[0]) & (mine <= take[-1])]
                rows.append(self.size - done + place[mine])
            self.size += len(take)
            done += len(take)

    def flush(self):
        """Decide every trial the batch holds and empty it."""
        if not self.size:
            return
        lat, H = self.lat, np.concatenate(self.fades)
        if self.noise:
            W = np.concatenate(self.noise)
        else:       # the zero word's received words are the noise
            W = channel.transmit_stack(np.zeros((lat.k, lat.n, lat.n)), H,
                                       self.seed, np.concatenate(self.streams),
                                       self.noiseless)
        prep = self.prep
        stack = (([prep] * self.size, prep.Q, prep.diag) if prep is not None
                 else lat.faded_stack(H))
        searches = []
        for (alpha, _), rows in zip(self.points, self.rows):
            rows = np.concatenate(rows)
            searches.append((alpha, rows, W[rows]))
        results = lattice_decisions(*stack, searches, self.budget)
        for outcomes, tally in zip(results, self.tallies):
            for ok, nodes in outcomes:
                tally["lattice"][0] += not ok
                tally["lattice"][1] += nodes
                tally["lattice"][2] += ok is None
        self._empty()


def _trial_loop(lat, model, points, trials, seed, decoders, budget,
                noiseless):
    """At each SNR point (alpha, book) of `points`, send word X_t (a random
    codeword of `book`, or the zero point when `book` is None) through fade
    H_t and noise, and decode it with each of `decoders`.  A chunk draws its
    fades and checks their rank once for every point; a constant channel's
    fade is checked and prepared once.  Each point picks its words from its
    own stream.  The lattice decision reads only the trial's noise, which
    every point shares: a trial that `certified` proves correct at the
    point's alpha from the noise energy costs 0 nodes, and every point's
    other trials go to one `_SearchBatch`, which gathers them across chunk
    boundaries and decides the union of the trials it holds by one
    `lattice_decisions` call.  A codebook chunk, of `_chunk_trials` trials,
    draws every trial's fade and noise, which ML's received words need, in
    one Philox pass (`channel.fades_and_noise`); the certificate reads the
    energy of that noise and the batch keeps its searched rows.  On the
    infinite lattice a certification chunk, of `_certify_trials` trials,
    draws each trial's noise energy alone, from the noise's radius words,
    and the batch draws the full noise of the trials it holds; a run that
    searches no trial draws no full noise and asks no decision.  A search
    that exhausts `budget` counts as an error (a conservative WER), a
    budget hit and `budget` nodes.  Returns one {decoder: [errors, nodes,
    budget hits]} per point."""
    tallies = [{d: [0, 0, 0] for d in decoders} for _ in points]
    if "lattice" in decoders and model.n_r < model.n:
        # the faded infinite lattice is not discrete here; only ML applies
        raise DomainError("lattice decoding requires n_r >= n")
    books = [book for _, book in points]
    picks = [philox(seed, 0xC0) for book in books if book is not None]
    shared = model.kind == "constant"
    capacity = _chunk_trials(lat, model, books, decoders)
    chunk = capacity if picks else _certify_trials(lat, model, points)
    batch = _SearchBatch(lat, points, capacity, seed, budget, noiseless,
                         tallies)
    for start in range(0, trials, chunk):
        streams = np.arange(start, min(start + chunk, trials))[:, None]
        # the infinite path draws its noise later, trial by trial
        H, noise = channel.fades_and_noise(model, lat.k, seed, streams,
                                           noiseless or not picks)
        if "lattice" in decoders and not (shared and start):
            # a constant channel's trials share one fade and its preparation
            sv = channel.check_full_rank(H[:1] if shared else H)
            batch.prep = lat.faded_cvp(H[0]) if shared else None
        if "ml" in decoders:
            for pick, book, tally in zip(picks, books, tallies):
                sent = pick.integers(len(book), size=len(streams))
                Y = channel.received(book.matrices[sent], H, noise)
                res = ml_decode(Y, H, book)
                tally["ml"][0] += int(np.count_nonzero(res.index != sent))
                tally["ml"][1] += res.nodes
        if "lattice" not in decoders:
            continue
        if noiseless or lat.det_min is None:
            # no noise, or a certificate that reads no energy: none summed
            d2 = np.zeros(len(streams))
        elif picks:
            d2 = np.sum(np.abs(noise) ** 2, axis=(1, 2, 3))
        else:
            d2 = channel.noise_energies(seed, streams,
                                        (lat.k, model.n_r, lat.n))
        todo = [np.flatnonzero(~certified(lat, alpha, sv, d2))
                for alpha, _ in points]
        batch.add(streams, H, todo, noise)
    batch.flush()
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
