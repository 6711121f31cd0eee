"""Word-error-rate simulation drivers shared by the CLI and the test suite.

Trials are seed-split: trial t of a run with seed s draws its fade and noise
from independent Philox streams keyed by (s, t), never by the power, so runs
are reproducible and one trial loop serves a whole SNR grid, in chunks of
trials that change no output bit.

The loop is a chunk source with two readers.  Each chunk draws its fades,
and its noise only for ML's received words, and hands them to each reader.
The ML reader decodes one book at a time.  The lattice reader reads only
the trial's noise W, which every point shares: naive lattice decoding errs
exactly when some nonzero point of the faded lattice alpha H L is closer
to W than 0, whatever word was sent.  On a lattice with a certified
minimum determinant, a noise energy below a quarter of a bound on the
faded lattice's squared minimum distance proves the decision correct at 0
nodes (`certified`); without drawn noise the energy is read from the
noise's radius words.  The other trials gather across chunks, decided by
`decoder.lattice_decisions` on one stack of preparations for every point.
Chunks and batches are each sized by what they hold.
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

# Peak words of memory per word drawn by `rng._words`.
DRAW_WORDS = 6

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
    """Trials per search batch, and per chunk with ML: as many as keep
    within CHUNK_BYTES ten arrays of a trial's fade shape (a chunk's fades
    and noise, the rows of both the lattice reader holds, the full noise
    and received words it may draw, and the searched targets); with ML, one
    book of `books` (one per SNR point; None on the infinite lattice) at a
    time: its words, received words and differences to every codeword; per
    point, the searched targets' Python objects (span coordinates and their
    squares as lists, a threshold and an outcome: under 80 bytes per rank
    and 160 more, by tracemalloc); and on a fading channel the faded bases
    with their Q and R factors (about three real rank x 2 k n_r n arrays)
    and the R lists a walk builds on first read (about 40 rank^2 + 104 rank
    + 640 bytes), counted for every trial though `zero_path` decides most
    targets without them: at low SNR a batch walks nearly all.  So its peak
    does not hang on how many trials a point searches."""
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
    """Trials per certification chunk (a run without ML), as many as keep
    within CHUNK_BYTES what the chunk holds per trial, by tracemalloc: its
    stream row, path, key and energy, a certificate row per point, and the
    widest Philox draw in blocks of four: a fading channel's fade (two
    words per complex entry, also held), or the constant channel's noise
    radii (one per entry)."""
    entries = lat.k * model.n_r * lat.n
    fade = 0 if model.kind == "constant" else 2 * entries
    drawn = 4 * -(-max(fade, entries) // 4)
    words = fade + DRAW_WORDS * drawn + 16 + len(points)
    return max(1, CHUNK_BYTES // (8 * words))


def certified(lat, alpha, sv, d2):
    """Which trials the minimum-determinant bound proves correct: those with
    4 ||W_t||^2 < lam2 (1 - CERT_MARGIN), where lam2 = nk alpha^2
    det_min^{2/nk} prod det(H_i^dag H_i)^{1/nk} bounds ||H X||^2 for every
    nonzero X of alpha L (AM-GM over the nk eigenvalues of the faded
    blocks' Grams; the packing-radius argument).  The product of Gram
    determinants is that of the squared singular values `sv` (T, k, n) of
    each trial's fade, or (1, k, n) of a fade all trials share, and `d2`
    (T,) holds each trial's noise energy ||W_t||^2: with ML the float sum
    over the drawn noise, otherwise the sum -ln u1 over the noise's radius
    words, within a few ulps of that float sum
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
    """The lattice reader: certifies each chunk's trials at every SNR point
    and holds those some point leaves unproved, across chunks, until
    `capacity` are held: their stream rows, fades, rows of the noise their
    chunk drew, if any, and which points search each.  `flush` decides them
    all by one `lattice_decisions` call on one stack, a constant channel's
    one preparation `prep` or the batch's `lat.faded_stack`, every point
    searching one noise array, which it draws by one `transmit_stack` when
    no chunk drew it, bit for bit each chunk's own draw."""

    def __init__(self, lat, model, points, capacity, seed, budget, noiseless,
                 tallies):
        if model.n_r < model.n:
            # the faded infinite lattice is not discrete here; only ML applies
            raise DomainError("lattice decoding requires n_r >= n")
        self.lat, self.points, self.capacity = lat, points, capacity
        self.seed, self.budget, self.noiseless = seed, budget, noiseless
        self.tallies, self.shape = tallies, (lat.k, model.n_r, lat.n)
        self.shared, self.sv, self.prep = model.kind == "constant", None, None
        self.size, self.held = 0, []

    def read(self, streams, H, noise):
        """Certify a chunk's trials, with stream rows `streams`, fades H and
        the noise (T, k, n_r, n) the chunk drew or None, and gather those
        that some point searches.  The batch is flushed whenever it is full,
        so a chunk's trials may be decided in two batches."""
        lat = self.lat
        if self.prep is None:
            # a constant channel's trials share one fade and its preparation
            self.sv = channel.check_full_rank(H[:1] if self.shared else H)
            self.prep = lat.faded_cvp(H[0]) if self.shared else None
        if self.noiseless or lat.det_min is None:
            # no noise, or a certificate that reads no energy: none summed
            d2 = np.zeros(len(streams))
        elif noise is None:
            d2 = channel.noise_energies(self.seed, streams, self.shape)
        else:
            d2 = np.sum(np.abs(noise) ** 2, axis=(1, 2, 3))
        searched = np.stack([~certified(lat, alpha, self.sv, d2)
                             for alpha, _ in self.points], axis=1)
        at = np.flatnonzero(searched.any(axis=1))
        while len(at):
            if self.size == self.capacity:
                self.flush()
            take, at = np.split(at, [self.capacity - self.size])
            self.held.append((streams[take], H[take], searched[take],
                              None if noise is None else noise[take]))
            self.size += len(take)

    def flush(self):
        """Decide every trial the batch holds and empty it."""
        if not self.size:
            return
        lat, prep = self.lat, self.prep
        streams, H, masks, noise = zip(*self.held)
        H = np.concatenate(H)
        if noise[0] is None:    # the zero word's received words are the noise
            W = channel.transmit_stack(np.zeros((lat.k, lat.n, lat.n)), H,
                                       self.seed, np.concatenate(streams),
                                       self.noiseless)
        else:
            W = np.concatenate(noise)
        stack = (([prep] * self.size, prep.Q, prep.diag) if prep is not None
                 else lat.faded_stack(H))
        # point p searches the held trials of mask column p
        searches = [(alpha, rows, W[rows]) for (alpha, _), rows in
                    zip(self.points, map(np.flatnonzero,
                                         np.concatenate(masks).T))]
        results = lattice_decisions(*stack, searches, self.budget)
        for outcomes, tally in zip(results, self.tallies):
            for ok, nodes in outcomes:
                tally["lattice"][0] += not ok
                tally["lattice"][1] += nodes
                tally["lattice"][2] += ok is None
        self.size, self.held = 0, []


class _MLReader:
    """Sends each point's words, codewords of its book picked at random from
    the point's own stream, through a chunk's fades and noise and decodes
    them, one book at a time; it holds no trial between chunks."""

    def __init__(self, books, seed, tallies):
        self.books, self.tallies = books, tallies
        self.picks = [philox(seed, 0xC0) for _ in books]

    def read(self, streams, H, noise):
        for pick, book, tally in zip(self.picks, self.books, self.tallies):
            sent = pick.integers(len(book), size=len(streams))
            Y = channel.received(book.matrices[sent], H, noise)
            res = ml_decode(Y, H, book)
            tally["ml"][0] += int(np.count_nonzero(res.index != sent))
            tally["ml"][1] += res.nodes

    def flush(self):
        pass


def _trial_loop(lat, model, points, trials, seed, decoders, budget,
                noiseless):
    """At each SNR point (alpha, book) of `points`, send word X_t (a random
    codeword of `book`, from the point's own stream, or the zero point when
    `book` is None) through fade H_t and noise, and decode it with each of
    `decoders`.  The loop is the chunk source: it draws each chunk's fades,
    and with ML their noise, in one Philox pass, hands them to each reader
    (`_MLReader`, `_SearchBatch` for the lattice), and at the end has each
    flush what it holds.  With ML a chunk has `_chunk_trials` trials,
    without it `_certify_trials`.  A search that exhausts `budget` counts
    as an error (a conservative WER), a budget hit and `budget` nodes.
    Returns one {decoder: [errors, nodes, budget hits]} per point."""
    tallies = [{d: [0, 0, 0] for d in decoders} for _ in points]
    books = [book for _, book in points]
    capacity = _chunk_trials(lat, model, books, decoders)
    ml = "ml" in decoders
    readers = [_MLReader(books, seed, tallies)] if ml else []
    if "lattice" in decoders:
        readers.append(_SearchBatch(lat, model, points, capacity, seed,
                                    budget, noiseless, tallies))
    # without ML no word is picked: a lattice decision reads the noise alone
    chunk = capacity if ml else _certify_trials(lat, model, points)
    for start in range(0, trials, chunk):
        streams = np.arange(start, min(start + chunk, trials))[:, None]
        H, noise = channel.fades_and_noise(model, lat.k, seed, streams,
                                           noiseless or not ml)
        for reader in readers:
            reader.read(streams, H, noise)
    for reader in readers:
        reader.flush()
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
