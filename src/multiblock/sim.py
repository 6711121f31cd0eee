"""Word-error-rate simulation drivers shared by the CLI and the test suite.

Trials are seed-split: trial t of a run with seed s draws its channel and
noise from independent Philox streams keyed by (s, t), so runs are
reproducible and trivially parallelizable.  Finite-codebook and
infinite-lattice runs share one trial loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .codebook import scaling_alpha
from .decoder import LatticeDecoder, ml_decode
from .errors import BudgetExceeded
from .lattice import DEFAULT_BUDGET
from .rng import philox


@dataclass
class WERPoint:
    P: float
    rate: float
    trials: int
    errors: int
    wer: float
    stderr: float
    avg_nodes: float
    decoder: str
    flag: str = ""

    @property
    def snr_db(self):
        return 10.0 * math.log10(self.P)


def _wer_stderr(errors, trials):
    p = errors / trials
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _trial_loop(lat, model, alpha, shift, book, trials, seed, decoders,
                budget, noiseless):
    """Send word t (a random codeword of `book`, or the zero point when
    `book` is None) through fade H_t and noise W_t, and decode it with each
    of `decoders`; a constant channel gets one lattice decoder for the run.
    A lattice search that exhausts `budget` counts as an error (a
    conservative WER), a budget hit and `budget` nodes.  Returns
    {decoder: [errors, nodes, budget hits]}."""
    tally = {d: [0, 0, 0] for d in decoders}
    if book is None:
        word = np.zeros((lat.k, lat.n, lat.n), dtype=complex)
        sent = [0] * lat.rank
    else:
        pick = philox(seed, 0xC0)
    real = dec = None
    for t in range(trials):
        if book is not None:
            idx = int(pick.integers(len(book)))
            word, sent = book.matrices[idx], list(book.coords[idx])
        if real is None or model.kind != "constant":
            real = channel.sample(model, lat.k, (seed, t))
            if "lattice" in decoders:
                dec = LatticeDecoder(real.blocks, alpha, lat, shift)
        y = channel.transmit(word, real, (seed, t), noiseless=noiseless)
        if "ml" in decoders:
            res = ml_decode(y, real.blocks, book)
            tally["ml"][0] += res.index != idx
            tally["ml"][1] += res.nodes
        if "lattice" in decoders:
            try:
                ok, nodes = dec.decodes_to(y, sent, budget)
            except BudgetExceeded:
                ok, nodes = False, budget
                tally["lattice"][2] += 1
            tally["lattice"][0] += not ok
            tally["lattice"][1] += nodes
    return tally


def _points(P, R, trials, tally):
    return [WERPoint(P=P, rate=R, trials=trials, errors=errors,
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
    tally = _trial_loop(lat, model, alpha, None, None, trials, seed,
                        ("lattice",), budget, noiseless)
    return _points(P, R, trials, tally)[0]


def simulate_codebook_wer(book, model, trials, seed, decoders=("ml", "lattice"),
                          budget=DEFAULT_BUDGET, noiseless=False):
    """Transmit random codewords of a finite codebook and decode with ML
    and/or naive lattice decoding.  A lattice decision outside the codebook
    counts as an error."""
    tally = _trial_loop(book.lattice, model, book.alpha, book.shift, book,
                        trials, seed, decoders, budget, noiseless)
    return _points(book.power, book.realized_rate, trials, tally)
