import math
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiblock import channel, decoder, lattice, rng, sim
from multiblock.catalog import load_catalog
from multiblock.channel import FadingModel, check_full_rank
from multiblock.cli import main
from multiblock.codebook import carve, scaling_alpha
from multiblock.cyclic_algebra import CyclicAlgebra, NaturalOrder, order_lattice
from multiblock.decoder import LatticeDecoder, lattice_decisions
from multiblock.errors import BudgetExceeded
from multiblock.lattice import (DEFAULT_BUDGET, MatrixLattice, PreparedCVP,
                                _span_coords, field_lattice, min_pdet, realify)
from multiblock.rng import complex_gaussian, philox
from multiblock.sim import simulate_codebook_wer, simulate_infinite_wer

from oracles import reference_trial_loop


def test_lemma4_minimum_distance_bound(golden_lattice):
    # received-constellation min distance respects
    # d_H^2 >= alpha^2 n k prod det(H_i^dag H_i)^{1/nk}
    [book] = carve(golden_lattice, [10 ** 1.4], 0.75, trials=4, seed=21)
    n, k = 2, 1
    diffs = book.matrices[:, None] - book.matrices[None, :]
    for t in range(20):
        H = complex_gaussian(philox(220, t), (k, 3, n))
        hd = np.einsum("irc,abicd->abird", H, diffs)
        d2 = np.sum(np.abs(hd) ** 2, axis=(2, 3, 4))
        d2[np.arange(len(book)), np.arange(len(book))] = np.inf
        d_min2 = float(d2.min())
        grams = H.conj().swapaxes(1, 2) @ H
        prod = float(np.prod(np.linalg.det(grams).real))
        bound = book.alpha ** 2 * n * k * prod ** (1.0 / (n * k))
        assert d_min2 >= bound - 1e-6


def test_noiseless_wer_zero(qi_lattice):
    model = FadingModel(kind="constant", n=1, n_r=1,
                        fixed_H=np.eye(1, dtype=complex))
    [book] = carve(qi_lattice, [10.0], 1.0, trials=4, seed=2)
    [pts] = simulate_codebook_wer([book], model, 100, seed=3, noiseless=True)
    assert all(p.wer == 0.0 for p in pts)


def test_rate_above_capacity_does_not_converge(catalog):
    # converse sanity: doubling k at a rate above white-input capacity
    # leaves the error probability high
    from multiblock.lattice import field_lattice
    model = FadingModel(kind="constant", n=1, n_r=1,
                        fixed_H=np.eye(1, dtype=complex))
    P = 10.0
    rate = math.log2(1 + P) + 1.0
    wers = []
    for fname in ("cyclo8", "cyclo16"):
        lat = field_lattice(catalog.field(fname))
        [pt] = simulate_infinite_wer(lat, model, [P], rate, trials=400,
                                     seed=11)
        wers.append(pt.wer)
    assert min(wers) > 0.3


def test_iid_model_wer_runs(qi_lattice):
    model = FadingModel(kind="iid_rayleigh", n=1, n_r=2)
    [book] = carve(qi_lattice, [10.0], 1.0, trials=4, seed=5)
    [pts] = simulate_codebook_wer([book], model, 50, seed=7)
    assert {p.decoder for p in pts} == {"ml", "lattice"}
    for p in pts:
        assert 0.0 <= p.wer <= 1.0
        assert p.avg_nodes > 0


def test_multiblock_algebra_end_to_end(zeta20_lattice):
    # genuinely multiblock shape: k = 2 blocks of 2x2, rank-16 order lattice,
    # carved and decoded over an iid Rayleigh 2x2 channel
    [book] = carve(zeta20_lattice, [10 ** 1.8], 0.5, trials=64, seed=11)
    assert book.realized_rate >= 0.5
    model = FadingModel(kind="iid_rayleigh", n=2, n_r=2)
    [pts] = simulate_codebook_wer([book], model, 30, seed=13)
    for p in pts:
        assert p.wer <= 0.2  # comfortable SNR


def test_seed_reproducibility(qi_lattice):
    model = FadingModel(kind="iid_rayleigh", n=1, n_r=1)
    a = simulate_infinite_wer(qi_lattice, model, [10.0, 30.0], 1.0, 200,
                              seed=13)
    b = simulate_infinite_wer(qi_lattice, model, [10.0, 30.0], 1.0, 200,
                              seed=13)
    assert a == b


def test_budget_hit_counts_as_lattice_error(golden_lattice):
    # a search cut off by the node budget cannot certify the word: it is
    # scored as a lattice word error and reported in the flag, and the run
    # goes on
    [book] = carve(golden_lattice, [10 ** 0.8], 1.0, trials=16, seed=7)
    model = FadingModel(kind="iid_rayleigh", n=2, n_r=2)
    [(ml_full, lat_full)] = simulate_codebook_wer([book], model, 40, seed=7)
    assert lat_full.flag == ""
    for budget in (5, 16):
        [(ml_cut, lat_cut)] = simulate_codebook_wer([book], model, 40, seed=7,
                                                    budget=budget)
        assert ml_cut == ml_full
        assert lat_cut.flag.startswith("budget_hits=")
        hits = int(lat_cut.flag.split("=")[1])
        assert 0 < hits <= lat_cut.errors <= hits + lat_full.errors


# -- the chunked grid loop against the one-trial-at-a-time reference ---------

SHEARED_H = np.array([[1, 50], [0, 1]], dtype=complex)

LOOP_CASES = {
    # name: (lattice, model, SNR grid in dB, rate, decoders, budget,
    #        noiseless, infinite)
    "constant_both": ("q_omega", FadingModel(kind="constant", n=1, n_r=1,
                                             fixed_H=np.eye(1, dtype=complex)),
                      (6, 10), 1.5, ("ml", "lattice"), DEFAULT_BUDGET, False,
                      False),
    "iid_nr_above_n_both": ("q_i", FadingModel(kind="iid_rayleigh", n=1, n_r=2),
                            (4, 8, 12), 1.0, ("ml", "lattice"), DEFAULT_BUDGET,
                            False, False),
    "gauss_markov_rho0_ml": ("cyclo8", FadingModel(kind="gauss_markov", n=1,
                                                   n_r=1, rho=0.0),
                             (8, 14), 1.0, ("ml",), DEFAULT_BUDGET, False,
                             False),
    "gauss_markov_rho07_both": ("cyclo8", FadingModel(kind="gauss_markov", n=1,
                                                      n_r=2, rho=0.7),
                                (2, 6, 10), 1.0, ("ml", "lattice"),
                                DEFAULT_BUDGET, False, False),
    "golden_sheared_constant_both": ("golden",
                                     FadingModel(kind="constant", n=2, n_r=2,
                                                 fixed_H=SHEARED_H),
                                     (8, 12), 1.0, ("ml", "lattice"),
                                     DEFAULT_BUDGET, False, False),
    "golden_iid_lattice_budget": ("golden", FadingModel(kind="iid_rayleigh",
                                                        n=2, n_r=2),
                                  (4, 8), 1.0, ("lattice",), 16, False, False),
    "golden_iid_noiseless": ("golden", FadingModel(kind="iid_rayleigh", n=2,
                                                   n_r=2),
                             (8, 16), 1.0, ("ml", "lattice"), DEFAULT_BUDGET,
                             True, False),
    "infinite_constant": ("cyclo8", FadingModel(kind="constant", n=1, n_r=1,
                                                fixed_H=np.eye(1, dtype=complex)),
                          (6, 10, 14), 2.0, ("lattice",), DEFAULT_BUDGET,
                          False, True),
    "infinite_cyclo32_constant": ("cyclo32",
                                  FadingModel(kind="constant", n=1, n_r=1,
                                              fixed_H=np.eye(1, dtype=complex)),
                                  (12, 16), 3.74, ("lattice",), DEFAULT_BUDGET,
                                  False, True),
    "infinite_gauss_markov_budget": ("cyclo8",
                                     FadingModel(kind="gauss_markov", n=1,
                                                 n_r=1, rho=0.7),
                                     (8, 12, 16), 1.0, ("lattice",), 8, False,
                                     True),
}


def _lattice(catalog, name):
    if name in catalog.fields:
        return field_lattice(catalog.field(name))
    return order_lattice(NaturalOrder(catalog.algebra(name)))


def _recording_searches(monkeypatch):
    """Record, per lattice search, the bits of its target's span coordinates
    and its outcome."""
    log = []
    search = PreparedCVP.exists_closer

    def recording(self, y, budget=DEFAULT_BUDGET):
        entry = [np.asarray(y).tobytes()]
        log.append(entry)
        try:
            found, nodes = search(self, y, budget)
        except BudgetExceeded:
            entry.append("budget exceeded")
            raise
        entry.append((found, nodes))
        return found, nodes

    monkeypatch.setattr(PreparedCVP, "exists_closer", recording)
    return log


def _recording_certificates(monkeypatch, searches):
    """Record, per certificate (one per chunk and SNR point), which trials
    it proved correct, and how many searches the log `searches` held when
    it was asked."""
    masks = []
    prove = sim.certified

    def recording(*args):
        mask = prove(*args)
        masks.append((mask, len(searches)))
        return mask

    monkeypatch.setattr(sim, "certified", recording)
    return masks


@pytest.mark.parametrize("chunk_trials", [1, 20])
@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_chunked_loop_matches_reference_trial_by_trial(catalog, monkeypatch,
                                                       case, chunk_trials):
    # one run over the whole SNR grid tallies each point as the one-trial-
    # at-a-time reference run at that point alone
    name, model, grid, rate, decoders, budget, noiseless, infinite = \
        LOOP_CASES[case]
    lat = _lattice(catalog, name)
    powers = [10.0 ** (snr_db / 10.0) for snr_db in grid]
    if infinite:
        points = [(scaling_alpha(P, rate, lat.n, lat.k, lat.volume), None)
                  for P in powers]
    else:
        books = carve(lat, powers, rate, trials=8, seed=3)
        points = [(book.alpha, book) for book in books]
    books = [book for _, book in points]
    # set the chunk bound so that a chunk holds chunk_trials trials
    monkeypatch.setattr(sim, "CHUNK_BYTES", 10 ** 12)
    per_trial = 10 ** 12 // sim._chunk_trials(lat, model, books, decoders)
    monkeypatch.setattr(sim, "CHUNK_BYTES", chunk_trials * per_trial)
    chunk = sim._chunk_trials(lat, model, books, decoders)
    assert chunk == chunk_trials
    trials = 2 * chunk + 7                # two full chunks and a partial one
    run = (trials, 29, decoders, budget, noiseless)
    searches = _recording_searches(monkeypatch)
    expected, reference_searches = [], []
    for alpha, book in points:
        expected.append(reference_trial_loop(lat, model, alpha, book, *run))
        reference_searches.append(list(searches))
        searches.clear()
    masks = _recording_certificates(monkeypatch, searches)
    got = sim._trial_loop(lat, model, points, *run)
    assert len(got) == len(points)
    if "ml" in decoders:
        assert [g["ml"] for g in got] == [e["ml"] for e in expected]
    if "lattice" not in decoders:
        assert searches == [] and masks == []
        return
    # chunk c asks every point's certificate, point p's as its (c * points
    # + p)-th, before any search; then it searches the trials each left
    # unproved, point by point: split the log by point
    per_point = [([], []) for _ in points]
    at = 0
    for i, (mask, begin) in enumerate(masks):
        if i % len(points) == 0:
            chunk_start = at
        assert begin == chunk_start
        proved, searched = per_point[i % len(points)]
        proved.extend(mask.tolist())
        end = at + int(np.count_nonzero(~mask))
        searched.extend(searches[at:end])
        at = end
    assert at == len(searches)
    for p, (proved, searched) in enumerate(per_point):
        reference = reference_searches[p]
        # the reference searched every trial; the loop searched exactly the
        # trials the certificate did not prove, with the same targets, in
        # order
        assert len(reference) == len(proved) == trials
        if noiseless:
            # every received word is its sent point
            assert all(proved)
        unproved = [s for s, ok in zip(reference, proved) if not ok]
        if model.kind == "constant":
            # the loop searches H L at W / alpha, the reference alpha H L at
            # W: the span coordinates differ in the last bits, the outcomes
            # and node counts do not
            searched = [s[-1:] for s in searched]
            unproved = [s[-1:] for s in unproved]
        assert searched == unproved, p
        # a proved trial's reference search found no closer point; under a
        # tiny budget it may have run out first, which the reference scored
        # as an error and a budget hit
        outcomes = [s[-1] for s, ok in zip(reference, proved) if ok]
        assert all(o == "budget exceeded" or not o[0] for o in outcomes)
        freed = outcomes.count("budget exceeded")
        if budget == DEFAULT_BUDGET:
            assert freed == 0
        errors, nodes, hits = got[p]["lattice"]
        ref_errors, _, ref_hits = expected[p]["lattice"]
        assert errors == ref_errors - freed and hits == ref_hits - freed
        assert nodes == sum(budget if s[-1] == "budget exceeded" else s[-1][1]
                            for s in searched)


# -- soundness of the minimum-determinant certificate ------------------------

CERTIFIED_LATTICES = ("golden", "zeta20", "cyclo8", "q_i")


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(name=st.sampled_from(CERTIFIED_LATTICES), extra_rx=st.integers(0, 1),
       kind=st.sampled_from(["iid_rayleigh", "gauss_markov"]),
       rho=st.floats(0.0, 0.95), snr_db=st.floats(0.0, 40.0),
       rate=st.floats(0.25, 1.5), seed=st.integers(0, 2 ** 32 - 1))
def test_certified_trial_has_no_closer_point(catalog, name, extra_rx, kind,
                                             rho, snr_db, rate, seed):
    lat = _lattice(catalog, name)
    model = FadingModel(kind=kind, n=lat.n, n_r=lat.n + extra_rx,
                        rho=rho if kind == "gauss_markov" else 0.0)
    alpha = scaling_alpha(10.0 ** (snr_db / 10.0), rate, lat.n, lat.k,
                          lat.volume)
    streams = [(t,) for t in range(16)]
    H = channel.sample_stack(model, lat.k, seed, streams)
    # the zero point and nonzero points of alpha L are sent
    sent = philox(seed, 0x5E).integers(-2, 3, size=(len(streams), lat.rank))
    sent[0] = 0
    words = alpha * lat.points(sent)
    Y = channel.transmit_stack(words, H, seed, streams, False)
    d2 = np.sum(np.abs(Y - H @ words) ** 2, axis=(1, 2, 3))
    proved = sim.certified(lat, alpha, check_full_rank(H), d2)
    for t in np.flatnonzero(proved):
        dec = LatticeDecoder(H[t], alpha, lat)
        ((ok, _),) = dec.decodes_to((Y[t] - H[t] @ words[t])[None])
        assert ok, (name, t)


def test_carried_det_min_bounds_the_ball(catalog):
    # det_min <= min |pdet| over the nonzero points of the catalog-verify ball
    lattices = [field_lattice(f) for _, f in sorted(catalog.fields.items())]
    lattices += [order_lattice(NaturalOrder(a))
                 for _, a in sorted(catalog.algebras.items())]
    for lat in lattices:
        assert lat.det_min == 1.0
        radius = 1.5 * math.sqrt(lat.n * lat.k)
        smallest, _ = min_pdet(lat, radius)
        assert lat.det_min <= smallest * (1 + 1e-9)


def test_uncertified_lattices_run_every_search(catalog, monkeypatch):
    # the Golden algebra's data with gamma = 1, a norm: a non-division
    # algebra that asserts nothing, and a hand-built lattice, carry no
    # det_min, so every trial is searched
    golden = catalog.algebra("golden")
    split = CyclicAlgebra("split_golden", golden.center, 2, golden.rel_poly,
                          golden.sigma_eta, golden.center.one(),
                          golden.rel_basis)
    lattices = [order_lattice(NaturalOrder(split)),
                MatrixLattice(_lattice(catalog, "golden").blocks)]
    model = FadingModel(kind="iid_rayleigh", n=2, n_r=2)
    searches = _recording_searches(monkeypatch)
    for lat in lattices:
        assert lat.det_min is None
        assert not sim.certified(lat, 1.0, np.ones((3, lat.k, lat.n)),
                                 np.zeros(3)).any()
        searches.clear()
        simulate_infinite_wer(lat, model, [10 ** 2.0, 10 ** 3.0], 1.0, 25,
                              seed=4)
        assert len(searches) == 2 * 25


# -- fading searches prepared by one stacked QR, with no LLL of their own ----

@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(name=st.sampled_from(CERTIFIED_LATTICES), extra_rx=st.integers(0, 1),
       kind=st.sampled_from(["constant", "iid_rayleigh", "gauss_markov"]),
       rho=st.floats(0.0, 0.95), snr_db=st.floats(0.0, 30.0),
       rate=st.floats(0.25, 1.5), seed=st.integers(0, 2 ** 32 - 1))
def test_qr_only_decision_is_the_lll_decoders(catalog, name, extra_rx, kind,
                                              rho, snr_db, rate, seed):
    # whether a nonzero point of alpha H L is closer to W than 0 does not
    # depend on the basis: the faded LLL basis of the lattice, QR-factored
    # as given, decides every trial as a decoder that LLL-reduces its own
    # faded basis; only the node counts may differ.  A constant channel's
    # trials share one random (non-identity) fade and the one preparation
    # of its faded lattice, reduced at unit scale and scaled to alpha
    lat = _lattice(catalog, name)
    n_r = lat.n + extra_rx
    fixed = (complex_gaussian(philox(seed, 0xF1), (n_r, lat.n))
             if kind == "constant" else None)
    model = FadingModel(kind=kind, n=lat.n, n_r=n_r, fixed_H=fixed,
                        rho=rho if kind == "gauss_markov" else 0.0)
    alpha = scaling_alpha(10.0 ** (snr_db / 10.0), rate, lat.n, lat.k,
                          lat.volume)
    streams = [(t,) for t in range(12)]
    H = channel.sample_stack(model, lat.k, seed, streams)
    sent = philox(seed, 0x5E).integers(-2, 3, size=(len(streams), lat.rank))
    words = alpha * lat.points(sent)
    W = channel.transmit_stack(words, H, seed, streams, False) - H @ words
    [got] = lattice_decisions(*_stack(lat, model, H),
                              [(alpha, np.arange(len(H)), W)])
    assert len(got) == len(streams)
    for t in range(len(streams)):
        ((ok, _),) = LatticeDecoder(H[t], alpha, lat).decodes_to(W[t:t + 1])
        assert got[t][0] == ok, (name, t)


def test_lattice_searches_decide_both_ways_on_fades(catalog):
    # the equivalence above is not vacuous: on these fades some searched
    # trials find a closer point and some do not
    lat = _lattice(catalog, "zeta20")
    model = FadingModel(kind="iid_rayleigh", n=2, n_r=2)
    alpha = scaling_alpha(10.0, 1.0, lat.n, lat.k, lat.volume)
    streams = [(t,) for t in range(40)]
    H = channel.sample_stack(model, lat.k, 5, streams)
    W = channel.transmit_stack(np.zeros_like(H), H, 5, streams, False)
    [outcomes] = lattice_decisions(*lat.faded_stack(H),
                                   [(alpha, np.arange(len(H)), W)])
    oks = [ok for ok, _ in outcomes]
    assert True in oks and False in oks


def _stack(lat, model, H):
    """The trial loop's stack of preparations for the trials of H: a
    constant channel's one preparation of H L, shared, or one faded LLL
    basis per fade, QR-factored as given."""
    if model.kind == "constant":
        prep = lat.faded_cvp(H[0])
        return [prep] * len(H), prep.Q
    return lat.faded_stack(H)


SHEARED = np.array([[1, 50], [0, 1]], dtype=complex)


@pytest.mark.parametrize("model", [
    FadingModel(kind="iid_rayleigh", n=2, n_r=3),
    FadingModel(kind="constant", n=2, n_r=2, fixed_H=SHEARED)],
    ids=["iid_rayleigh", "sheared_constant"])
def test_grid_search_decides_as_each_point_alone(catalog, monkeypatch, model):
    # one stack of preparations for the union of the points' trials gives
    # each point the span coordinates, outcomes and node counts, bit for
    # bit, of a stack of its own trials: a fading chunk's stacked QR, or a
    # constant channel's one LLL-reduced preparation of its sheared faded
    # lattice, whose shared Q reads each point's targets alone as it reads
    # them in the union
    lat = _lattice(catalog, "zeta20")
    streams = [(t,) for t in range(40)]
    H = channel.sample_stack(model, lat.k, 11, streams)
    W = channel.transmit_stack(np.zeros((40, lat.k, 2, 2)), H, 11, streams,
                               False)
    gen = philox(11, 0x5E)
    searches = []
    for snr_db in (8.0, 12.0, 16.0):
        alpha = scaling_alpha(10.0 ** (snr_db / 10.0), 1.0, lat.n, lat.k,
                              lat.volume)
        rows = np.flatnonzero(gen.random(40) < 0.6)
        searches.append((alpha, rows, W[rows]))
    log = _recording_searches(monkeypatch)
    preps, Q = _stack(lat, model, H)
    got = lattice_decisions(preps, Q, searches)
    grid, alone = list(log), []
    for (alpha, rows, W_p), outcomes in zip(searches, got):
        log.clear()
        assert lattice_decisions(*_stack(lat, model, H[rows]),
                                 [(alpha, np.arange(len(rows)), W_p)]) == \
            [outcomes]
        alone.extend(log)
        if model.kind == "constant":
            # the shared factor reads the point's own targets, unscattered
            ys = _span_coords(Q, realify(W_p) / alpha)
            assert [entry[0] for entry in log] == [y.tobytes() for y in ys]
    assert grid == alone
    oks = {ok for outcomes in got for ok, _ in outcomes}
    assert oks == {True, False}      # both outcomes exercised


@pytest.mark.parametrize("kind", ["constant", "iid_rayleigh"])
def test_one_routine_decides_every_searched_trial(catalog, monkeypatch, kind):
    # structural guard: the trial loop asks `lattice_decisions` once per
    # chunk for every SNR point, every search of a trial runs inside it,
    # and the nodes of those searches are the points' avg_nodes x trials
    lat = _lattice(catalog, "golden")
    model = FadingModel(kind=kind, n=2, n_r=2,
                        fixed_H=SHEARED if kind == "constant" else None)
    calls, nodes, inside = [], [], [False]
    decide, search = sim.lattice_decisions, PreparedCVP.exists_closer

    def recording_decisions(*args):
        calls.append(args)
        inside[0] = True
        try:
            return decide(*args)
        finally:
            inside[0] = False

    def recording_search(self, y, budget=DEFAULT_BUDGET):
        assert inside[0], "a trial searched outside lattice_decisions"
        found, n = search(self, y, budget)
        nodes.append(n)
        return found, n

    monkeypatch.setattr(sim, "lattice_decisions", recording_decisions)
    monkeypatch.setattr(PreparedCVP, "exists_closer", recording_search)
    monkeypatch.setattr(sim, "_chunk_trials", lambda *args: 7)
    trials = 40
    got = simulate_infinite_wer(lat, model, [10 ** 0.8, 10 ** 1.2, 10 ** 1.6],
                                1.0, trials, seed=3)
    assert len(calls) == math.ceil(trials / 7)
    assert all(len(searches) == 3 for _, _, searches, _ in calls)
    assert len(nodes) > 20
    assert sum(nodes) == round(sum(p.avg_nodes * trials for p in got))
    assert not any(p.flag for p in got)


def test_chunk_bound_counts_faded_bases(catalog):
    # a fading chunk of a rank-16 lattice holds every trial's faded basis
    # and its Q and R factors (real, rank x 2 k n_r n each) within the bound
    lat = _lattice(catalog, "zeta20")
    model = FadingModel(kind="iid_rayleigh", n=2, n_r=3)
    chunk = sim._chunk_trials(lat, model, [None], ("lattice",))
    dim = 2 * lat.k * model.n_r * lat.n
    assert chunk * 3 * 8 * lat.rank * dim <= sim.CHUNK_BYTES
    constant = FadingModel(kind="constant", n=2, n_r=3)
    assert sim._chunk_trials(lat, constant, [None], ("lattice",)) > chunk


def test_fading_runs_prepare_no_decoder_and_one_lll_per_lattice(catalog,
                                                                 monkeypatch,
                                                                 capsys,
                                                                 tmp_path):
    # structural guard: a command LLL-reduces each lattice it searches
    # exactly once and builds no LatticeDecoder, on every channel, on the
    # codebook and the infinite path, however many SNR points it carves at
    # and however many trials it searches.  The lattice's own basis B is
    # reduced for carving and for fading trials (lat.cvp); a constant
    # channel's trials search the faded lattice H L, whose basis H B is
    # reduced once for every SNR point (it is B itself, and lat.cvp, when
    # the fade is the identity)
    reduced, decoders = [], []
    reduce, init = lattice.lll_reduce, decoder.LatticeDecoder.__init__

    def counting_reduce(basis):
        reduced.append(np.asarray(basis).tobytes())
        return reduce(basis)

    def counting_init(*args, **kwargs):
        decoders.append(args)
        init(*args, **kwargs)

    monkeypatch.setattr(lattice, "lll_reduce", counting_reduce)
    monkeypatch.setattr(decoder.LatticeDecoder, "__init__", counting_init)
    searches = _recording_searches(monkeypatch)
    sheared = np.array([[1, 50], [0, 1]], dtype=complex)
    hfile = tmp_path / "h.txt"
    hfile.write_text("1 50\n0 1\n")
    runs = [
        ("golden", ["--model", "constant", "--nr", "3"]),
        ("golden", ["--model", "constant", "--nr", "2", "--fixed-h-file",
                    str(hfile)]),
        ("golden", ["--model", "constant", "--nr", "2", "--fixed-h-file",
                    str(hfile), "--infinite"]),
        ("golden", ["--model", "iid_rayleigh", "--nr", "2"]),
        ("cyclo8", ["--model", "gauss_markov", "--rho", "0.7"]),
        ("zeta20", ["--model", "constant", "--nr", "2", "--infinite"]),
        ("zeta20", ["--model", "iid_rayleigh", "--nr", "2", "--infinite"]),
        ("cyclo8", ["--model", "gauss_markov", "--rho", "0.7", "--infinite"]),
    ]
    for name, extra in runs:
        kind = "--field" if name in catalog.fields else "--algebra"
        reduced.clear()
        searches.clear()
        assert main(["simulate", kind, name, "--snr-db", "0,4,8", "--rate",
                     "1", "--trials", "100", "--seed", "7"] + extra) == 0
        lat = _lattice(catalog, name)
        want = [] if "--infinite" in extra else [lat.real_basis]
        if "constant" in extra:
            n_r = int(extra[extra.index("--nr") + 1])
            fade = sheared if "--fixed-h-file" in extra else np.eye(n_r, lat.n)
            H = np.broadcast_to(fade, (lat.k, n_r, lat.n))
            want.append(realify(np.einsum("irc,jicd->jird", H, lat.blocks)))
        else:
            want = [lat.real_basis]
        want = list(dict.fromkeys(b.tobytes() for b in want))
        assert reduced == want, (name, extra)
        assert len(searches) > 20, (name, extra)
    reduced.clear()
    assert main(["invariants", "--all"]) == 0
    assert len(reduced) == len(set(reduced)) == (len(catalog.fields)
                                                 + len(catalog.algebras))
    capsys.readouterr()
    assert decoders == []


def test_identity_constant_run_factors_only_the_lattice_basis(catalog,
                                                              monkeypatch,
                                                              capsys):
    # every alpha divides the targets, never the basis: on the identity
    # fade, three SNR points search lat.cvp, and no QR factors a basis
    # other than lat.cvp's reduced one
    reduced = MatrixLattice(_lattice(catalog, "cyclo8").blocks).cvp.reduced
    factored = []
    signed_qr = lattice._signed_qr

    def counting(A):
        factored.append(np.asarray(A).tobytes())
        return signed_qr(A)

    monkeypatch.setattr(lattice, "_signed_qr", counting)
    searches = _recording_searches(monkeypatch)
    assert main(["simulate", "--field", "cyclo8", "--model", "constant",
                 "--snr-db", "4,8,12", "--rate", "1", "--trials", "200",
                 "--seed", "7", "--infinite"]) == 0
    capsys.readouterr()
    assert factored == [reduced.T.tobytes()]
    assert len(searches) > 20


def test_a_command_draws_each_chunks_fades_and_noise_once(monkeypatch,
                                                          capsys):
    # structural guard: fades and noise are keyed by the trial, never by the
    # power, so a command draws each chunk's fades and noise, and checks its
    # fades' rank, once for all of its SNR points (one chunk here); a
    # constant channel's one fade is checked once per command
    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in [(channel, "sample_stack"), (channel, "check_full_rank"),
                        (rng, "_words")]:
        count(owner, name)
    assert main(["simulate", "--algebra", "golden", "--model", "iid_rayleigh",
                 "--nr", "2", "--snr-db", "8,12,16", "--rate", "1",
                 "--decoder", "both", "--trials", "20", "--seed", "7"]) == 0
    assert calls == {"sample_stack": 1, "_words": 2, "check_full_rank": 1}
    calls.clear()
    assert main(["simulate", "--field", "cyclo8", "--model", "constant",
                 "--snr-db", "4,8,12", "--rate", "1", "--trials", "200",
                 "--seed", "7", "--infinite"]) == 0
    # the infinite path draws every trial's noise radii, then the searched
    # trials' full noise
    assert calls == {"sample_stack": 1, "_words": 2, "check_full_rank": 1}
    capsys.readouterr()


# -- the infinite path draws full noise only for the trials it searches ------


def test_infinite_path_draws_full_noise_only_for_searched_trials(monkeypatch,
                                                                 capsys):
    # structural guard: the certificate reads every trial's noise energy
    # from its radius words; the complex noise on tag 0x57 is drawn only for
    # the trials some SNR point searches, and a search reads each of them
    # bit for bit as the draw of the whole chunk (one chunk here)
    drawn, certificates, decisions = [], [], []
    draw, prove, decide = (channel.complex_gaussian_streams, sim.certified,
                           sim.lattice_decisions)

    def recording_draw(seed, streams, shape):
        drawn.append(np.array(streams))
        return draw(seed, streams, shape)

    def recording_certificate(*args):
        certificates.append(prove(*args))
        return certificates[-1]

    def recording_decisions(preps, Q, searches, budget):
        decisions.append(searches)
        return decide(preps, Q, searches, budget)

    monkeypatch.setattr(channel, "complex_gaussian_streams", recording_draw)
    monkeypatch.setattr(sim, "certified", recording_certificate)
    monkeypatch.setattr(sim, "lattice_decisions", recording_decisions)
    assert main(["simulate", "--field", "cyclo8", "--model", "constant",
                 "--snr-db", "4,8,12", "--rate", "1", "--trials", "200",
                 "--seed", "7", "--infinite"]) == 0
    capsys.readouterr()
    assert len(certificates) == 3 and len(decisions) == 1
    searched = np.flatnonzero(~np.logical_and.reduce(certificates))
    assert 0 < len(searched) < 200
    [paths] = drawn
    assert paths.tolist() == [[0x57, t] for t in searched]
    # every drawn trial is searched by some point, each at its stack index
    at = [set(rows.tolist()) for _, rows, _ in decisions[0]]
    assert set.union(*at) == set(range(len(searched)))
    for proved, (_, rows, _) in zip(certificates, decisions[0]):
        assert searched[rows].tolist() == np.flatnonzero(~proved).tolist()
    lat = field_lattice(load_catalog().field("cyclo8"))
    H = np.ones((200, lat.k, 1, 1), dtype=complex)
    full = channel.transmit_stack(np.zeros((lat.k, 1, 1)), H, 7,
                                  np.arange(200)[:, None], False)
    for _, rows, W in decisions[0]:
        assert np.array_equal(W.view(np.uint64),
                              full[searched[rows]].view(np.uint64))


SPLIT_GOLDEN = """
# the Golden algebra's data with gamma = 1, a norm: not a division algebra
name = split_golden
center = q_i
n = 2
rel_poly = -5,0 ; 0,0 ; 1,0
sigma_eta = 0,0 ; -1,0
gamma = 1,0
rel_basis = 1,0 | 0,0 ; 1/2,0 | 1/2,0
"""


@pytest.mark.parametrize("noiseless", [False, True])
def test_infinite_path_without_det_min_matches_the_reference(
        tmp_path, monkeypatch, noiseless):
    # a catalog algebra that asserts no division carries no det_min: the
    # infinite path draws no noise radii, searches every trial, and tallies
    # each point as the one-trial-at-a-time reference
    for name in ("fields.txt", "algebras.txt"):
        text = resources.files("multiblock").joinpath("catalog", name)
        (tmp_path / name).write_text(text.read_text("utf-8")
                                     + (SPLIT_GOLDEN if name == "algebras.txt"
                                        else ""))
    monkeypatch.setenv("MULTIBLOCK_CATALOG", str(tmp_path))
    lat = order_lattice(NaturalOrder(load_catalog().algebra("split_golden")))
    assert lat.det_min is None

    def no_radii(*args):
        raise AssertionError("noise radii drawn for a lattice without det_min")

    monkeypatch.setattr(channel, "noise_energies", no_radii)
    monkeypatch.setattr(sim, "_chunk_trials", lambda *args: 7)
    model = FadingModel(kind="iid_rayleigh", n=2, n_r=2)
    points = [(scaling_alpha(10.0 ** (snr_db / 10.0), 1.0, lat.n, lat.k,
                             lat.volume), None) for snr_db in (4, 8, 16)]
    run = (25, 7, ("lattice",), DEFAULT_BUDGET, noiseless)
    got = sim._trial_loop(lat, model, points, *run)
    expected = [reference_trial_loop(lat, model, alpha, None, *run)
                for alpha, _ in points]
    assert got == expected
    assert any(tally["lattice"][0] for tally in got) != noiseless
