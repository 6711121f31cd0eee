import math

import numpy as np
import pytest

from multiblock.channel import FadingModel
from multiblock.codebook import carve
from multiblock.lattice import reduced_hermite_probe
from multiblock.rng import complex_gaussian, philox
from multiblock.sim import simulate_codebook_wer, simulate_infinite_wer


def test_lemma4_minimum_distance_bound(golden_lattice):
    # received-constellation min distance respects
    # d_H^2 >= alpha^2 n k prod det(H_i^dag H_i)^{1/nk}
    book = carve(golden_lattice, 10 ** 1.4, 0.75, trials=4, seed=21)
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


def test_reduced_hermite_probe_respects_lower_bound(hex_lattice):
    # sampled fades never dip below the closed-form reduced Hermite invariant
    rh = 1.0 * 1.0 * ((4.0 / 3.0) ** 0.25) ** 2.0  # nk delta^{2/nk}
    probe = reduced_hermite_probe(hex_lattice, samples=10, seed=77)
    assert probe >= rh - 1e-9


def test_noiseless_wer_zero(qi_lattice):
    model = FadingModel(kind="constant", n=1, n_r=1,
                        fixed_H=np.eye(1, dtype=complex))
    book = carve(qi_lattice, 10.0, 1.0, trials=4, seed=2)
    pts = simulate_codebook_wer(book, model, 100, seed=3, noiseless=True)
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
        pt = simulate_infinite_wer(lat, model, P, rate, trials=400, seed=11)
        wers.append(pt.wer)
    assert min(wers) > 0.3


def test_iid_model_wer_runs(qi_lattice):
    model = FadingModel(kind="iid_rayleigh", n=1, n_r=2)
    book = carve(qi_lattice, 10.0, 1.0, trials=4, seed=5)
    pts = simulate_codebook_wer(book, model, 50, seed=7)
    assert {p.decoder for p in pts} == {"ml", "lattice"}
    for p in pts:
        assert 0.0 <= p.wer <= 1.0
        assert p.avg_nodes > 0


def test_multiblock_algebra_end_to_end(zeta20_lattice):
    # genuinely multiblock shape: k = 2 blocks of 2x2, rank-16 order lattice,
    # carved and decoded over an iid Rayleigh 2x2 channel
    book = carve(zeta20_lattice, 10 ** 1.8, 0.5, trials=64, seed=11)
    assert book.realized_rate >= 0.5
    model = FadingModel(kind="iid_rayleigh", n=2, n_r=2)
    pts = simulate_codebook_wer(book, model, 30, seed=13)
    for p in pts:
        assert p.wer <= 0.2  # comfortable SNR


def test_seed_reproducibility(qi_lattice):
    model = FadingModel(kind="iid_rayleigh", n=1, n_r=1)
    a = simulate_infinite_wer(qi_lattice, model, 10.0, 1.0, 200, seed=13)
    b = simulate_infinite_wer(qi_lattice, model, 10.0, 1.0, 200, seed=13)
    assert a.errors == b.errors


def test_budget_hit_counts_as_lattice_error(golden_lattice):
    # a search cut off by the node budget cannot certify the word: it is
    # scored as a lattice word error and reported in the flag, and the run
    # goes on
    book = carve(golden_lattice, 10 ** 0.8, 1.0, trials=16, seed=7)
    model = FadingModel(kind="iid_rayleigh", n=2, n_r=2)
    ml_full, lat_full = simulate_codebook_wer(book, model, 40, seed=7)
    assert lat_full.flag == ""
    for budget in (5, 16):
        ml_cut, lat_cut = simulate_codebook_wer(book, model, 40, seed=7,
                                                budget=budget)
        assert ml_cut == ml_full
        assert lat_cut.flag.startswith("budget_hits=")
        hits = int(lat_cut.flag.split("=")[1])
        assert 0 < hits <= lat_cut.errors <= hits + lat_full.errors
