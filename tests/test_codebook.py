import logging
import math
import os
import re

import numpy as np
import pytest

from multiblock import codebook
from multiblock import lattice as lab
from multiblock.codebook import (c_nk_root_stirling, carve,
                                 count_points_in_ball, format_codebook,
                                 log_c_nk, scaling_alpha)
from multiblock.errors import BudgetExceeded, CarveFailed
from multiblock.lattice import MatrixLattice
from multiblock.rng import philox


def z2_lattice():
    blocks = np.zeros((2, 2, 1, 1), dtype=complex)
    blocks[0, 0, 0, 0] = 1
    blocks[1, 1, 0, 0] = 1
    return MatrixLattice(blocks)


def test_scaling_alpha_siso_examples():
    assert scaling_alpha(1.0, 0.0, 1, 1, 1.0) ** 2 == pytest.approx(math.pi, rel=1e-12)
    assert scaling_alpha(1.0, 2.0, 1, 1, 1.0) ** 2 == pytest.approx(math.pi / 4, rel=1e-12)


@pytest.mark.parametrize("P, R", [(1e308, 0.0), (10.0, 1e308)])
def test_scaling_alpha_outside_doubles_is_refused(P, R):
    # alpha^2 = pi P 2^-R overflows at the first pair and underflows to 0
    # at the second; neither may reach the lattice as inf or 0
    with pytest.raises(ValueError, match=re.escape(f"P = {P:g} and R = {R:g}")):
        scaling_alpha(P, R, 1, 1, 1.0)


def test_cnk_root_approaches_stirling_form():
    for n, k in ((1, 64), (2, 16), (4, 4), (8, 1), (1, 256)):
        exact = math.exp(log_c_nk(n, k) / (n * n * k))
        approx = c_nk_root_stirling(n, k)
        assert abs(exact - approx) / exact < 1e-3, (n, k)


def test_z2_ball_count_is_13():
    count, coords, _ = count_points_in_ball(
        z2_lattice(), np.zeros((2, 1, 1), dtype=complex), 2.0)
    assert count == 13


def count_lll_calls(monkeypatch):
    calls = []
    original = lab.lll_reduce

    def counting(basis):
        calls.append(1)
        return original(basis)

    monkeypatch.setattr(lab, "lll_reduce", counting)
    return calls


def test_carve_prepares_the_scaled_lattice_once(golden_lattice, monkeypatch):
    # every shift of alpha L is searched on the lattice's own preparation,
    # lat.cvp, at radius sqrt(Pnk) / alpha: carving reduces no scaled copy.
    # A fresh copy of the shared fixture has no preparation cached yet
    lat = MatrixLattice(golden_lattice.blocks, det_min=golden_lattice.det_min)
    calls = count_lll_calls(monkeypatch)
    book = carve(lat, 10.0 ** 1.6, 2.0, trials=16, seed=1)
    assert len(calls) == 1
    assert book.realized_rate >= 2.0
    carve(lat, 10.0 ** 2, 2.0, trials=16, seed=1)
    assert len(calls) == 1


def test_carve_beyond_budget_raises_before_any_search(qi_lattice,
                                                      monkeypatch):
    # a ball of 2^floor(R n k) points takes at least that many nodes, so a
    # target above the budget fails at once; a target equal to it is tried
    searched = []
    monkeypatch.setattr(codebook, "count_points_in_ball",
                        lambda *args: searched.append(args) or (0, None, None))
    with pytest.raises(BudgetExceeded):
        carve(qi_lattice, 10.0, 3.0, trials=4, seed=1, budget=7)
    assert searched == []
    with pytest.raises(CarveFailed):
        carve(qi_lattice, 10.0, 3.0, trials=4, seed=1, budget=8)
    assert len(searched) == 4


def test_rate_zero_carve_succeeds(qi_lattice):
    book = carve(qi_lattice, 1.0, 0.0, 4, seed=3)
    assert len(book) >= 1


def test_carve_respects_power_and_rate(qi_lattice):
    P, R = 10.0, 2.0
    book = carve(qi_lattice, P, R, trials=8, seed=1)
    nk = qi_lattice.n * qi_lattice.k
    energies = np.sum(np.abs(book.matrices) ** 2, axis=(1, 2, 3))
    assert np.all(energies <= P * nk)  # exact, no tolerance
    assert book.realized_rate >= R
    # codeword differences are lattice points
    d = (book.matrices[1:] - book.matrices[0]) / book.alpha
    want = qi_lattice.points(book.coords[1:] - book.coords[0])
    assert np.max(np.abs(d - want)) < 1e-9


def test_carve_failure_reports_best_count(qi_lattice):
    # the expected point count per shift is exactly 2^{Rnk} = 1, so a single
    # unlucky shift (seed 8) packs nothing and the search must report it
    with pytest.raises(CarveFailed) as info:
        carve(qi_lattice, 1.0, 0.0, trials=1, seed=8)
    assert info.value.best_count == 0


def test_carve_truncates_oversized_codebook(qi_lattice, caplog, monkeypatch):
    # seed 1 packs two points at rate 0; a zero truncation margin caps the
    # book at 2^{ceil(Rnk)} = 1 lowest-energy codeword
    monkeypatch.setattr(codebook, "TRUNCATE_MARGIN", 0)
    with caplog.at_level(logging.INFO, logger="multiblock.codebook"):
        book = carve(qi_lattice, 1.0, 0.0, trials=1, seed=1)
    assert len(book) == 1
    assert any("truncating" in r.message for r in caplog.records)


def test_average_count_matches_ball_volume_ratio(qi_lattice):
    # Monte Carlo over random shifts reproduces Vol(ball)/Vol(alpha L):
    # the averaging argument behind the shift-existence lemma
    radius, alpha = 1.3, 1.0
    expected = math.pi * radius ** 2 / alpha ** 2
    scaled = MatrixLattice(alpha * qi_lattice.blocks)
    gen = philox(509, 0)
    counts = []
    for _ in range(10000):
        fractions = gen.random(2)
        shift = alpha * np.tensordot(fractions, qi_lattice.blocks, axes=(0, 0))
        c, _, _ = count_points_in_ball(scaled, shift, radius)
        counts.append(c)
    mean = np.mean(counts)
    assert abs(mean - expected) / expected < 0.05


def test_save_codebook_roundtrip_header(qi_lattice):
    book = carve(qi_lattice, 10.0, 1.0, trials=4, seed=9)
    text = format_codebook(book)
    assert text.startswith("n = 1\nk = 1\n")
    assert "alpha = " in text and "realized_rate = " in text
    stanzas = [b for b in text.split("\n\n") if b.strip()]
    assert len(stanzas) == 1 + 1 + len(book)  # header, shift, codewords


def test_format_codebook_matches_golden_export(qi_lattice):
    # carve --field q_i --snr-db 10 --rate 2 --trials 16 --seed 1 --export
    book = carve(qi_lattice, 10.0, 2.0, trials=16, seed=1)
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "carve_q_i_export.txt")
    with open(golden, encoding="utf-8") as fh:
        assert format_codebook(book) == fh.read()
