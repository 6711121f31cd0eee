import logging
import math
import os
import re

import numpy as np
import pytest

from multiblock import codebook
from multiblock import lattice as lab
from multiblock.codebook import (Codebook, carve, count_points_in_ball,
                                 format_codebook, log_c_nk, scaling_alpha)
from multiblock.errors import BudgetExceeded, CarveFailed
from multiblock.lattice import DEFAULT_BUDGET, MatrixLattice
from multiblock.rng import philox
from oracles import reference_carve


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
    # C_{n,k}^{1/n^2k} -> pi e / n in the paper's gap, through the Stirling
    # form pi e / n (2 pi n^2 k)^{-1/(2 n^2 k)}
    for n, k in ((1, 64), (2, 16), (4, 4), (8, 1), (1, 256)):
        m = n * n * k
        exact = math.exp(log_c_nk(n, k) / m)
        approx = math.pi * math.e / n * (2 * math.pi * m) ** (-1.0 / (2 * m))
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
    [book] = carve(lat, [10.0 ** 1.6], 2.0, trials=16, seed=1)
    assert len(calls) == 1
    assert book.realized_rate >= 2.0
    carve(lat, [10.0 ** 2], 2.0, trials=16, seed=1)
    assert len(calls) == 1


def test_carve_beyond_budget_raises_before_any_search(qi_lattice,
                                                      monkeypatch):
    # a ball of 2^floor(R n k) points takes at least that many nodes, so a
    # target above the budget fails at once for the whole grid; a target
    # equal to it is tried, by one search of `trials` shifts for every point
    searched = []
    monkeypatch.setattr(codebook, "count_points_in_ball",
                        lambda *args: searched.append(args) or (0, None, None))
    grid = [10.0, 100.0, 1000.0]
    with pytest.raises(BudgetExceeded):
        carve(qi_lattice, grid, 3.0, trials=4, seed=1, budget=7)
    assert searched == []
    with pytest.raises(CarveFailed) as info:
        carve(qi_lattice, grid, 3.0, trials=4, seed=1, budget=8)
    assert info.value.best_count == 0
    assert len(searched) == 4
    # every search runs at the first point's radius sqrt(P n k) / alpha
    alpha = scaling_alpha(10.0, 3.0, 1, 1, qi_lattice.volume)
    assert {args[2] for args in searched} == {math.sqrt(10.0) / alpha}


def test_carve_beyond_its_memory_raises_before_any_search(qi_lattice,
                                                         monkeypatch):
    # the 2^floor(R n k) codewords a carve must hold take 8 bytes per
    # coordinate and 16 per complex entry: 2^3 * (8 * 2 + 16) = 256 bytes
    # for q_i at rate 3, refused above CARVE_BYTES, tried at it
    searched = []
    monkeypatch.setattr(codebook, "count_points_in_ball",
                        lambda *args: searched.append(args) or (0, None, None))
    monkeypatch.setattr(codebook, "CARVE_BYTES", 255)
    with pytest.raises(BudgetExceeded, match="more than 255 bytes hold"):
        carve(qi_lattice, [10.0, 100.0], 3.0, trials=4, seed=1)
    assert searched == []
    monkeypatch.setattr(codebook, "CARVE_BYTES", 256)
    with pytest.raises(CarveFailed):
        carve(qi_lattice, [10.0, 100.0], 3.0, trials=4, seed=1)
    assert len(searched) == 4


def test_carve_refuses_an_overflowing_power_ball_before_any_search(
        golden_lattice, monkeypatch):
    # at n k = 2 and P = 1e308 the squared radius P n k is inf: a search
    # would gather every lattice point within the budget
    searched = []
    monkeypatch.setattr(codebook, "count_points_in_ball",
                        lambda *args: searched.append(args) or (0, None, None))
    with pytest.raises(ValueError, match="P n k = 2 P"):
        carve(golden_lattice, [10.0, 1e308], 0.5, trials=4, seed=1)
    assert searched == []


def test_rate_zero_carve_succeeds(qi_lattice):
    [book] = carve(qi_lattice, [1.0], 0.0, 4, seed=3)
    assert len(book) >= 1


def test_carve_respects_power_and_rate(qi_lattice):
    P, R = 10.0, 2.0
    [book] = carve(qi_lattice, [P], R, trials=8, seed=1)
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
        carve(qi_lattice, [1.0], 0.0, trials=1, seed=8)
    assert info.value.best_count == 0


def test_carve_truncates_oversized_codebook(qi_lattice, caplog, monkeypatch):
    # seed 1 packs two points at rate 0; a zero truncation margin caps the
    # book at 2^{ceil(Rnk)} = 1 lowest-energy codeword
    monkeypatch.setattr(codebook, "TRUNCATE_MARGIN", 0)
    with caplog.at_level(logging.INFO, logger="multiblock.codebook"):
        [book] = carve(qi_lattice, [1.0], 0.0, trials=1, seed=1)
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
    [book] = carve(qi_lattice, [10.0], 1.0, trials=4, seed=9)
    text = format_codebook(book)
    assert text.startswith("n = 1\nk = 1\n")
    assert "alpha = " in text and "realized_rate = " in text
    stanzas = [b for b in text.split("\n\n") if b.strip()]
    assert len(stanzas) == 1 + 1 + len(book)  # header, shift, codewords


def test_format_codebook_matches_golden_export(qi_lattice):
    # carve --field q_i --snr-db 10 --rate 2 --trials 16 --seed 1 --export
    [book] = carve(qi_lattice, [10.0], 2.0, trials=16, seed=1)
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "carve_q_i_export.txt")
    with open(golden, encoding="utf-8") as fh:
        assert format_codebook(book) == fh.read()


# -- the grid carve against the per-point reference ---------------------------

GRID_CASES = [
    # (lattice, rate, seed, shifts, SNR grid in dB, whether the carve succeeds)
    ("qi_lattice", 1.0, 1, 4, (0, 10, 20, 30, 40), True),
    ("qi_lattice", 2.0, 5, 4, (0, 7, 13, 40), True),
    ("qi_lattice", 3.0, 9, 16, (3, 17, 33), True),
    ("golden_lattice", 0.5, 2, 16, (0, 20, 40), True),
    ("golden_lattice", 1.0, 7, 16, (8, 12, 16), True),
    ("golden_lattice", 2.0, 1, 4, (0, 16, 25, 40), True),
    ("golden_lattice", 3.0, 3, 16, (5, 35), True),
    ("zeta20_lattice", 0.5, 1, 4, (6, 18, 30), True),
    ("zeta20_lattice", 1.0, 3, 16, (0, 10, 20, 30, 40), True),
    ("cyclo8_lattice", 1.0, 3, 4, (0, 10, 20, 30, 40), True),
    ("cyclo8_lattice", 2.0, 12, 16, (4, 24), True),
    # best shifts below the target: failures that fail every point alike
    ("zeta20_lattice", 2.0, 2, 4, (10, 20, 40), False),
    ("cyclo8_lattice", 3.0, 3, 4, (0, 12, 40), False),
    ("qi_lattice", 0.0, 8, 1, (0, 20, 40), False),
]


@pytest.fixture(scope="module")
def cyclo8_lattice(catalog):
    return lab.field_lattice(catalog.field("cyclo8"))


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _outcome(call):
    try:
        return call()
    except (BudgetExceeded, CarveFailed) as exc:
        return exc


def _assert_same_carve(got, want):
    assert type(got) is type(want)
    if isinstance(want, CarveFailed):
        assert got.best_count == want.best_count
    elif isinstance(want, Codebook):
        assert got.alpha == want.alpha and got.power == want.power
        assert _bits(got.shift) == _bits(want.shift)
        assert got.coords.tolist() == want.coords.tolist()
        assert _bits(got.matrices) == _bits(want.matrices)


@pytest.mark.parametrize("case", range(len(GRID_CASES)))
def test_grid_carve_matches_the_per_point_reference(request, case):
    # one shift search at the first point's radius gives every point of the
    # grid the codebook, or the CarveFailed, of its own search at its own
    # radius: the radii differ by rounding only
    name, rate, seed, trials, grid, succeeds = GRID_CASES[case]
    lat = request.getfixturevalue(name)
    powers = [10.0 ** (snr_db / 10.0) for snr_db in grid]
    got = _outcome(lambda: carve(lat, powers, rate, trials, seed))
    want = [_outcome(lambda: reference_carve(lat, P, rate, trials, seed,
                                             DEFAULT_BUDGET))
            for P in powers]
    if isinstance(got, Exception):
        # a search failure is raised once, and is every point's
        got = [got] * len(powers)
    assert len(got) == len(powers)
    for g, w in zip(got, want):
        _assert_same_carve(g, w)
    assert all(isinstance(w, Codebook) == succeeds for w in want)


def test_grid_carve_refuses_a_budget_like_the_reference(qi_lattice):
    # the 2^floor(R n k) > budget refusal comes before any alpha or search,
    # at every point of the reference and once for the grid
    powers = [10.0, 1e300]
    with pytest.raises(BudgetExceeded):
        carve(qi_lattice, powers, 3.0, trials=4, seed=1, budget=7)
    for P in powers:
        with pytest.raises(BudgetExceeded):
            reference_carve(qi_lattice, P, 3.0, 4, 1, 7)


def test_power_filter_failure_is_the_point_s_own(qi_lattice, monkeypatch):
    # a point whose power filter leaves too few points gets its CarveFailed
    # in its place; the search and the other points are unchanged
    powers = [10.0, 100.0, 1000.0]
    clean = carve(qi_lattice, powers, 2.0, trials=4, seed=1)
    scaling = codebook.scaling_alpha

    def inflated_at_100(P, *args):
        return scaling(P, *args) * (3.0 if P == 100.0 else 1.0)

    monkeypatch.setattr(codebook, "scaling_alpha", inflated_at_100)
    first, failed, last = carve(qi_lattice, powers, 2.0, trials=4, seed=1)
    assert isinstance(failed, CarveFailed) and failed.best_count < 4
    _assert_same_carve(first, clean[0])
    _assert_same_carve(last, clean[2])
