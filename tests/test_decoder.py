import warnings

import numpy as np
import pytest

from multiblock.codebook import Codebook, carve
from multiblock.decoder import LatticeDecoder, faded_decodes_to, ml_decode
from multiblock.errors import DegenerateLattice, SingularChannel
from multiblock.lattice import MatrixLattice, PreparedCVP, realify
from multiblock.rng import complex_gaussian, philox

from witnesses import mismatched_bound, qr_reduce


def identity_channel(k, n):
    return np.broadcast_to(np.eye(n, dtype=complex), (k, n, n)).copy()


def test_ml_noiseless_recovers_codeword(qi_lattice):
    [book] = carve(qi_lattice, [10.0], 2.0, trials=4, seed=1)
    H = identity_channel(1, 1)
    for j in range(len(book)):
        res = ml_decode((H @ book.matrices[j])[None], H[None], book)
        assert res.index[0] == j


def test_ml_single_codeword(qi_lattice):
    [book] = carve(qi_lattice, [1.0], 0.0, trials=4, seed=3)
    sub = Codebook(lattice=qi_lattice, alpha=book.alpha, shift=book.shift,
                   rate_target=0.0, power=1.0, coords=book.coords[:1],
                   matrices=book.matrices[:1])
    Y = np.array([[[[5.0 + 5.0j]]]])
    assert ml_decode(Y, identity_channel(1, 1)[None], sub).index[0] == 0


def test_ml_midpoint_perturbation(qi_lattice):
    m0 = np.zeros((1, 1, 1), dtype=complex)
    m1 = np.ones((1, 1, 1), dtype=complex)
    book = Codebook(lattice=qi_lattice, alpha=1.0,
                    shift=np.zeros((1, 1, 1), dtype=complex), rate_target=0.0,
                    power=1.0, coords=np.array([[0, 0], [1, 0]]),
                    matrices=np.stack([m0, m1]))
    H = identity_channel(1, 1)[None]
    Y = np.array([[[[0.5 + 1e-6]]]], dtype=complex)
    assert ml_decode(Y, H, book).index[0] == 1
    Y_tie = np.array([[[[0.5]]]], dtype=complex)
    assert ml_decode(Y_tie, H, book).index[0] == 0  # lowest index


def test_lattice_decode_exact_point(golden_lattice):
    rng = np.random.default_rng(5)
    H = complex_gaussian(philox(5, 1), (1, 2, 2))
    coords = rng.integers(-2, 3, size=golden_lattice.rank)
    X = golden_lattice.point(coords)
    Y = H @ X
    res = LatticeDecoder(H, 1.0, golden_lattice).decode(Y)
    assert list(res.coords) == [int(c) for c in coords]
    assert res.metric == pytest.approx(0.0, abs=1e-12)
    assert not res.approximate


def test_lattice_decode_siso_gaussian_integers(qi_lattice):
    # nearest Gaussian integer to 0.4 + 0.6j, brute forced over 9 neighbors
    y = 0.4 + 0.6j
    cands = [a + 1j * b for a in (-1, 0, 1) for b in (-1, 0, 1)]
    best = min(cands, key=lambda z: abs(z - y))
    assert best == 1j
    H = identity_channel(1, 1)
    res = LatticeDecoder(H, 1.0, qi_lattice).decode(np.array([[[y]]]))
    val = complex(qi_lattice.point(res.coords)[0, 0, 0])
    assert abs(val - best) < 1e-12


def test_lattice_decode_metric_consistency(golden_lattice):
    H = complex_gaussian(philox(7, 2), (1, 3, 2))
    W = 0.1 * complex_gaussian(philox(7, 3), (1, 3, 2))
    X = golden_lattice.point([1, 0, -1, 0, 2, 0, 0, 1])
    Y = H @ X + W
    res = LatticeDecoder(H, 1.0, golden_lattice).decode(Y)
    xhat = golden_lattice.point(res.coords)
    direct = float(np.sum(np.abs(Y - H @ xhat) ** 2))
    assert res.metric == pytest.approx(direct, abs=1e-9)


def test_lattice_decode_requires_enough_antennas(golden_lattice):
    from multiblock.errors import DomainError
    H = complex_gaussian(philox(11, 0), (1, 1, 2))  # n_r = 1 < n = 2
    with pytest.raises(DomainError):
        LatticeDecoder(H, 1.0, golden_lattice).decode(np.zeros((1, 1, 2)))


def test_cross_decoder_agreement(golden_lattice):
    # at high SNR both decoders return the transmitted coordinates
    [book] = carve(golden_lattice, [10 ** 2.2], 1.0, trials=4, seed=13)
    gen = philox(17, 4)
    pick = philox(17, 5)
    agree = 0
    trials = 100
    H = identity_channel(1, 2)
    dec = LatticeDecoder(H, book.alpha, golden_lattice, book.shift)
    for t in range(trials):
        j = int(pick.integers(len(book)))
        Y = H @ book.matrices[j] + 0.05 * complex_gaussian(gen, (1, 2, 2))
        res_ml = ml_decode(Y[None], H[None], book)
        res_lat = dec.decode(Y)
        assert list(res_lat.coords) == list(book.coords[res_ml.index[0]])
        agree += 1
    assert agree == trials


def test_qr_reduce_distance_preservation():
    gen = philox(19, 0)
    H = complex_gaussian(gen, (2, 3, 2))
    X = complex_gaussian(gen, (2, 2, 2))
    Yp, Rp = qr_reduce(H @ X, H)
    for i in range(2):
        hd = np.linalg.norm(H[i] @ X[i])
        rd = np.linalg.norm(Rp[i] @ X[i])
        assert hd == pytest.approx(rd, rel=1e-9)
        dh = np.linalg.det(H[i].conj().T @ H[i]).real
        dr = abs(np.linalg.det(Rp[i])) ** 2
        assert dh == pytest.approx(dr, rel=1e-9)
        assert np.allclose(Rp[i], np.triu(Rp[i]), atol=1e-12)
        assert np.all(np.diag(Rp[i]).real > 0)
        assert np.allclose(np.diag(Rp[i]).imag, 0, atol=1e-12)


def test_qr_reduce_orthonormal_columns():
    Q = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 2))
                     + 1j * np.random.default_rng(4).normal(size=(3, 2)))[0]
    H = Q[None, :, :]
    Y = complex_gaussian(philox(23, 0), (1, 3, 2))
    Yp, Rp = qr_reduce(Y, H)
    assert np.allclose(Rp[0], np.eye(2), atol=1e-9)
    assert np.allclose(Yp[0], Q.conj().T @ Y[0], atol=1e-9)


def test_qr_reduce_refuses_rank_deficient_block():
    # the second block has rank 1: the channel's one rank rule refuses it
    H = complex_gaussian(philox(37, 0), (2, 3, 2))
    H[1, :, 1] = 2j * H[1, :, 0]
    with pytest.raises(SingularChannel, match="numerically rank deficient"):
        qr_reduce(H @ np.eye(2), H)


def test_qr_decode_equivalence(golden_lattice):
    trials = 50
    for t in range(trials):
        H = complex_gaussian(philox(29, 2, t), (1, 3, 2))
        X = golden_lattice.point(philox(29, 3, t).integers(-2, 3, size=8))
        Y = H @ X + 0.3 * complex_gaussian(philox(29, 4, t), (1, 3, 2))
        res_a = LatticeDecoder(H, 1.0, golden_lattice).decode(Y)
        Yp, Rp = qr_reduce(Y, H)
        res_b = LatticeDecoder(Rp, 1.0, golden_lattice).decode(Yp)
        assert list(res_a.coords) == list(res_b.coords)


def test_mismatched_bound_identity():
    H = np.eye(2, dtype=complex)
    assert mismatched_bound(H, H) == pytest.approx(2.0, rel=1e-12)


def test_mismatched_bound_diagonal_example():
    H = np.diag([0.0, 2.0]).astype(complex)
    X = np.diag([3.0, 1.0]).astype(complex)
    bound = mismatched_bound(H, X)
    assert bound == pytest.approx(4.0, rel=1e-12)
    assert np.sum(np.abs(H @ X) ** 2) == pytest.approx(4.0, rel=1e-12)


def test_mismatched_bound_random_inequality():
    gen = philox(31, 0)
    for _ in range(1000):
        H = complex_gaussian(gen, (2, 3))  # n_r = 2 < n = 3 allowed
        X = complex_gaussian(gen, (3, 3))
        bound = mismatched_bound(H, X)
        actual = float(np.sum(np.abs(H @ X) ** 2))
        assert bound <= actual * (1 + 1e-9) + 1e-9


def test_budget_returns_babai_flagged(golden_lattice):
    # budget large enough for the first (Babai) leaf, too small for the tree
    H = complex_gaussian(philox(37, 0), (1, 2, 2))
    Y = complex_gaussian(philox(37, 1), (1, 2, 2))
    dec = LatticeDecoder(H, 1.0, golden_lattice)
    full = dec.decode(Y)
    assert full.nodes > 12
    res = dec.decode(Y, budget=12)
    assert res.approximate
    assert res.nodes == 12      # a cut-off search reports its budget
    assert res.coords is not None
    assert res.metric >= full.metric - 1e-12


def test_wer_monotone_in_power(golden_lattice):
    # sanity: word error rate does not increase with power on a fixed seed grid
    from multiblock.channel import FadingModel
    from multiblock.sim import simulate_codebook_wer
    model = FadingModel(kind="constant", n=2, n_r=2,
                        fixed_H=np.eye(2, dtype=complex))
    books = carve(golden_lattice, [10 ** (snr_db / 10)
                                   for snr_db in (2.0, 8.0, 14.0)],
                  0.75, trials=4, seed=41)
    wers = [pts[0].wer for pts in simulate_codebook_wer(books, model, 200,
                                                        seed=43,
                                                        decoders=("ml",))]
    assert wers[0] >= wers[1] >= wers[2]


# -- stacks of received words against the single-word arithmetic -------------

STACK_CASES = [("golden_lattice", 2), ("golden_lattice", 3), ("qi_lattice", 2)]


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _stack(lat, n_r, seed, words=40):
    [book] = carve(lat, [10 ** 1.2], 1.0, trials=4, seed=seed)
    gen = philox(seed, n_r)
    H = complex_gaussian(gen, (words, lat.k, n_r, lat.n))
    idx = gen.integers(len(book), size=words)
    Y = H @ book.matrices[idx] + complex_gaussian(gen, H.shape)
    return book, H, idx, Y


@pytest.mark.parametrize("lattice_name,n_r", STACK_CASES)
def test_stacked_ml_decode_matches_single_word_formula(request, lattice_name,
                                                       n_r):
    book, H, _, Y = _stack(request.getfixturevalue(lattice_name), n_r, 41)
    res = ml_decode(Y, H, book)
    assert res.nodes == len(Y) * len(book)
    for t in range(len(Y)):
        metrics = np.sum(np.abs(Y[t][None] - H[t][None] @ book.matrices) ** 2,
                         axis=(1, 2, 3))
        idx = int(np.argmin(metrics))
        assert (res.index[t], res.metric[t]) == (idx, metrics[idx])
        assert list(res.coords[t]) == list(book.coords[idx])


@pytest.mark.parametrize("lattice_name,n_r", STACK_CASES)
def test_stacked_decodes_to_searches_single_word_targets(request, monkeypatch,
                                                         lattice_name, n_r):
    # the span coordinates of each search of a stack carry the bits of its
    # own residual W_t = Y_t - H X_t, each row is decided as a stack of one
    # decides it, and the decision is the naive decoder's error event: ok
    # iff decode(Y_t) returns the sent point
    lat = request.getfixturevalue(lattice_name)
    book, H, idx, _ = _stack(lat, n_r, 43)
    dec = LatticeDecoder(H[0], book.alpha, lat, book.shift)
    # one fade for every word, and noise on the scale of the faded lattice's
    # shortest vector, so that some words decode and some do not
    lam1 = np.sqrt(dec.prepared.shortest()[0])
    sent = book.matrices[idx]
    Y = H[0] @ sent + 0.4 * lam1 * complex_gaussian(philox(43, 0), H.shape)
    W = Y - H[0] @ sent
    searched = []
    search = PreparedCVP.exists_closer

    def recording(self, y, budget):
        searched.append(y)
        return search(self, y, budget)

    monkeypatch.setattr(PreparedCVP, "exists_closer", recording)
    outcomes = dec.decodes_to(W)
    assert len(searched) == len(W)
    for t, y in enumerate(searched):
        assert _bits(y) == _bits(dec.prepared.Q.T @ realify(W[t]))
    assert outcomes == [dec.decodes_to(W[t:t + 1])[0] for t in range(len(W))]
    for t, (ok, _) in enumerate(outcomes):
        assert ok == (dec.decode(Y[t]).coords == list(book.coords[idx[t]]))
    assert any(ok for ok, _ in outcomes) and not all(ok for ok, _ in outcomes)


def test_empty_residual_stack_decides_nothing(golden_lattice):
    # a chunk whose every trial is certified leaves an empty stack to search
    k = golden_lattice.k
    dec = LatticeDecoder(np.broadcast_to(np.eye(2, dtype=complex), (k, 2, 2)),
                         1.0, golden_lattice)
    assert dec.decodes_to(np.zeros((0, k, 2, 2), dtype=complex)) == []
    y, offset2 = dec.prepared.project(np.zeros((0, dec.prepared.Q.shape[0])))
    assert y.shape == (0, dec.prepared.rank) and offset2.shape == (0,)


def test_empty_fade_stack_decides_nothing(golden_lattice):
    k = golden_lattice.k
    empty = np.zeros((0, k, 2, 2), dtype=complex)
    assert faded_decodes_to(empty, 1.0, golden_lattice, empty) == []


@pytest.mark.parametrize("entry", [0.0, np.nan])
def test_degenerate_fade_raises_before_any_search(golden_lattice, monkeypatch,
                                                  entry):
    # one hand-built fade of a stack is all `entry`: its faded basis has zero
    # pivots (a zero fade) or non-finite ones, which no search may read
    H = complex_gaussian(philox(47, 0), (3, golden_lattice.k, 2, 2))
    H[1] = entry
    W = complex_gaussian(philox(47, 1), H.shape)

    def no_search(*args):
        raise AssertionError("searched a degenerate lattice")

    monkeypatch.setattr(PreparedCVP, "exists_closer", no_search)
    with pytest.raises(DegenerateLattice):
        faded_decodes_to(H, 1.0, golden_lattice, W)


def test_ml_decodes_the_sent_word_where_far_metrics_overflow(qi_lattice):
    # at 3080 dB the metrics of far codewords overflow to inf; the sent
    # word's is the noise energy, so it is still the decision, and no
    # overflow warning is raised
    [book] = carve(qi_lattice, [10.0 ** 308], 1.0, trials=4, seed=1)
    gen = philox(3, 0)
    idx = gen.integers(len(book), size=40)
    H = complex_gaussian(gen, (40, 1, 1, 1))
    Y = H @ book.matrices[idx] + complex_gaussian(gen, H.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ml_decode(Y, H, book)
    assert res.index.tolist() == idx.tolist()
