import numpy as np
import pytest

from multiblock import lattice as lab
from multiblock.cli import main
from multiblock.errors import BudgetExceeded, EmptyBall, SingularChannel
from multiblock.lattice import (MatrixLattice, PreparedCVP, fade,
                                field_lattice, form_eval, hadamard_check,
                                hermite_invariant, invariant_report,
                                lll_reduce, min_pdet, normalized_min_det,
                                realify, sample_pdet1_fade)
from multiblock.rng import philox

from oracles import brute_closest, brute_shortest


def z2_lattice():
    blocks = np.zeros((2, 2, 1, 1), dtype=complex)
    blocks[0, 0, 0, 0] = 1
    blocks[1, 1, 0, 0] = 1
    return MatrixLattice(blocks)


def random_full_lattice(rng, n, k):
    r = 2 * n * n * k
    while True:
        blocks = rng.normal(size=(r, k, n, n)) + 1j * rng.normal(size=(r, k, n, n))
        try:
            return MatrixLattice(blocks)
        except Exception:
            continue


def test_realify_convention():
    # one block, 2x2: column-major per block, (Re, Im) interleaved
    X = np.array([[[1 + 2j, 5 + 6j], [3 + 4j, 7 + 8j]]])
    assert np.allclose(realify(X), [1, 2, 3, 4, 5, 6, 7, 8])


def test_gram_is_re_trace_inner_product(golden_lattice):
    L = golden_lattice
    for i in range(L.rank):
        for j in range(L.rank):
            direct = 0.0
            for b in range(L.k):
                direct += np.real(np.trace(L.blocks[i, b] @ L.blocks[j, b].conj().T))
            assert abs(L.gram[i, j] - direct) < 1e-9


def test_volume_squared_is_gram_det(golden_lattice):
    g = np.linalg.det(golden_lattice.gram)
    assert golden_lattice.volume ** 2 == pytest.approx(g, rel=1e-9)


def test_hexagonal_hermite_vs_bruteforce(hex_lattice):
    h, witness, _ = hermite_invariant(hex_lattice)
    norm2, _ = brute_shortest(hex_lattice.real_basis, box=3)
    assert h == pytest.approx(norm2 / hex_lattice.volume, rel=1e-12)
    assert h == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-12)
    pt = hex_lattice.point(witness)
    assert np.sum(np.abs(pt) ** 2) == pytest.approx(norm2, rel=1e-9)


def test_qi_hermite_is_one(qi_lattice):
    h, _, _ = hermite_invariant(qi_lattice)
    assert h == pytest.approx(1.0, rel=1e-12)


def test_cyclotomic_quartic_hermite(catalog):
    # shortest vector is a root of unity of squared norm k = 2
    L = field_lattice(catalog.field("cyclo5"))
    h, _, _ = hermite_invariant(L)
    assert h == pytest.approx(4.0 / 125.0 ** 0.25, rel=1e-9)
    norm2, _ = brute_shortest(L.real_basis, box=2)
    assert norm2 == pytest.approx(2.0, rel=1e-9)


def test_shortest_vector_matches_bruteforce_random():
    rng = np.random.default_rng(59)
    for _ in range(10):
        L = random_full_lattice(rng, 1, 2)
        norm2, coords, _ = PreparedCVP(L.real_basis).shortest()
        oracle, _ = brute_shortest(L.real_basis, box=3)
        assert norm2 == pytest.approx(oracle, rel=1e-9)


def test_golden_shortest_vector_vs_full_box(golden_lattice):
    # exhaustive [-3,3]^8 scan, chunked to keep memory flat
    import itertools
    B = golden_lattice.real_basis
    best = np.inf
    chunk = []
    for cand in itertools.product(range(-3, 4), repeat=8):
        chunk.append(cand)
        if len(chunk) == 262144:
            Z = np.array(chunk)
            Z = Z[np.any(Z != 0, axis=1)]
            best = min(best, float(np.min(np.sum((Z @ B) ** 2, axis=1))))
            chunk = []
    if chunk:
        Z = np.array(chunk)
        Z = Z[np.any(Z != 0, axis=1)]
        best = min(best, float(np.min(np.sum((Z @ B) ** 2, axis=1))))
    norm2, _, _ = PreparedCVP(B).shortest()
    assert norm2 == pytest.approx(best, rel=1e-9)


def test_cvp_matches_bruteforce_random():
    rng = np.random.default_rng(61)
    for _ in range(5):
        L = random_full_lattice(rng, 1, 2)
        prep = lab.PreparedCVP(L.real_basis)
        for _ in range(40):
            t = rng.normal(size=4) * 2.0
            metric, coords, _, exact = prep.closest(t)
            assert exact
            om, oc = brute_closest(L.real_basis, t)
            assert metric == pytest.approx(om, rel=1e-9, abs=1e-12)
            assert list(coords) == list(oc)


def test_min_pdet_qi(qi_lattice):
    val, witness = min_pdet(qi_lattice, 2.0)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert np.sum(np.abs(qi_lattice.point(witness)) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_min_pdet_cyclotomic_quartic(catalog):
    L = field_lattice(catalog.field("cyclo5"))
    val, _ = min_pdet(L, 3.0)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_min_pdet_zero_for_block_singular():
    val, _ = min_pdet(z2_lattice(), 1.5)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_min_pdet_empty_ball(qi_lattice):
    with pytest.raises(EmptyBall):
        min_pdet(qi_lattice, 0.5)


def test_normalized_min_det_closed_forms(catalog, qi_lattice, hex_lattice):
    assert normalized_min_det(qi_lattice, 1.0) == 1.0
    assert normalized_min_det(hex_lattice, 1.0) == pytest.approx(
        (4.0 / 3.0) ** 0.25, rel=1e-12)
    L5 = field_lattice(catalog.field("cyclo5"))
    assert normalized_min_det(L5, 1.0) == pytest.approx(
        (16.0 / 125.0) ** 0.25, rel=1e-12)


def test_fade_identity_keeps_gram(golden_lattice):
    H = np.broadcast_to(np.eye(2), (1, 2, 2)).astype(complex)
    faded = fade(golden_lattice, H)
    assert np.allclose(faded.gram, golden_lattice.gram, atol=1e-12)


def test_fade_volume_scaling(catalog):
    L = field_lattice(catalog.field("cyclo5"))
    H = np.array([[[2.0]], [[0.5]]], dtype=complex)  # pdet = 1
    faded = fade(L, H)
    assert faded.volume == pytest.approx(L.volume, rel=1e-8)
    rng = np.random.default_rng(67)
    H2 = rng.normal(size=(2, 1, 1)) + 1j * rng.normal(size=(2, 1, 1))
    faded2 = fade(L, H2)
    scale = np.abs(np.prod(np.linalg.det(H2))) ** (2 * L.n)
    assert faded2.volume == pytest.approx(scale * L.volume, rel=1e-8)


def test_fade_inverse_restores_gram(golden_lattice):
    rng = np.random.default_rng(71)
    H = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
    faded = fade(golden_lattice, H)
    restored = fade(faded, np.linalg.inv(H))
    assert np.max(np.abs(restored.gram - golden_lattice.gram)) < 1e-7


def test_fade_rejects_singular(golden_lattice):
    # the zero block, and a rank-1 block at scale 1e3 whose |det| of about
    # 1e-8 passes an absolute determinant threshold: the channel's rank
    # rule, relative to the largest singular value, refuses both
    rank1 = np.full((1, 2, 2), 1e3, dtype=complex)
    rank1[0, 1, 1] *= 1 + 1e-14
    for H in (np.zeros((1, 2, 2), dtype=complex), rank1):
        with pytest.raises(SingularChannel, match="numerically rank deficient"):
            fade(golden_lattice, H)


def test_volume_alpha_scaling(golden_lattice):
    alpha = 1.7
    scaled = MatrixLattice(alpha * golden_lattice.blocks)
    assert scaled.volume == pytest.approx(
        alpha ** golden_lattice.rank * golden_lattice.volume, rel=1e-9)


def test_hadamard_equality_at_identity():
    lhs, rhs = hadamard_check(np.eye(1)[None, :, :])
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)


def test_hadamard_diagonal_example():
    X = np.array([[[2.0]], [[0.5]]], dtype=complex)
    lhs, rhs = hadamard_check(X)
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(2.125)


def test_hadamard_random_inequality():
    rng = np.random.default_rng(73)
    for _ in range(100):
        X = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        lhs, rhs = hadamard_check(X)
        assert lhs <= rhs * (1 + 1e-12)


def test_form_values():
    assert form_eval("f1", np.array([1.0, 1j])) == pytest.approx(2.0)
    assert form_eval("f2", np.array([2.0, 0.5])) == pytest.approx(1.0)
    X = np.stack([np.eye(2), 2 * np.eye(2)]).astype(complex)
    assert form_eval("f3", X) == pytest.approx(4.0)


def test_form_homogeneity():
    rng = np.random.default_rng(79)
    k, n = 3, 2
    X = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    vec = rng.normal(size=k) + 1j * rng.normal(size=k)
    for alpha in (0.3, 2.7):
        assert form_eval("f1", alpha * X) == pytest.approx(
            alpha ** 2 * form_eval("f1", X), rel=1e-9)
        assert form_eval("f2", alpha * vec) == pytest.approx(
            alpha ** k * form_eval("f2", vec), rel=1e-9)
        assert form_eval("f3", alpha * X) == pytest.approx(
            alpha ** (n * k) * form_eval("f3", X), rel=1e-9)


def test_form_shape_mismatch():
    with pytest.raises(ValueError):
        form_eval("f2", np.ones((2, 2, 2)))


def test_lll_preserves_lattice():
    rng = np.random.default_rng(83)
    B = rng.normal(size=(6, 8))
    reduced, U = lll_reduce(B)
    assert np.allclose(np.array(U, dtype=float) @ B, reduced, atol=1e-9)
    det = round(np.linalg.det(np.array(U, dtype=float)))
    assert det in (-1, 1)


def test_proposition1_chain_sampled_fades(hex_lattice, golden_lattice):
    # pdet-1 fades never push a certified-pdet point below nk det_min^{2/nk}
    for lat, samples in ((hex_lattice, 30), (golden_lattice, 10)):
        nk = lat.n * lat.k
        bound = nk  # det_min = 1 for these lattices
        for t in range(samples):
            gen = philox(9100, t)
            H = sample_pdet1_fade(lat.n, lat.k, gen)
            faded = fade(lat, H)
            coords, _, _ = PreparedCVP(faded.real_basis).ball(
                np.zeros(faded.real_basis.shape[1]), np.sqrt(bound) * 1.2)
            nz = coords[np.any(coords != 0, axis=1)]
            if len(nz) == 0:
                continue
            pts = faded.points(nz)
            norms = np.sum(np.abs(pts) ** 2, axis=(1, 2, 3))
            dets = np.abs(np.prod(np.linalg.det(pts), axis=1))
            certified = dets >= 1.0 - 1e-6
            assert np.all(norms[certified] >= nk * dets[certified] ** (2.0 / nk) - 1e-9)


def test_homogeneous_minima_match_invariants(catalog, hex_lattice, golden_lattice):
    # on a unit-covolume rescaling (by c = Vol^{-1/rank}), the three forms
    # at the witness points of the invariants' own searches are the three
    # classical invariants; min_pdet searches the ball of radius r / c,
    # which rescales to radius r
    def unit_point(lat, coords):
        return lat.point(coords) * lat.volume ** (-1.0 / lat.rank)

    h, coords, _ = hermite_invariant(hex_lattice)
    assert form_eval("f1", unit_point(hex_lattice, coords)) == pytest.approx(
        h, rel=1e-9)
    for form, lat, r, rel in (("f2", hex_lattice, 2.0, 1e-9),
                              ("f3", golden_lattice, 2.5, 1e-6)):
        _, wit = min_pdet(lat, r * lat.volume ** (1.0 / lat.rank))
        assert form_eval(form, unit_point(lat, wit)) == pytest.approx(
            normalized_min_det(lat, 1.0), rel=rel)


def test_exists_closer_matches_full_cvp(golden_lattice):
    # the early-exit error check agrees with full CVP on whether the zero
    # point is the closest lattice point
    from multiblock.lattice import PreparedCVP
    prep = PreparedCVP(golden_lattice.real_basis)
    gen = philox(91, 0)
    disagreements = 0
    errors = 0
    for _ in range(300):
        w = 1.1 * gen.normal(size=golden_lattice.real_basis.shape[1])
        found, _ = prep.exists_closer(prep.project(w)[0])
        _, coords, _, _ = prep.closest(w)
        cvp_moved = any(coords)
        errors += cvp_moved
        if found != cvp_moved:
            disagreements += 1
    assert disagreements == 0
    assert 0 < errors < 300  # both outcomes exercised


def test_exists_closer_reads_only_span_coordinates(golden_lattice):
    # golden faded by the 3 x 2 identity: dimension 12 above rank 8.  A
    # target's distance to the span adds the same amount to its distance
    # from 0 and from every lattice point, so the search on y alone agrees
    # with full CVP on targets far outside the span
    H = np.broadcast_to(np.eye(3, 2, dtype=complex), (golden_lattice.k, 3, 2))
    prep = golden_lattice.faded_cvp(H)
    assert prep.Q.shape == (12, 8)
    complement = np.linalg.qr(prep.Q, mode="complete")[0][:, prep.rank:]
    gen = philox(93, 0)
    moved = 0
    for _ in range(200):
        target = (prep.Q @ (0.4 * gen.normal(size=prep.rank))
                  + 50.0 * complement @ gen.normal(size=complement.shape[1]))
        y, offset2 = prep.project(target)
        assert offset2 > 100.0 * float(y @ y)
        found, _ = prep.exists_closer(y)
        _, coords, _, _ = prep.closest(target)
        assert found == any(coords)
        moved += found
    assert 0 < moved < 200  # both outcomes exercised


def test_rh_lower_bounds_hermite(catalog, golden_lattice, zeta20_lattice):
    from multiblock.lattice import invariant_report
    lattices = [field_lattice(catalog.field(n))
                for n in ("q_i", "q_omega", "cyclo5", "quartic117")]
    lattices += [golden_lattice, zeta20_lattice]
    for lat in lattices:
        assert lat.det_min == 1.0
        rep = invariant_report(lat)
        assert rep.det_min_certificate == "algebraic"
        assert rep.rh_lower <= rep.hermite + 1e-9
        assert rep.delta > 0 and rep.volume > 0
    # without a certified det_min the report enumerates one
    rep = invariant_report(MatrixLattice(field_lattice(catalog.field("q_i")).blocks))
    assert rep.det_min_certificate == "enumerated-upper-bound"
    assert rep.det_min == pytest.approx(1.0)


def test_budget_exceeded_raises_and_exits_3(golden_lattice, capsys):
    # a search cut off by its node budget raises with its message alone; on
    # the command line that is one numerical-failure line and exit 3
    with pytest.raises(BudgetExceeded, match="exceeded 3 nodes"):
        PreparedCVP(golden_lattice.real_basis).shortest(budget=3)
    assert main(["invariants", "--field", "q_i", "--budget", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: ")
    assert len(err.splitlines()) == 1


def test_lattice_search_preparation_is_cached(q_i, monkeypatch):
    calls = []
    original = lab.lll_reduce

    def counting(basis):
        calls.append(1)
        return original(basis)

    monkeypatch.setattr(lab, "lll_reduce", counting)
    lat = field_lattice(q_i)
    assert lat.cvp is lat.cvp
    assert len(calls) == 1
    # Hermite invariant and enumerated det_min share that one preparation
    rep = invariant_report(MatrixLattice(field_lattice(q_i).blocks))
    assert rep.det_min_certificate == "enumerated-upper-bound"
    assert rep.hermite == pytest.approx(1.0) and rep.det_min == pytest.approx(1.0)
    assert len(calls) == 2
