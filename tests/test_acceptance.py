"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values once its assertions hold.

Run as `pytest tests/test_acceptance.py -v -s`.
"""

import math
import zlib

import numpy as np
import pytest

from multiblock import ratecalc as rc
from multiblock.channel import FadingModel
from multiblock.cyclic_algebra import NaturalOrder, order_lattice
from multiblock.lattice import (PreparedCVP, fade, field_lattice,
                                hermite_invariant, min_pdet,
                                normalized_min_det, pdet, sample_pdet1_fade)
from multiblock.rng import philox
from multiblock.sim import simulate_infinite_wer

from oracles import brute_closest

GAMMA = rc.EULER_GAMMA
LN2 = math.log(2.0)


def report(tag, detail):
    print(f"\n[PASS] {tag}: {detail}")


def nvd_lattices(catalog):
    """Every catalog lattice carrying the algebraic det_min = 1 certificate."""
    out = [(name, field_lattice(f)) for name, f in sorted(catalog.fields.items())]
    for name, alg in sorted(catalog.algebras.items()):
        if alg.division_asserted:
            out.append((name, order_lattice(NaturalOrder(alg))))
    return out


# -- 1 ------------------------------------------------------------------------

def test_criterion_01_algebraic_identity_suite(catalog):
    for name, f in catalog.fields.items():
        lat = field_lattice(f)
        expect = 2.0 ** (-f.k) * math.sqrt(abs(f.discriminant()))
        assert abs(lat.volume - expect) <= 1e-9 * expect, name
    qi = field_lattice(catalog.field("q_i"))
    assert normalized_min_det(qi, 1.0) == 1.0
    report("criterion 1", "Vol = 2^-k sqrt|d_K| (<=1e-9 rel) on "
           f"{len(catalog.fields)} fields; delta(q_i) = 1 exactly")


# -- 2 ------------------------------------------------------------------------

def test_criterion_02_table_reproduction(catalog):
    rd1 = catalog.field("q_omega").root_discriminant()
    rd2 = catalog.field("quartic117").root_discriminant()
    assert abs(rd1 - 1.732) < 1e-3
    assert abs(rd2 - 3.289) < 1e-3
    # unmet targets are flagged, never silently passed
    for f in catalog.fields.values():
        if f.meets_table_target() is False:
            assert f.suboptimal, f.name
    report("criterion 2", f"k=1 root disc {rd1:.4f}, k=2 root disc {rd2:.4f}; "
           "all unmet Table-I targets carry the suboptimal flag")


# -- 3 ------------------------------------------------------------------------

def test_criterion_03_nvd_certificate(catalog):
    for name, alg in sorted(catalog.algebras.items()):
        order = NaturalOrder(alg)
        lat = order_lattice(order)
        gen = philox(303, zlib.crc32(name.encode()) % 1000)
        Z = gen.integers(-2, 3, size=(1100, lat.rank))
        Z = Z[np.any(Z != 0, axis=1)][:1000]
        assert len(Z) == 1000
        pts = lat.points(Z)
        vals = np.abs(np.prod(np.linalg.det(pts), axis=1)) ** 2
        nearest = np.rint(vals)
        assert np.all(nearest >= 1), name
        assert np.all(np.abs(vals - nearest) <= 1e-6 * np.maximum(1.0, vals)), name
        ball_min, _ = min_pdet(lat, 1.5 * math.sqrt(lat.n * lat.k))
        assert abs(ball_min - 1.0) <= 1e-6, name
        report("criterion 3", f"{name}: 1000 random |pdet|^2 integral "
               f"(max residual {np.max(np.abs(vals - nearest) / np.maximum(1.0, vals)):.2e}), "
               f"ball min = {ball_min:.6f}")


# -- 4 ------------------------------------------------------------------------

def test_criterion_04_reduced_hermite_chain(catalog):
    for name, lat in nvd_lattices(catalog):
        nk = lat.n * lat.k
        delta = normalized_min_det(lat, 1.0)
        rh = nk * delta ** (2.0 / nk)
        bound_metric = (rh - 1e-9) * lat.volume ** (2.0 / lat.rank)
        for t in range(100):
            H = sample_pdet1_fade(lat.n, lat.k, philox(404, t, lat.rank))
            norm2, _, _ = fade(lat, H).cvp.shortest()
            assert norm2 >= bound_metric, (name, t)
        # adversarial fade built from the delta witness approaches equality
        _, wit = min_pdet(lat, 1.5 * math.sqrt(nk))
        X = lat.point(wit)
        H_adv = pdet(X) ** (1.0 / nk) * np.linalg.inv(X)
        assert abs(pdet(H_adv) - 1.0) < 1e-9
        h_adv, _, _ = hermite_invariant(fade(lat, H_adv))
        assert h_adv >= rh - 1e-9
        assert h_adv <= rh * 1.05
        report("criterion 4", f"{name}: 100 pdet-1 fades respect h(HL) >= "
               f"{rh:.6f}; adversarial fade h = {h_adv:.6f} "
               f"(ratio {h_adv / rh:.4f})")


# -- 5 ------------------------------------------------------------------------

def test_criterion_05_digamma_rate_formula():
    samples = 100000
    for n, n_r in ((1, 1), (1, 2), (2, 2), (2, 3)):
        gen = philox(505, n, n_r)
        H = (gen.normal(size=(samples, n_r, n))
             + 1j * gen.normal(size=(samples, n_r, n))) / math.sqrt(2.0)
        vals = np.linalg.slogdet(H.conj().swapaxes(1, 2) @ H)[1] / LN2
        stderr = vals.std(ddof=1) / math.sqrt(samples)
        closed = rc.expected_logdet_rayleigh(n, n_r)
        assert abs(vals.mean() - closed) <= 3 * stderr, (n, n_r)
        report("criterion 5", f"(n={n}, nr={n_r}): MC {vals.mean():+.5f} vs "
               f"digamma sum {closed:+.5f} ({abs(vals.mean() - closed) / stderr:.2f} se)")


# -- 6 ------------------------------------------------------------------------

def test_criterion_06_chernoff_suite():
    # solver residual and the forced point
    v = rc.chernoff_vdelta(1, 1, 2.0 * LN2)
    assert abs(v - 0.5) <= 1e-9
    for n in (1, 2, 3):
        for n_r in range(n, 4):
            for delta in (0.1, 0.5, 1.0):
                vv = rc.chernoff_vdelta(n, n_r, delta)
                resid = abs(sum(rc.digamma(l) - rc.digamma(l - vv)
                                for l in range(n_r - n + 1, n_r + 1)) - delta)
                assert resid < 1e-10
                assert rc.chernoff_exponent(n, n_r, delta) > 0.0
    # empirical large-deviation decay, SISO, delta chosen observable at k=200
    delta = 0.3
    K = rc.chernoff_exponent(1, 1, delta)
    paths = 100000
    rates = {}
    for k in (50, 100, 200):
        hits = 0
        for c in range(10):
            gen = philox(606, k, c)
            e = gen.exponential(size=(paths // 10, k))
            hits += int(np.sum(np.log(e).mean(axis=1) < -GAMMA - delta))
        phat = hits / paths
        assert phat >= math.exp(-k * (K + 0.1)), k
        assert phat <= math.exp(-k * (K - 0.1)), k
        rates[k] = phat
    report("criterion 6", f"v(2ln2) = {v:.10f}; K > 0 on grid; decay at "
           f"delta={delta}, K={K:.4f}: " +
           ", ".join(f"P(k={k}) = {p:.2e}" for k, p in rates.items()))


# -- 7 ------------------------------------------------------------------------

def test_criterion_07_decoder_equivalence(golden_lattice):
    from multiblock.decoder import LatticeDecoder, qr_reduce
    trials = 1000
    worst = 0.0
    for t in range(trials):
        H = (philox(707, t, 0).normal(size=(1, 3, 2))
             + 1j * philox(707, t, 1).normal(size=(1, 3, 2))) / math.sqrt(2.0)
        coords = philox(707, t, 2).integers(-2, 3, size=8)
        X = golden_lattice.point(coords)
        W = (philox(707, t, 3).normal(size=(1, 3, 2))
             + 1j * philox(707, t, 4).normal(size=(1, 3, 2))) * 0.25
        Y = H @ X + W
        res_a = LatticeDecoder(H, 1.0, golden_lattice).decode(Y)
        Yp, Rp = qr_reduce(Y, H)
        res_b = LatticeDecoder(Rp, 1.0, golden_lattice).decode(Yp)
        assert list(res_a.coords) == list(res_b.coords), t
        # d_H = d_R': the faded metrics agree on the decoded point
        xhat = golden_lattice.point(res_a.coords)
        dh = float(np.sum(np.abs(H[0] @ xhat[0]) ** 2))
        dr = float(np.sum(np.abs(Rp[0] @ xhat[0]) ** 2))
        worst = max(worst, abs(dh - dr))
        assert abs(dh - dr) <= 1e-9 * max(1.0, dh)
    report("criterion 7", f"1000 trials (n=2, nr=3): identical coordinates, "
           f"max |d_H - d_R'| = {worst:.2e}")


# -- 8 ------------------------------------------------------------------------

def test_criterion_08_sphere_decoder_oracle(catalog, golden_lattice):
    from multiblock.lattice import lll_reduce
    cases = [("q_i", field_lattice(catalog.field("q_i"))),
             ("q_omega", field_lattice(catalog.field("q_omega"))),
             ("cyclo5", field_lattice(catalog.field("cyclo5"))),
             ("quartic117", field_lattice(catalog.field("quartic117"))),
             ("sextic9747", field_lattice(catalog.field("sextic9747"))),
             ("golden", golden_lattice)]
    for name, lat in cases:
        assert lat.rank <= 8
        prep = PreparedCVP(lat.real_basis)
        # the exhaustive-box oracle runs on a reduced copy of the same
        # lattice; agreement is checked on the returned points, which are
        # basis independent
        reduced, _ = lll_reduce(lat.real_basis)
        gen = philox(808, lat.rank)
        nontrivial = 0
        for t in range(1000):
            u = 2.0 * (gen.random(lat.rank) - 0.5)
            target = u @ lat.real_basis + 0.5 * gen.normal(size=lat.real_basis.shape[1])
            metric, coords, _, exact = prep.closest(target)
            assert exact
            om, oc = brute_closest(reduced, target)
            point_se = np.asarray(coords, float) @ lat.real_basis
            point_or = np.asarray(oc, float) @ reduced
            assert metric == pytest.approx(om, rel=1e-9, abs=1e-12), (name, t)
            assert np.allclose(point_se, point_or, atol=1e-9), (name, t)
            babai = np.rint(np.linalg.pinv(lat.real_basis.T) @ target)
            if list(babai.astype(int)) != list(coords):
                nontrivial += 1
        report("criterion 8", f"{name} (rank {lat.rank}): 1000 exact CVP "
               f"matches, {nontrivial} beyond Babai")


# -- 9 ------------------------------------------------------------------------

def test_criterion_09_error_probability_trend(catalog):
    P = 100.0   # 20 dB
    h = 1.0
    model = FadingModel(kind="constant", n=1, n_r=1,
                        fixed_H=np.array([[h]], dtype=complex))
    # family bound on Vol^{1/k} over the power-of-two cyclotomic tower
    C_L = 8.0
    bound = (math.log2(P * abs(h) ** 2) - math.log2(C_L)
             + math.log2(math.pi * math.e / 4.0))
    rate = bound - 1.0
    fields = {1: "q_i", 2: "cyclo8", 4: "cyclo16", 8: "cyclo32"}
    wers = {}
    for k, fname in fields.items():
        lat = field_lattice(catalog.field(fname))
        pt = simulate_infinite_wer(lat, model, P, rate, trials=10000, seed=1729)
        wers[k] = pt.wer
    ks = sorted(wers)
    for a, b in zip(ks, ks[1:]):
        assert wers[b] <= wers[a], wers
    assert wers[8] < 1e-3
    # the same run one bit above white-input capacity does not converge
    rate_above = math.log2(1 + P * abs(h) ** 2) + 1.0
    lat8 = field_lattice(catalog.field("cyclo32"))
    pt_above = simulate_infinite_wer(lat8, model, P, rate_above,
                                     trials=10000, seed=1729)
    assert pt_above.wer > 0.3
    report("criterion 9", "WER at rate bound-1: " +
           ", ".join(f"k={k}: {wers[k]:.4f}" for k in ks) +
           f"; above capacity at k=8: {pt_above.wer:.3f}")


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_gap_constants():
    gaps = rc.gap_constants()
    assert abs(gaps["martinet"] - math.log2(2 * 92.368 / (math.pi * math.e))) < 1e-12
    assert abs(gaps["martinet"] - 4.435) < 1e-3
    assert abs(gaps["odlyzko"] - 2.385) < 1e-3
    assert abs(gaps["minkowski_hlawka"] - 2.0) < 1e-3
    report("criterion 10", f"martinet {gaps['martinet']:.4f}, "
           f"odlyzko {gaps['odlyzko']:.4f}, "
           f"minkowski-hlawka {gaps['minkowski_hlawka']:.6f}")
