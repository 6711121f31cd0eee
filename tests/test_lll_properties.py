"""Property tests for the incremental LLL and for Schnorr-Euchner CVP.

The LLL is checked from its definition on a Gram-Schmidt orthogonalization
computed here, against the recompute-based oracles.reference_lll, and bit
for bit against the numpy-array version oracles.reference_numpy_lll; the
Schnorr-Euchner searches are checked against the exhaustive
oracles.brute_closest and oracles.brute_ball.  Hypothesis runs
derandomized, so every process draws the same examples.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiblock.errors import DegenerateLattice, PrecisionFailure
from multiblock.exact import bareiss_det
from multiblock.lattice import (LLL_DELTA, LLL_ETA, PreparedCVP,
                                closer_thresholds, field_lattice, lll_reduce,
                                realify)
from multiblock.rng import complex_gaussian, philox

from oracles import (brute_ball, brute_closest, reference_lll,
                     reference_numpy_lll)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)
ENTRY = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
# reducing this basis needs transform entries near 1e16 > 2^52
GUARD_BASIS = np.array([[1e-8, 0, 0], [1, 1e-8, 0], [1e8, 1, 1e-8]])


@st.composite
def full_rank_bases(draw, min_rank=2, max_rank=10, min_sv_ratio=1e-3):
    r = draw(st.integers(min_rank, max_rank))
    n = draw(st.integers(r, r + 3))
    b = draw(arrays(np.float64, (r, n), elements=ENTRY))
    sv = np.linalg.svd(b, compute_uv=False)
    assume(sv[-1] > min_sv_ratio * max(sv[0], 1e-3))
    return b


def gso(b):
    """Reference mu and squared Gram-Schmidt norms from a fresh QR."""
    R = np.linalg.qr(b.T, mode="r")
    d = np.diag(R)
    return (R / d[:, None]).T, d * d


def assert_lll_reduced(b, tol=1e-7):
    mu, B = gso(b)
    r = b.shape[0]
    assert np.all(np.abs(np.tril(mu, -1)) <= LLL_ETA + tol)
    for k in range(1, r):
        assert B[k] >= (LLL_DELTA - mu[k, k - 1] ** 2) * B[k - 1] * (1 - tol)


def assert_unimodular(U):
    assert abs(bareiss_det(np.asarray(U).tolist())) == 1


@PROPERTY
@given(full_rank_bases())
def test_lll_output_is_unimodular_image_and_reduced(basis):
    reduced, U = lll_reduce(basis)
    assert U.dtype == np.int64
    scale = max(1.0, float(np.abs(basis).max()) * float(np.abs(U).max()))
    assert np.allclose(U @ basis, reduced, rtol=0, atol=1e-9 * scale)
    assert_unimodular(U)
    assert_lll_reduced(reduced)


@PROPERTY
@given(full_rank_bases(max_rank=4, min_sv_ratio=0.05),
       arrays(np.float64, 7, elements=ENTRY))
def test_cvp_matches_brute_force(basis, raw_target):
    # the one walk under each leaf rule against the exhaustive box oracles:
    # the least leaf (closest), the first nonzero leaf closer than 0
    # (exists_closer) and every leaf (ball)
    target = raw_target[:basis.shape[1]]
    prep = PreparedCVP(basis)
    metric, coords, _, exact = prep.closest(target)
    assert exact
    oracle_metric, oracle_z = brute_closest(basis, target)
    assert metric == pytest.approx(oracle_metric, rel=1e-9, abs=1e-9)
    direct = float(np.sum((np.asarray(coords, float) @ basis - target) ** 2))
    assert direct == pytest.approx(metric, rel=1e-9, abs=1e-9)

    # the ball about the target through its closest point and that point's
    # neighbours along the shortest basis row; boundary points may go either
    # way within the ball's closed-ball slack
    radius = math.sqrt(oracle_metric) + float(np.min(np.linalg.norm(basis, axis=1)))
    tol = 1e-7 * max(radius * radius, 1.0)
    got, metrics, _ = prep.ball(target, radius)
    assert len(got) >= 3
    points = set(map(tuple, got.tolist()))
    assert len(points) == len(got)
    assert (brute_ball(basis, target, radius * radius - tol) <= points
            <= brute_ball(basis, target, radius * radius + tol))
    direct = np.sum((got @ basis - target) ** 2, axis=1)
    assert np.allclose(metrics, direct, rtol=1e-9, atol=1e-9)

    # a nonzero point closer than 0 exists iff the closest point is one;
    # a nonzero closest point in a near-tie with 0 may go either way.  The
    # target is mostly far from 0 and half of it often is not, so both
    # outcomes are drawn
    for w, (w_metric, w_z) in ((target, (oracle_metric, oracle_z)),
                               (0.5 * target, brute_closest(basis, 0.5 * target))):
        w2 = float(w @ w)
        assume(not (any(w_z) and abs(w_metric - w2) < 1e-9 * w2))
        y = prep.project(w)[0]
        found, _ = prep.exists_closer(y, closer_thresholds(y[None])[0])
        assert found == (any(w_z) and w_metric < w2)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 20.0))
def test_lll_agrees_with_reference_on_faded_golden(golden_lattice, seed, alpha):
    lat = golden_lattice
    H = complex_gaussian(philox(seed), (lat.k, 2, lat.n))
    basis = realify(np.einsum("irc,jicd->jird", H, alpha * lat.blocks))
    reduced, U = lll_reduce(basis)
    ref_reduced, ref_U = reference_lll(basis)
    for b, V in ((reduced, U), (ref_reduced, ref_U)):
        assert_unimodular(V)
        assert_lll_reduced(b)
    # same lattice: the change of basis between the two outputs is integral
    T = np.rint(reduced @ np.linalg.pinv(ref_reduced))
    assert np.allclose(T @ ref_reduced, reduced, atol=1e-8 * alpha)
    assert_unimodular(T.astype(np.int64))


def assert_same_lll(basis):
    """lll_reduce gives the numpy oracle's reduced rows and U bit for bit,
    or raises the same exception with the same message."""
    try:
        want_reduced, want_U = reference_numpy_lll(basis)
    except (DegenerateLattice, PrecisionFailure) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            lll_reduce(basis)
        return
    reduced, U = lll_reduce(basis)
    assert reduced.dtype == want_reduced.dtype
    assert reduced.tobytes() == want_reduced.tobytes()
    assert U.dtype == want_U.dtype and np.array_equal(U, want_U)


def test_lll_matches_numpy_oracle_on_catalog_lattices(catalog, golden_lattice,
                                                      zeta20_lattice):
    lattices = [field_lattice(catalog.field(name))
                for name in sorted(catalog.fields)]
    lattices += [golden_lattice, zeta20_lattice]
    assert len(lattices) == 11
    for lat in lattices:
        assert_same_lll(lat.real_basis)


def test_lll_matches_numpy_oracle_on_random_bases():
    # ranks 2..32, a few spare columns, each row scaled by e^u with u
    # uniform on [-4.5, 4.5]: swaps and size reductions far from unit
    gen = np.random.default_rng(20261020)
    for r in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 24,
              26, 28, 30, 32, 32):
        b = gen.standard_normal((r, r + int(gen.integers(0, 3))))
        assert_same_lll(b * np.exp(gen.uniform(-4.5, 4.5, (r, 1))))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 20.0))
def test_lll_matches_numpy_oracle_on_faded_golden(golden_lattice, seed, alpha):
    lat = golden_lattice
    H = complex_gaussian(philox(seed), (lat.k, 2, lat.n))
    assert_same_lll(realify(np.einsum("irc,jicd->jird", H, alpha * lat.blocks)))


def test_lll_matches_numpy_oracle_at_its_guards():
    # a GSO recompute (coefficient ~1e12 > 2^26), and the PrecisionFailure
    # raised before a transform entry leaves the exact range
    assert_same_lll(np.array([[1.0, 0.0], [1e12 + 0.3, 1e-3]]))
    with pytest.raises(PrecisionFailure):
        reference_numpy_lll(GUARD_BASIS)
    assert_same_lll(GUARD_BASIS)


def test_lll_large_coefficient_recomputes_gso():
    # the size-reduction coefficient ~1e12 exceeds the recompute threshold
    basis = np.array([[1.0, 0.0], [1e12 + 0.3, 1e-3]])
    reduced, U = lll_reduce(basis)
    exact = [[float(sum(Fraction(int(u)) * Fraction(float(x))
                        for u, x in zip(row, col)))
              for col in basis.T] for row in U]
    assert np.allclose(exact, reduced, rtol=0, atol=1e-12)
    assert_unimodular(U)
    assert_lll_reduced(reduced)


def test_lll_raises_before_transform_leaves_exact_range():
    with pytest.raises(PrecisionFailure):
        lll_reduce(GUARD_BASIS)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_lll_rejects_non_finite_entry(bad):
    # no reduction of such a basis terminates, so it must be refused up front
    basis = np.array([[1.0, 0, 0], [0, 1, bad], [0, 0, 1]])
    with pytest.raises(DegenerateLattice, match="non-finite"):
        lll_reduce(basis)
