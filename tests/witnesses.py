"""Witnesses of the paper's side claims that no command runs, each naming
the claim its tests check."""

import numpy as np

from multiblock.channel import check_full_rank
from multiblock.cyclic_algebra import CyclicAlgebra
from multiblock.lattice import MatrixLattice, fade_blocks
from multiblock.rng import complex_gaussian


def pdet(blocks):
    """Product of block determinants."""
    return complex(np.prod(np.linalg.det(np.asarray(blocks))))


def fade(lat, H):
    """Lattice with basis H_d B_1, ..., H_d B_r for square blocks H_i, under
    the channel's rank rule.  With `sample_pdet1_fade`: the faded lattices
    HL on which the tests witness h(HL) >= nk delta^{2/nk} over pdet-1 fades
    (acceptance criterion 4, Proposition 1)."""
    check_full_rank(H)
    return MatrixLattice(fade_blocks(H, lat.blocks))


def sample_pdet1_fade(n, k, gen):
    """One random fade with pdet = 1: complex Gaussian blocks, rejection
    sampled until the smallest singular value is at least 0.05 of the
    largest, rescaled to unit product determinant.  The fades of the
    reduced Hermite bound's witness (see `fade`)."""
    while True:
        H = complex_gaussian(gen, (k, n, n))
        sv = np.linalg.svd(H, compute_uv=False)
        if sv[..., -1].min() >= 0.05 * sv[..., 0].max():
            break
    return H / (pdet(H) ** (1.0 / (n * k)))


def qr_reduce(Y, H):
    """Per-block thin QR under the channel's rank rule: H_i = Q_i' R_i' with
    R_i' upper triangular n x n and positive real diagonal; Y_i' =
    Q_i'^dag Y_i.  Distances to lattice points are preserved: ||H_i X|| =
    ||R_i' X||.  Witness of the paper's n_r > n QR-reduction equivalence
    (acceptance criterion 7)."""
    check_full_rank(H)
    Q, R = np.linalg.qr(H, mode="reduced")
    d = np.diagonal(R, axis1=1, axis2=2)
    u = (d / np.abs(d))[:, None, :]         # the phase of each column
    return (Q * u).conj().swapaxes(1, 2) @ Y, R * u.conj().swapaxes(1, 2)


def mismatched_bound(H, X):
    """Lower bound sum_j lambda_j l_j <= ||H X||^2 with the eigenvalues of
    H^dag H ascending and those of X X^dag descending.  Witness of the
    paper's mismatched eigenvalue bound (n_r < n allowed)."""
    lam = np.clip(np.linalg.eigvalsh(H.conj().T @ H), 0.0, None)
    ell = np.clip(np.linalg.eigvalsh(X @ X.conj().T)[::-1], 0.0, None)
    return float(lam @ ell)


def trivial_algebra(field):
    """Degree-1 algebra: the center itself, phi(a) the 1x1 matrix (a).
    Witness that the order discriminant reduces to the field discriminant
    at n = 1, where the algebra codes are the field codes."""
    one = field.one()
    return CyclicAlgebra(name=f"trivial_{field.name}", center=field, n=1,
                         rel_poly=[-one, one], sigma_eta=(one,), gamma=one,
                         rel_basis=[(one,)], division_asserted=True)


def algebra_one(alg):
    """The unit 1 = u^0 1 of a cyclic algebra, as the tuple of its n
    E-coefficients.  Witness that phi(1) is the identity at every embedding
    and that the natural order holds 1, as an order must for its lattice's
    certified det_min = 1."""
    one = alg.e_scalar(alg.center.one())
    return (one,) + (alg.e_zero(),) * (alg.n - 1)


def algebra_u(alg):
    """The generator u of a cyclic algebra: the coefficient 1 at u^1, or
    for n = 1, where u = u^n, gamma at u^0.  Witness that phi(u)^n = gamma
    at every embedding, the relation u^n = gamma of the cyclic algebra."""
    one = alg.e_scalar(alg.center.one())
    if alg.n == 1:
        return (alg.e_scale(one, alg.gamma),)
    return (alg.e_zero(), one) + (alg.e_zero(),) * (alg.n - 2)
