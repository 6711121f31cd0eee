"""Matrix lattices in the space of k blocks of n x n complex matrices.

Realification convention: a complex matrix tuple maps to a real vector by
iterating blocks in order, each block in column-major order, emitting
(Re, Im) per complex entry.  The Gram matrix of that real vector equals
Re Tr(X Y^dagger), so all geometry runs on the realified basis.

Every search is one Schnorr-Euchner walk, and each caller gives it a
leaf rule: the error test stops at the first nonzero point closer than 0,
shortest and closest vectors keep the least leaf and shrink the radius to
it, and a ball keeps every leaf.  Every search runs on an unscaled
preparation: a search on alpha L divides its target and radius by alpha
instead.  Each lattice a command searches gets LLL(0.99) preprocessing
once: the lattice's own basis, and on a constant channel the faded lattice
H L.  A stack of faded bases that each serve one search (a fading
channel's, faded from the lattice's LLL basis) is QR-factored as given, in
one stacked pass.  The LLL computes Gram-Schmidt data once by QR and
updates it in place after each size reduction and swap, recomputing it by
QR when a large size-reduction coefficient signals lost precision.  Its
unimodular transform is an int64 array, and enumeration coordinates map
back to the input basis by one matrix product.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import check_full_rank
from .errors import (BudgetExceeded, DegenerateLattice, EmptyBall,
                     PrecisionFailure)
from .rng import complex_gaussian

DEFAULT_BUDGET = 10 ** 8
LLL_DELTA = 0.99
LLL_ETA = 0.51
_Q_GUARD = 2 ** 26      # size-reduction coefficient that forces a GSO recompute
_U_LIMIT = 2 ** 52      # largest |U| entry for which U @ basis stays exact


def realify(blocks):
    """(..., k, rows, cols) complex -> (..., 2*k*rows*cols) real."""
    blocks = np.asarray(blocks)
    colmajor = np.swapaxes(blocks, -1, -2)
    flat = colmajor.reshape(colmajor.shape[:-3] + (math.prod(colmajor.shape[-3:]),))
    out = np.empty(flat.shape[:-1] + (2 * flat.shape[-1],))
    out[..., 0::2] = flat.real
    out[..., 1::2] = flat.imag
    return out


def fade_blocks(H, blocks):
    """The blocks H_i B_ji of each basis matrix B_j (blocks: r, k, n, n)
    under one fade H (k, n_r, n), or under each fade of a stack H (..., k,
    n_r, n): shape (..., r, k, n_r, n)."""
    return np.einsum("...irc,jicd->...jird", H, blocks)


def pdet(blocks):
    """Product of block determinants."""
    return complex(np.prod(np.linalg.det(np.asarray(blocks))))


class MatrixLattice:
    """Lattice with basis matrices B_1..B_r, each k blocks of n x n.

    The basis never changes after construction.  The one search preparation
    of the basis (`cvp`: LLL plus QR) is built on first use and then serves
    every search on this lattice; each search keeps its own state.

    `det_min`, when not None, is a certified lower bound on |pdet(X)| over
    the nonzero lattice points X (the paper's minimum determinant); None
    claims nothing.
    """

    def __init__(self, blocks, det_min=None):
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 4 or blocks.shape[2] != blocks.shape[3]:
            raise ValueError("expected basis of shape (r, k, n, n)")
        self.blocks = blocks
        self.rank, self.k, self.n, _ = blocks.shape
        self.real_basis = realify(blocks)
        self.gram = self.real_basis @ self.real_basis.T
        eig = np.linalg.eigvalsh(self.gram)
        if eig[0] <= 1e-10 * eig[-1]:
            raise DegenerateLattice(
                f"Gram matrix numerically singular (eigs {eig[0]:.3e}..{eig[-1]:.3e})")
        self.volume = float(np.sqrt(abs(np.linalg.det(self.gram))))
        self.det_min = det_min
        self._faded = {}

    def point(self, coords):
        """Lattice point with the given integer coordinates, as blocks."""
        return np.tensordot(np.asarray(coords, dtype=float), self.blocks, axes=(0, 0))

    def points(self, coord_rows):
        return np.tensordot(np.asarray(coord_rows, dtype=float), self.blocks, axes=(1, 0))

    @cached_property
    def cvp(self):
        """The PreparedCVP of the realified basis, shared by all searches."""
        return PreparedCVP(self.real_basis)

    @cached_property
    def reduced_blocks(self):
        """The LLL-reduced basis of `cvp`, U B, as blocks: the basis that
        faded searches fade."""
        return self.points(self.cvp.U)

    def faded_cvp(self, H):
        """The PreparedCVP of the faded lattice H L for one fade H (k, n_r,
        n), built on first use for that fade and then shared by every search
        on alpha H L, at any alpha, with targets divided by alpha: its basis
        H B is LLL-reduced once.  The identity fade's is `cvp`."""
        basis = realify(fade_blocks(H, self.blocks))
        key = basis.tobytes()
        if key not in self._faded:
            self._faded[key] = (self.cvp if np.array_equal(basis, self.real_basis)
                                else PreparedCVP(basis))
        return self._faded[key]

    def __repr__(self):
        return (f"MatrixLattice(n={self.n}, k={self.k}, rank={self.rank}, "
                f"vol={self.volume:.6g})")


def field_lattice(field):
    """Canonical embedding of the ring of integers of a totally complex
    field, as a rank-2k lattice of 1x1 blocks.  Its det_min is 1: a nonzero
    integer a has |pdet| = sqrt|N(a)| >= 1."""
    k = field.k
    blocks = np.empty((field.degree, k, 1, 1), dtype=complex)
    for j in range(field.degree):
        w = field.element([1 if t == j else 0 for t in range(field.degree)])
        blocks[j, :, 0, 0] = field.canonical_embed(w)
    return MatrixLattice(blocks, det_min=1.0)


# ---------------------------------------------------------------------------
# LLL reduction

def _gso(b):
    """Gram-Schmidt data of the rows of b from one QR factorization: mu
    (unit lower triangular) and the squared norms B of the orthogonalized
    rows."""
    R = np.linalg.qr(b.T, mode="r")
    d = np.diag(R)
    if d.size < len(b) or not np.all(d):
        raise DegenerateLattice("LLL input rows are linearly dependent")
    return (R / d[:, None]).T.copy(), (d * d).tolist()


def lll_reduce(basis):
    """LLL-reduce the rows of `basis`.  Returns (reduced, U) with
    reduced = U @ basis and U a unimodular int64 array.

    The Gram-Schmidt data is computed once and then updated in place after
    each size reduction and swap (Cohen, Alg. 2.6.3).  A size-reduction
    coefficient above 2^26 means the incremental data has lost precision, so
    it is recomputed from a fresh QR and the row is reduced again
    (Schnorr-Euchner 1994).  PrecisionFailure is raised before an entry of U
    could exceed 2^52, beyond which the float rows would no longer equal
    U @ basis exactly (and int64 arithmetic could wrap).  A non-finite entry
    raises DegenerateLattice: no reduction of such a basis terminates."""
    b = np.array(basis, dtype=float)
    if not np.all(np.isfinite(b)):
        raise DegenerateLattice("LLL input has a non-finite entry")
    r = b.shape[0]
    mu, B = _gso(b)
    # rows are held in lists so that a swap exchanges two references
    b = list(b)
    U = list(np.eye(r, dtype=np.int64))
    ubound = [1.0] * r      # upper bounds on max |U[i]|, refreshed on demand
    k = 1
    while k < r:
        lost_precision = False
        row = mu[k].tolist()
        for j in range(k - 1, -1, -1):
            if abs(row[j]) > LLL_ETA:
                q = round(row[j])
                bound = ubound[k] + abs(q) * ubound[j]
                if bound > _U_LIMIT:
                    ubound = np.abs(U).max(axis=1).astype(float).tolist()
                    bound = ubound[k] + abs(q) * ubound[j]
                    if bound > _U_LIMIT:
                        raise PrecisionFailure(
                            "LLL transform entries exceed 2^52")
                ubound[k] = bound
                lost_precision = lost_precision or abs(q) > _Q_GUARD
                b[k] -= q * b[j]
                U[k] -= q * U[j]
                mu[k, :j + 1] -= q * mu[j, :j + 1]      # mu[j, j] == 1
                row = mu[k].tolist()
        if lost_precision:
            mu, B = _gso(np.array(b))
            continue
        m = row[k - 1]
        if B[k] >= (LLL_DELTA - m * m) * B[k - 1]:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        U[k - 1], U[k] = U[k], U[k - 1]
        ubound[k - 1], ubound[k] = ubound[k], ubound[k - 1]
        mu[[k - 1, k], :k - 1] = mu[[k, k - 1], :k - 1]
        Bk1 = B[k] + m * m * B[k - 1]
        m_new = m * B[k - 1] / Bk1
        B[k] = B[k - 1] * B[k] / Bk1
        B[k - 1] = Bk1
        mu[k, k - 1] = m_new
        t = mu[k + 1:, k].copy()
        mu[k + 1:, k] = mu[k + 1:, k - 1] - m * t
        mu[k + 1:, k - 1] = t + m_new * mu[k + 1:, k]
        k = max(k - 1, 1)
    return np.array(b), np.array(U)


# ---------------------------------------------------------------------------
# Schnorr-Euchner enumeration

def _enumerate(rows, diag, y, radius2, budget, leaf):
    """Depth-first Schnorr-Euchner walk over the z with ||R z - y||^2 <= C,
    given the rows and the diagonal of the upper triangular R and the target
    y as lists of floats, from C = radius2.  At each leaf z (a list the walk
    goes on to change) with metric m <= C it calls leaf(z, m), which returns
    the squared radius C to continue under, or None to stop.  Returns the
    nodes visited; BudgetExceeded when the walk would visit more than
    `budget`."""
    r = len(diag)
    C = radius2
    z = [0] * r
    step = [0] * r
    dist = [0.0] * r      # accumulated metric from levels above
    center = [0.0] * r
    nodes = 0
    level = r
    new_dist = 0.0
    while True:
        # descend one level: center the new level on the partial point above
        level -= 1
        dist[level] = new_dist
        p = y[level]
        row = rows[level]
        for j in range(level + 1, r):
            p -= row[j] * z[j]
        c = p / diag[level]
        center[level] = c
        zl = round(c)
        z[level] = zl
        step[level] = 1 if c >= zl else -1
        while True:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"enumeration exceeded {budget} nodes")
            t = (center[level] - z[level]) * diag[level]
            new_dist = dist[level] + t * t
            if new_dist <= C:
                if level > 0:
                    break
                C = leaf(z, new_dist)
                if C is None:
                    return nodes
            else:
                level += 1
                if level == r:
                    return nodes
            # next sibling, zig-zagging outward from the center
            s = step[level]
            z[level] += s
            step[level] = -s - (1 if s > 0 else -1)


def _least_leaf(radius2, nonzero):
    """(leaf, best): a leaf rule that keeps in best = [metric, z] the least
    leaf (nonzero if asked; the first of equal leaves wins) and shrinks the
    radius to it.  best is [radius2, None] until a leaf is kept."""
    best = [radius2, None]

    def leaf(z, metric):
        if (best[1] is None or metric < best[0]) and (not nonzero or any(z)):
            best[0], best[1] = metric, list(z)
        return best[0]
    return leaf, best


class PreparedCVP:
    """QR factorization of a fixed basis, reused across many targets (one
    preparation per basis, one cheap projection per call, or one per stack
    of targets).  A basis given to the constructor is LLL-reduced first;
    `stack` factors a stack of bases as given."""

    def __init__(self, basis_rows):
        reduced, U = lll_reduce(basis_rows)
        self._factored(reduced, U, *_signed_qr(reduced.T))

    def _factored(self, reduced, U, Q, R):
        self.reduced, self.U, self.Q, self.R = reduced, U, Q, R
        self.rank = reduced.shape[0]
        # what every search reads, as Python lists
        self._rows = R.tolist()
        self._diag = [self._rows[i][i] for i in range(self.rank)]
        return self

    @classmethod
    def stack(cls, bases, targets):
        """Preparations of each basis of a stack (T, rank, dim), with no
        LLL (each basis as given, U the identity), by one stacked QR; and
        the span coordinates y = Q^T t of each target of the stack `targets`
        (T, dim) in its own basis, as `project` computes them.  Whether a
        nonzero lattice point is closer to a target than 0 does not depend
        on the basis (Agrell et al. 2002), so `exists_closer` decides the
        same on these preparations as on LLL-reduced ones; only its node
        count differs."""
        bases = np.asarray(bases, dtype=float)
        Q, R = _signed_qr(np.swapaxes(bases, 1, 2))
        eye = np.eye(bases.shape[1], dtype=np.int64)
        preps = [cls.__new__(cls)._factored(b, eye, q, r)
                 for b, q, r in zip(bases, Q, R)]
        return preps, _span_coords(Q, np.asarray(targets, dtype=float))

    def project(self, target):
        """(y, offset2): the coordinates y = Q^T t of the target t in the
        orthonormal basis of the lattice span, and its squared distance
        offset2 >= 0 to that span.  For a stack (T, dim) of targets, y is
        (T, rank) and offset2 an array; each row is computed by the same
        matrix-vector and dot products as a single target."""
        t = np.asarray(target, dtype=float)
        if t.ndim == 1:
            y, offset2 = self.project(t[None])
            return y[0], float(offset2[0])
        y = _span_coords(self.Q, t)
        offset2 = (np.matmul(t[:, None, :], t[:, :, None])
                   - np.matmul(y[:, None, :], y[:, :, None]))[:, 0, 0]
        return y, np.maximum(offset2, 0.0)

    def closest(self, target, budget=DEFAULT_BUDGET):
        """CVP; returns (metric2, coords, nodes, exact_flag).  On budget
        exhaustion the best leaf so far (Babai or better) is returned with
        exact_flag False and nodes = budget.  Test-only witness that the
        enumeration finds the closest point: the exhaustive-box oracle
        checks it (acceptance criterion 8), and `LatticeDecoder.decode`
        builds on it."""
        y, offset2 = self.project(target)
        leaf, best = _least_leaf(math.inf, nonzero=False)
        try:
            nodes = _enumerate(self._rows, self._diag, y.tolist(), math.inf,
                               budget, leaf)
            exact = True
        except BudgetExceeded:
            if best[1] is None:
                raise
            nodes, exact = budget, False
        metric, z = best
        return metric + offset2, _apply_u(z, self.U), nodes, exact

    def exists_closer(self, y, budget=DEFAULT_BUDGET):
        """(found, nodes): found iff some nonzero-coordinate point lies
        strictly closer to the target than 0, given the target's span
        coordinates y from `project`.  The target's distance to the span
        adds the same amount to both distances, so the search reads y alone
        and stops at its first nonzero leaf within ||y||^2 (1 - 1e-12)."""
        y = y.tolist()
        thr = math.fsum(v * v for v in y) * (1 - 1e-12)
        if thr <= 0:
            return False, 0
        found = False

        def leaf(z, metric):
            nonlocal found
            found = any(z)
            return None if found else thr
        nodes = _enumerate(self._rows, self._diag, y, thr, budget, leaf)
        return found, nodes

    def shortest(self, budget=DEFAULT_BUDGET):
        start = float(min(np.sum(self.reduced ** 2, axis=1))) * (1 + 1e-12) + 1e-12
        leaf, best = _least_leaf(start, nonzero=True)
        nodes = _enumerate(self._rows, self._diag, [0.0] * self.rank, start,
                           budget, leaf)
        metric, z = best
        return metric, _apply_u(z, self.U), nodes

    def ball(self, center, radius, budget=DEFAULT_BUDGET):
        """All points z B with ||z B - center|| <= radius (closed ball, to a
        relative 1e-9)."""
        y, offset2 = self.project(center)
        bound = float(radius * radius - offset2)
        if bound < 0:
            return np.zeros((0, self.rank), dtype=int), np.zeros(0), 0
        bound += 1e-9 * max(bound, 1.0)
        leaves, metrics = [], []

        def leaf(z, metric):
            leaves.append(list(z))
            metrics.append(metric + offset2)
            return bound
        nodes = _enumerate(self._rows, self._diag, y.tolist(), bound, budget,
                           leaf)
        coords = np.array(leaves, dtype=np.int64).reshape(-1, self.rank) @ self.U
        return coords, np.array(metrics), nodes


def _signed_qr(A):
    """Thin QR factorization A = Q R of a matrix or of each matrix of a
    stack, with signs fixed so that diag(R) > 0.  DegenerateLattice if A has
    a non-finite entry or R a zero pivot: the columns of A are then not the
    basis of a lattice."""
    if not np.all(np.isfinite(A)):
        raise DegenerateLattice("lattice basis has a non-finite entry")
    Q, R = np.linalg.qr(A, mode="reduced")
    signs = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    if not np.all(signs):
        raise DegenerateLattice("lattice basis rows are linearly dependent")
    return Q * signs[..., None, :], R * signs[..., :, None]


def _span_coords(Q, t):
    """y = Q^T t for each target of a stack t (T, dim), in the orthonormal
    basis of the span of the columns of Q (dim, rank), or of target s in
    that of Q[s] for a stack of Q."""
    return np.matmul(np.swapaxes(Q, -1, -2), t[:, :, None])[:, :, 0]


def _apply_u(z, U):
    """Coordinates z @ U in the input basis, as a list of Python ints."""
    return (np.asarray(z, dtype=np.int64) @ U).tolist()


# ---------------------------------------------------------------------------
# invariants

@dataclass
class InvariantReport:
    volume: float
    hermite: float
    det_min: float
    det_min_certificate: str
    delta: float
    rh_lower: float


def hermite_invariant(lat, budget=DEFAULT_BUDGET):
    """min ||X||^2 / Vol^{2/rank} over nonzero lattice points, plus witness
    coordinates and node count."""
    norm2, coords, nodes = lat.cvp.shortest(budget)
    return norm2 / lat.volume ** (2.0 / lat.rank), coords, nodes


def _nonzero_ball_points(lat, radius, budget):
    """Nonzero points of the closed ball of the given radius about 0, as
    coordinates and as blocks; EmptyBall if there are none."""
    coords, _, _ = lat.cvp.ball(np.zeros(lat.real_basis.shape[1]), radius,
                                budget)
    nonzero = coords[np.any(coords != 0, axis=1)]
    if len(nonzero) == 0:
        raise EmptyBall(f"no nonzero lattice point within radius {radius}")
    return nonzero, lat.points(nonzero)


def min_pdet(lat, radius, budget=DEFAULT_BUDGET):
    """Upper bound on det_min: the smallest |pdet| over nonzero points of the
    closed ball of the given radius.  Completeness over the infinite lattice
    is not claimed."""
    nonzero, pts = _nonzero_ball_points(lat, radius, budget)
    dets = np.abs(np.prod(np.linalg.det(pts), axis=1))
    idx = int(np.argmin(dets))
    return float(dets[idx]), list(nonzero[idx])


def normalized_min_det(lat, det_min):
    """det_min after rescaling the lattice to unit covolume."""
    return det_min / lat.volume ** (lat.n * lat.k / lat.rank)


def fade(lat, H):
    """Lattice with basis H_d B_1, ..., H_d B_r for square blocks H_i.
    Test-only, with `sample_pdet1_fade`: the faded lattices HL on which the
    tests witness h(HL) >= nk delta^{2/nk} over pdet-1 fades (acceptance
    criterion 4, Proposition 1)."""
    H = np.asarray(H, dtype=complex)
    if H.shape != (lat.k, lat.n, lat.n):
        raise ValueError(f"expected {lat.k} blocks of shape {lat.n}x{lat.n}")
    check_full_rank(H)
    return MatrixLattice(fade_blocks(H, lat.blocks))


def hadamard_check(blocks):
    """Both sides of |pdet(X)| <= (||X||^2 / nk)^{nk/2}.  Test-only witness
    of the inequality behind the paper's bound rh >= nk delta^{2/nk}.  The
    inequality itself is load-bearing: applied to the faded points H X, it
    is the minimum-distance bound with which `sim.certified` proves lattice
    decisions without a search."""
    blocks = np.asarray(blocks, dtype=complex)
    k, n, _ = blocks.shape
    lhs = abs(pdet(blocks))
    norm2 = float(np.sum(np.abs(blocks) ** 2))
    m = n * k
    rhs = (norm2 / m) ** (m / 2.0)
    return lhs, rhs


def form_eval(form, X):
    """Evaluate the homogeneous forms: f1 = sum |x|^2 (degree 2),
    f2 = prod |x_i| over k scalar blocks (degree k), f3 = prod |det X_i|
    (degree nk).  Test-only witness of the paper's invariants as
    homogeneous minima: at the witness points of `hermite_invariant` and
    `min_pdet`, rescaled to unit covolume, f1, f2 and f3 give the Hermite
    invariant and the normalized minimum product distance and
    determinant."""
    X = np.asarray(X, dtype=complex)
    if form == "f1":
        return float(np.sum(np.abs(X) ** 2))
    if form == "f2":
        if X.ndim == 1:
            return float(np.prod(np.abs(X)))
        if X.ndim == 3 and X.shape[1] == X.shape[2] == 1:
            return float(np.prod(np.abs(X[:, 0, 0])))
        raise ValueError("f2 requires n = 1")
    if form == "f3":
        if X.ndim != 3 or X.shape[1] != X.shape[2]:
            raise ValueError("f3 requires square blocks")
        return float(abs(pdet(X)))
    raise ValueError(f"unknown form {form!r}")


def invariant_report(lat, radius=None, budget=DEFAULT_BUDGET):
    """Bundle the geometric invariants of one lattice.  The lattice's own
    det_min is certified algebraically (NVD orders); without one, det_min
    comes from ball enumeration and is only an upper bound."""
    h, _, _ = hermite_invariant(lat, budget)
    if radius is None:
        radius = 1.5 * np.sqrt(lat.n * lat.k)
    det_min, certificate = lat.det_min, "algebraic"
    if det_min is None:
        det_min, _ = min_pdet(lat, radius, budget)
        certificate = "enumerated-upper-bound"
    delta = normalized_min_det(lat, det_min)
    rh_lower = lat.n * lat.k * delta ** (2.0 / (lat.n * lat.k))
    return InvariantReport(volume=lat.volume, hermite=h, det_min=det_min,
                           det_min_certificate=certificate, delta=delta,
                           rh_lower=rh_lower)


def sample_pdet1_fade(n, k, gen):
    """One random fade with pdet = 1: complex Gaussian blocks, rejection
    sampled until the smallest singular value is at least 0.05 of the
    largest, rescaled to unit product determinant.  Test-only: the fades
    of the reduced Hermite bound's witness (see `fade`)."""
    while True:
        H = complex_gaussian(gen, (k, n, n))
        sv = np.linalg.svd(H, compute_uv=False)
        if sv[..., -1].min() >= 0.05 * sv[..., 0].max():
            break
    p = pdet(H)
    H = H / (p ** (1.0 / (n * k)))
    return H

