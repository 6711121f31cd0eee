"""Matrix lattices in the space of k blocks of n x n complex matrices.

Realification convention: a complex matrix tuple maps to a real vector by
iterating blocks in order, each block in column-major order, emitting
(Re, Im) per complex entry.  The Gram matrix of that real vector equals
Re Tr(X Y^dagger), so all geometry runs on the realified basis.

Every search is one Schnorr-Euchner walk, and each caller gives it a
leaf rule: the error test stops at the first nonzero point closer than 0,
shortest and closest vectors keep the least leaf and shrink the radius to
it, and a ball keeps every leaf.  Many error tests end at once: the walk
tries 0 first at every level and finds every other candidate pruned.
`zero_path` decides a batch of such targets in whole-array operations and
leaves every other target to the walk, whose Python source is generated
per rank and compiled on its first search (`_walk_source`).  Every search
runs on an unscaled preparation: a search on alpha L divides its target
and radius by alpha instead.  Each lattice a command searches gets
LLL(0.99) preprocessing once (`lll_reduce`): the lattice's own basis, and
on a constant channel the faded lattice H L (`faded_cvp`).  A fading
channel's faded copies of the LLL basis each serve one search and are
QR-factored as given, in one stacked pass (`faded_stack`).  Enumeration
coordinates map back to the input basis by the LLL's unimodular
transform, an int64 array.
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (BudgetExceeded, DegenerateLattice, EmptyBall,
                     PrecisionFailure)

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

    def point(self, coords):
        """Point with the given coordinates, as blocks: a lattice point for
        integer ones."""
        return self.points(np.asarray(coords, dtype=float).reshape(1, -1))[0]

    def points(self, coord_rows):
        """The point of each row of coordinates, as a stack of blocks: one
        matrix product on the operands np.tensordot would form, (rows, rank)
        by (rank, k n n), without its bookkeeping."""
        rows = np.asarray(coord_rows, dtype=float)
        flat = np.dot(rows, self.blocks.reshape(self.rank, -1))
        return flat.reshape((len(rows),) + self.blocks.shape[1:])

    @cached_property
    def cvp(self):
        """The PreparedCVP of the realified basis, shared by all searches."""
        return PreparedCVP(self.real_basis)

    @cached_property
    def reduced_blocks(self):
        """The LLL-reduced basis of `cvp`, U B, as blocks: the basis that
        `faded_stack` fades."""
        return self.points(self.cvp.U)

    def faded_cvp(self, H):
        """A new PreparedCVP of the faded lattice H L for one fade H (k, n_r,
        n), H B LLL-reduced, for every search on alpha H L at any alpha
        (targets divided by alpha).  The identity fade's is `cvp`."""
        basis = realify(fade_blocks(H, self.blocks))
        return (self.cvp if np.array_equal(basis, self.real_basis)
                else PreparedCVP(basis))

    def faded_stack(self, H):
        """`PreparedCVP.stack` of the faded LLL bases H_t (U B) of a stack
        of fades H (T, k, n_r, n): no LLL per fade, and no alpha."""
        return PreparedCVP.stack(realify(fade_blocks(H, self.reduced_blocks)))

    def __repr__(self):
        return (f"MatrixLattice(n={self.n}, k={self.k}, rank={self.rank}, "
                f"vol={self.volume:.6g})")


def field_lattice(field):
    """Canonical embedding of the ring of integers of a totally complex
    field, as a rank-2k lattice of 1x1 blocks: basis row j holds the values
    of the integral basis element w_j at the k chosen roots, the field's
    table of basis values read by column.  Its det_min is 1: a nonzero
    integer a has |pdet| = sqrt|N(a)| >= 1."""
    values = field._basis_values[:field.k].T
    return MatrixLattice(values.reshape(field.degree, field.k, 1, 1).copy(),
                         det_min=1.0)


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
    raises DegenerateLattice: no reduction of such a basis terminates.

    The rows of the basis, of mu and of U are lists of Python floats and
    ints, which below rank about 40 (the catalog's lattices have rank at
    most 16) cost less than numpy's per-call dispatch on rows this short.
    Each step makes the float operations of the array version, in the same
    order, so the outputs are the same bits; that version is
    `oracles.reference_numpy_lll` in the tests."""
    b = np.array(basis, dtype=float)
    if not np.all(np.isfinite(b)):
        raise DegenerateLattice("LLL input has a non-finite entry")
    r = b.shape[0]
    mu, B = _gso(b)
    # a swap exchanges two row references
    b, mu = b.tolist(), mu.tolist()
    U = np.eye(r, dtype=np.int64).tolist()
    ubound = [1.0] * r      # upper bounds on max |U[i]|, refreshed on demand
    k = 1
    while k < r:
        lost_precision = False
        row = mu[k]
        for j in range(k - 1, -1, -1):
            if abs(row[j]) > LLL_ETA:
                q = round(row[j])
                bound = ubound[k] + abs(q) * ubound[j]
                if bound > _U_LIMIT:
                    ubound = [float(max(map(abs, u))) for u in U]
                    bound = ubound[k] + abs(q) * ubound[j]
                    if bound > _U_LIMIT:
                        raise PrecisionFailure(
                            "LLL transform entries exceed 2^52")
                ubound[k] = bound
                lost_precision = lost_precision or abs(q) > _Q_GUARD
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                U[k] = [x - q * y for x, y in zip(U[k], U[j])]
                mu_j = mu[j]
                for i in range(j + 1):      # mu[j][j] == 1
                    row[i] -= q * mu_j[i]
        if lost_precision:
            mu, B = _gso(np.array(b))
            mu = mu.tolist()
            continue
        m = row[k - 1]
        if B[k] >= (LLL_DELTA - m * m) * B[k - 1]:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        U[k - 1], U[k] = U[k], U[k - 1]
        ubound[k - 1], ubound[k] = ubound[k], ubound[k - 1]
        Bk1 = B[k] + m * m * B[k - 1]
        m_new = m * B[k - 1] / Bk1
        B[k] = B[k - 1] * B[k] / Bk1
        B[k - 1] = Bk1
        # rows k-1 and k trade their first k-1 entries: swap the rows, then
        # set their entries at the diagonal (those above it are never read)
        mu[k - 1], mu[k] = row, mu[k - 1]
        row[k - 1] = 1.0
        mu[k][k - 1], mu[k][k] = m_new, 1.0
        for mu_i in mu[k + 1:]:
            t = mu_i[k]
            mu_i[k] = mu_i[k - 1] - m * t
            mu_i[k - 1] = t + m_new * mu_i[k]
        k = max(k - 1, 1)
    return np.array(b), np.array(U, dtype=np.int64)


# ---------------------------------------------------------------------------
# Schnorr-Euchner enumeration

# Levels per generated function: CPython refuses more than 20 statically
# nested blocks, and each level of the walk is one `while` loop.
_SEGMENT = 16


def _enumerate(rows, diag, y, radius2, budget, leaf):
    """Depth-first Schnorr-Euchner walk over the z with ||R z - y||^2 <= C,
    given the rows and the diagonal of the upper triangular R and the target
    y as lists of floats, from C = radius2.  At each leaf z (a list of ints,
    a new list for each call, which the leaf may keep) with metric m <= C
    it calls leaf(z, m), which returns the squared radius C to continue
    under, or None to stop.  Returns the nodes visited; BudgetExceeded when
    the walk would visit more than `budget`.

    The walk for rank r is generated and compiled on first use (`_walk`);
    its reference, with the same float operations in the same order, is
    the list-based loop `oracles.reference_enumerate` in the tests."""
    return _walk(len(diag))(rows, diag, y, radius2, budget, leaf)


@cache
def _walk(r):
    """The compiled walk of rank r, once per rank per process."""
    namespace = {"BudgetExceeded": BudgetExceeded}
    exec(compile(_walk_source(r), f"<walk of rank {r}>", "exec"), namespace)
    return namespace["walk"]


def _walk_source(r):
    """Python source of the walk of rank r, a pure function of r: every
    coordinate is a local (d_i, y_i, the entries ri_j of R above the
    diagonal, and per level the center c_l, coordinate z_l, zig-zag step s_l
    and accumulated metric b_l), each level is one `while` loop nested in
    the level above, and each center is one straight-line expression.
    Levels go in segments of at most `_SEGMENT`, counted from level 0: the
    top segment is the body of `walk`, and each lower one a nested function
    that takes the z above it, their metric b, C and the node count, and
    returns (C, nodes), C None to stop.

    z_l is held as a float, so that each product and difference it enters
    is one of two floats; an integer below 2^53 in magnitude converts
    exactly, so every float result equals that of an int z_l, and the leaf
    gets ints.  The top level's metric is t * t, equal to 0.0 + t * t
    because a square is never -0.0."""
    lines = ["def walk(rows, diag, y, C, budget, leaf):",
             "    " + "".join(f"d{i}, " for i in range(r)) + "= diag",
             "    " + "".join(f"y{i}, " for i in range(r)) + "= y"]
    for i in range(r - 1):
        lines.append("    " + "_, " * (i + 1)
                     + ", ".join(f"r{i}_{j}" for j in range(i + 1, r))
                     + f" = rows[{i}]")
    for seg, lo in enumerate(range(0, r, _SEGMENT)):
        hi = min(lo + _SEGMENT, r)
        if hi < r:
            lines.append(f"    def seg{seg}("
                         + "".join(f"z{j}, " for j in range(hi, r))
                         + f"b{hi}, C, nodes):")
            indent, stop, done = "        ", "return None, nodes", "return C, nodes"
        else:
            lines.append("    nodes = 0")
            indent, stop, done = "    ", "return nodes", "return nodes"
        for level in range(hi - 1, lo - 1, -1):
            pad = indent + "    " * (hi - 1 - level)
            c, z, b = f"c{level}", f"z{level}", f"b{level}"
            terms = "".join(f" - r{level}_{j} * z{j}" for j in range(level + 1, r))
            lines += [
                f"{pad}{c} = " + (f"(y{level}{terms})" if terms else f"y{level}")
                + f" / d{level}",
                f"{pad}{z} = float(round({c}))",
                f"{pad}s{level} = 1 if {c} >= {z} else -1",
                f"{pad}while True:",
                f"{pad}    nodes += 1",
                f"{pad}    if nodes > budget:",
                f"{pad}        raise BudgetExceeded("
                f"f\"enumeration exceeded {{budget}} nodes\")",
                f"{pad}    t = ({c} - {z}) * d{level}",
                f"{pad}    {b} = " + (f"b{level + 1} + t * t" if level + 1 < r
                                     else "t * t"),
                f"{pad}    if not {b} <= C:",
                f"{pad}        break"]
        for level in range(lo, hi):
            pad = indent + "    " * (hi - 1 - level)
            if level == 0:
                zs = ", ".join(f"int(z{j})" for j in range(r))
                lines.append(f"{pad}    C = leaf([{zs}], b0)")
            elif level == lo:
                lines.append(f"{pad}    C, nodes = seg{seg - 1}("
                             + "".join(f"z{j}, " for j in range(lo, r))
                             + f"b{lo}, C, nodes)")
            if level == lo:
                lines += [f"{pad}    if C is None:", f"{pad}        {stop}"]
            s = f"s{level}"
            lines += [f"{pad}    z{level} += {s}",
                      f"{pad}    {s} = -{s} - 1 if {s} > 0 else 1 - {s}"]
        lines.append(indent + done)
    return "\n".join(lines) + "\n"


def closer_thresholds(Y):
    """The squared radius of `exists_closer`'s search for each row y of the
    span coordinates Y (T, r), as a list: ||y||^2 by math.fsum over the
    row of one array of squares Y * Y (an IEEE product, so the same bits as
    Python's y_i * y_i), times 1 - 1e-12, so that 0 itself, at metric about
    ||y||^2, falls outside it.  A square that overflows is inf.  When the
    squares are finite but their sum is not, fsum refuses with an
    OverflowError; a partial sum of squares never exceeds the whole, so the
    correctly rounded ||y||^2 is then inf, as when a square itself
    overflows, and the walk reads it as it reads that case."""
    with np.errstate(over="ignore"):
        squares = (Y * Y).tolist()
    thr = []
    for row in squares:
        try:
            norm2 = math.fsum(row)
        except OverflowError:
            norm2 = math.inf
        thr.append(norm2 * (1 - 1e-12))
    return thr


def zero_path(Y, diag, thr, budget):
    """Which targets of a batch the walk of `exists_closer` would decide on
    its zero path, (found, nodes) = (False, 2 r - 1), each decided in about
    20 whole-array operations whatever the rank r.  Y (T, r) holds the span
    coordinates, diag the diagonal of R, one row (r,) every target shares or
    one row per target (T, r), and thr (T,) the thresholds
    `closer_thresholds`.

    On the zero path every level r-1..1 tries 0 first and keeps it within
    the radius, level 0's first candidate is pruned, and then every +-1
    sibling at levels 1..r-1 is pruned: no leaf, and 2 r - 1 nodes.  With
    z = 0 above it, level l's center is c_l = y_l / d_l (y_l minus products
    with 0.0 is y_l), and its metric b_l sums (c_j d_j)^2 from the top down
    to l.  A sibling at least as near as 0 (|c_l| >= 1/2, where the walk
    would not try 0 first) is within the radius whenever 0 is, so pruned
    siblings also prove that every center rounds to 0.  The batch repeats
    the walk's float operations in its order: IEEE division, np.rint at
    level 0 (half to even, as `round`), and a sequential np.cumsum, as the
    walk's b + t * t.  A target whose threshold is not positive
    (`exists_closer` walks none) or not finite (no metric exceeds it) is
    never decided, and neither is any target under a budget below 2 r - 1:
    the walk decides them as it always has."""
    T, r = Y.shape
    thr = np.asarray(thr, dtype=float)
    if budget < 2 * r - 1:
        return np.zeros(T, dtype=bool)
    # a far target's centers and squares may overflow or compare as NaN:
    # such a target is not decided here, and the walk reads it
    with np.errstate(over="ignore", invalid="ignore"):
        c = Y / diag
        t = c * diag
        c0 = c[:, 0]
        t[:, 0] = (c0 - np.rint(c0)) * diag[..., 0]
        # b[:, l] is the metric after level l, b[:, r] = 0 above the top
        b = np.zeros((T, r + 1))
        b[:, r - 1::-1] = np.cumsum((t * t)[:, ::-1], axis=1)
        # the sibling at level l is 1 if c_l >= 0 else -1
        u = (c[:, 1:] - np.where(c[:, 1:] >= 0, 1.0, -1.0)) * diag[..., 1:]
        decided = ((thr > 0) & (b[:, 0] > thr) & (b[:, 1] <= thr)
                   & np.all(u * u + b[:, 2:] > thr[:, None], axis=1))
    return decided


def _least_leaf(radius2, nonzero):
    """(leaf, best): a leaf rule that keeps in best = [metric, z] the least
    leaf (nonzero if asked; the first of equal leaves wins) and shrinks the
    radius to it.  best is [radius2, None] until a leaf is kept."""
    best = [radius2, None]

    def leaf(z, metric):
        if (best[1] is None or metric < best[0]) and (not nonzero or any(z)):
            best[0], best[1] = metric, z
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
        self.reduced, self.U, self.Q, self._R = reduced, U, Q, R
        self.rank = reduced.shape[0]
        return self

    # what every walk reads, R and its diagonal as Python lists, built on
    # the first walk: a target that `zero_path` decides reads neither
    @cached_property
    def _rows(self):
        return self._R.tolist()

    @cached_property
    def _diag(self):
        return [self._rows[i][i] for i in range(self.rank)]

    @cached_property
    def diag(self):
        """The diagonal of R, an array (rank,): what `zero_path` reads."""
        return np.diagonal(self._R).copy()

    @classmethod
    def stack(cls, bases):
        """Preparations of each basis of a stack (T, rank, dim), with no
        LLL (each basis as given, U the identity), by one stacked QR; the
        stack of their Q factors (T, dim, rank), in which `_span_coords`
        reads the span coordinates y = Q^T t of targets as `project`
        computes them; and the stack of the diagonals of their R factors
        (T, rank), which `zero_path` reads.  Whether a nonzero lattice point is closer
        to a target than 0 does not depend on the basis (Agrell et al.
        2002), so `exists_closer` decides the same on these preparations as
        on LLL-reduced ones; only its node count differs."""
        bases = np.asarray(bases, dtype=float)
        Q, R = _signed_qr(np.swapaxes(bases, 1, 2))
        eye = np.eye(bases.shape[1], dtype=np.int64)
        preps = [cls.__new__(cls)._factored(b, eye, q, r)
                 for b, q, r in zip(bases, Q, R)]
        return preps, Q, np.diagonal(R, axis1=1, axis2=2)

    def project(self, target):
        """(y, offset2): the coordinates y = Q^T t of the target t (dim,) in
        the orthonormal basis of the lattice span, as `_span_coords` gives
        them to a stack, and its squared distance offset2 = t.t - y.y >= 0
        to that span, a float."""
        t = np.asarray(target, dtype=float)
        y = _span_coords(self.Q, t[None])[0]
        return y, max(float(t @ t - y @ y), 0.0)

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

    def exists_closer(self, y, thr, budget=DEFAULT_BUDGET):
        """(found, nodes): found iff some nonzero-coordinate point lies
        strictly closer to the target than 0, given the target's span
        coordinates y from `project`.  The target's distance to the span
        adds the same amount to both distances, so the search reads y alone
        and stops at its first nonzero leaf within the threshold thr,
        `closer_thresholds`."""
        y = y.tolist()
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
            leaves.append(z)
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


def probe_radius(lat):
    """The default radius of the det_min probe ball, 1.5 sqrt(n k)."""
    return 1.5 * np.sqrt(lat.n * lat.k)


def invariant_report(lat, radius=None, budget=DEFAULT_BUDGET):
    """Bundle the geometric invariants of one lattice.  The lattice's own
    det_min is certified algebraically (NVD orders); without one, det_min
    comes from ball enumeration and is only an upper bound."""
    h, _, _ = hermite_invariant(lat, budget)
    if radius is None:
        radius = probe_radius(lat)
    det_min, certificate = lat.det_min, "algebraic"
    if det_min is None:
        det_min, _ = min_pdet(lat, radius, budget)
        certificate = "enumerated-upper-bound"
    delta = normalized_min_det(lat, det_min)
    rh_lower = lat.n * lat.k * delta ** (2.0 / (lat.n * lat.k))
    return InvariantReport(volume=lat.volume, hermite=h, det_min=det_min,
                           det_min_certificate=certificate, delta=delta,
                           rh_lower=rh_lower)

