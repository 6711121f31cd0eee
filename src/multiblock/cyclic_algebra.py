"""Cyclic algebras (E/K, sigma, gamma), natural orders, and their embeddings.

E is represented as K[eta]/(rel_poly): an E-element is the tuple of its n
center coefficients over 1, eta, ..., eta^{n-1}.  An algebra element
x_0 + u x_1 + ... + u^{n-1} x_{n-1} is the tuple of its n E-coefficients,
with relations x u = u sigma(x), u^n = gamma.  All coefficient arithmetic
is exact (center elements on integer numerators over a common denominator,
in lowest terms, so tuples compare with ==); only the final embeddings
into complex matrices use doubles.
"""

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .errors import CatalogInconsistent, PrecisionFailure
from .exact import bareiss_det, inverse
from .numfield import polished_roots

ETA_RESIDUAL_TOL = 1e-13


class CyclicAlgebra:
    """(E/K, sigma, gamma) of degree n over a totally complex center K.

    Immutable after construction; embedding evaluation is pure.
    """

    def __init__(self, name, center, n, rel_poly, sigma_eta, gamma, rel_basis,
                 division_asserted=False):
        self.name = name
        self.center = center
        self.n = n
        self.k = center.k
        if len(rel_poly) != n + 1:
            raise CatalogInconsistent(f"{name}: rel_poly must have degree n = {n}")
        if rel_poly[-1] != center.one():
            raise CatalogInconsistent(f"{name}: rel_poly must be monic")
        self.rel_poly = tuple(rel_poly)
        self.sigma_eta = tuple(sigma_eta)
        if len(self.sigma_eta) != n:
            raise CatalogInconsistent(f"{name}: sigma_eta must have {n} "
                                      f"coefficients")
        self.gamma = gamma
        if gamma.is_zero():
            raise CatalogInconsistent(f"{name}: gamma must be nonzero")
        self.rel_basis = tuple(tuple(e) for e in rel_basis)
        if len(self.rel_basis) != n:
            raise CatalogInconsistent(f"{name}: rel_basis must have {n} elements")
        if any(len(e) != n for e in self.rel_basis):
            raise CatalogInconsistent(f"{name}: each rel_basis element must "
                                      f"have {n} coefficients")
        self.division_asserted = division_asserted

        # sigma(eta)^j for j < n, which fix the K-linear sigma
        pows = [self.e_scalar(center.one())]
        for _ in range(n - 1):
            pows.append(self.e_mul(pows[-1], self.sigma_eta))
        self._sigma_eta_pows = pows
        self._check_sigma()
        self._eta_roots = self._choose_eta_roots()

    # -- E = K[eta]/(rel_poly) arithmetic -------------------------------------

    def e_zero(self):
        return tuple(self.center.zero() for _ in range(self.n))

    def e_scalar(self, x, j=0):
        """x eta^j for a center element x, reduced modulo rel_poly."""
        poly = [self.center.zero() for _ in range(max(self.n, j + 1))]
        poly[j] = x
        return self._reduce(poly)

    def e_add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def e_scale(self, a, c):
        """Scale an E-element by a K-element or a rational."""
        return tuple(x * c for x in a)

    def e_mul(self, a, b):
        prod = [self.center.zero() for _ in range(2 * self.n - 1)]
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b):
                if y.is_zero():
                    continue
                prod[i + j] = prod[i + j] + x * y
        return self._reduce(prod)

    def _reduce(self, poly):
        """The E-element of the eta-polynomial with ascending coefficient
        list poly (at least n long, consumed), reduced modulo the monic
        rel_poly from the top degree down."""
        n = self.n
        for deg in range(len(poly) - 1, n - 1, -1):
            lead = poly[deg]
            if lead.is_zero():
                continue
            for i in range(n + 1):
                poly[deg - n + i] = poly[deg - n + i] - lead * self.rel_poly[i]
        return tuple(poly[:n])

    def sigma(self, x):
        """Apply sigma once: K-linear extension of eta -> sigma_eta."""
        out = self.e_zero()
        for j, c in enumerate(x):
            if c.is_zero():
                continue
            out = self.e_add(out, self.e_scale(self._sigma_eta_pows[j], c))
        return out

    def sigma_pow(self, x, t):
        for _ in range(t % self.n):
            x = self.sigma(x)
        return x

    def _check_sigma(self):
        # sigma must send eta to another root of rel_poly, that is, map
        # eta^n (reduced by rel_poly) to sigma(eta)^n ...
        one = self.center.one()
        if (self.sigma(self.e_scalar(one, self.n))
                != self.e_mul(self._sigma_eta_pows[-1], self.sigma_eta)):
            raise CatalogInconsistent(f"{self.name}: sigma_eta is not a root of rel_poly")
        # ... and have order dividing n (applied literally n times)
        eta = img = self.e_scalar(one, 1)
        for _ in range(self.n):
            img = self.sigma(img)
        if img != eta:
            raise CatalogInconsistent(f"{self.name}: sigma^n is not the identity")

    # -- embeddings ------------------------------------------------------------

    def _choose_eta_roots(self):
        """One deterministic root of the embedded rel_poly per chosen
        embedding of K (sorted by descending imaginary, then descending real
        part, after rounding out float noise), polished to a residual below
        ETA_RESIDUAL_TOL or refused as CatalogInconsistent."""
        embedded = [self.center.canonical_embed(c) for c in self.rel_poly]
        roots = []
        for i in range(self.k):
            coeffs = [complex(vals[i]) for vals in embedded]
            cand = polished_roots(coeffs, ETA_RESIDUAL_TOL, self.name)
            cand = sorted(cand, key=lambda z: (-round(z.imag, 9), -round(z.real, 9)))
            roots.append(complex(cand[0]))
        return roots

    def embed_e(self, x):
        """Values of an E-element at the k chosen embeddings, each
        coefficient embedded once."""
        embedded = [self.center.canonical_embed(c) for c in x]
        values = []
        for i, eta in enumerate(self._eta_roots):
            acc = 0j
            for vals in reversed(embedded):
                acc = acc * eta + complex(vals[i])
            values.append(acc)
        return values

    # -- algebra elements -------------------------------------------------------

    def element(self, coeffs):
        """The algebra element with E-coefficients coeffs (of 1, u, ...)."""
        return tuple(tuple(x) for x in coeffs)

    def _u_times(self, j, x):
        """u^j x for an E-element x and 0 <= j < 2n: x placed at u^(j mod
        n), times gamma when j >= n (u^n = gamma)."""
        if j >= self.n:
            x = self.e_scale(x, self.gamma)
        return tuple(x if t == j % self.n else self.e_zero() for t in range(self.n))

    def one(self):
        """The unit u^0 1.  Test-only witness that phi(1) is the identity
        at every embedding and that the natural order holds 1."""
        return self._u_times(0, self.e_scalar(self.center.one()))

    def u(self):
        """The generator u.  Test-only witness that phi(u)^n = gamma at
        every embedding, the relation u^n = gamma of the cyclic algebra."""
        return self._u_times(1, self.e_scalar(self.center.one()))

    def mul(self, a, b):
        """Exact product via u^r x u^s y = u^{r+s} sigma^s(x) y and u^n = gamma.
        Test-only witness that the multiblock embedding is multiplicative
        and the natural order a ring, on which the paper's nonvanishing
        determinant argument rests, and the pairwise route to the order
        discriminant that z_discriminant's block form replaced."""
        out = (self.e_zero(),) * self.n
        for r, xr in enumerate(a):
            if all(c.is_zero() for c in xr):
                continue
            for s, ys in enumerate(b):
                if all(c.is_zero() for c in ys):
                    continue
                term = self._u_times(r + s, self.e_mul(self.sigma_pow(xr, s), ys))
                out = tuple(map(self.e_add, out, term))
        return out

    def phi_entries(self, a):
        """Left-regular matrix of a with exact E-element entries: entry (r, c)
        is sigma^c(x_{(r-c) mod n}), multiplied by gamma above the diagonal."""
        n = self.n
        rows = []
        for r in range(n):
            row = []
            for c in range(n):
                entry = self.sigma_pow(a[(r - c) % n], c)
                if r < c:
                    entry = self.e_scale(entry, self.gamma)
                row.append(entry)
            rows.append(row)
        return rows

    def multiblock_embed(self, a):
        """(alpha_1(A), ..., alpha_k(A)) as an array of k blocks of shape n x n."""
        entries = self.phi_entries(a)
        blocks = np.empty((self.k, self.n, self.n), dtype=complex)
        for r in range(self.n):
            for c in range(self.n):
                blocks[:, r, c] = self.embed_e(entries[r][c])
        return blocks

    def reduced_trace(self, x):
        """Tr_{E/K}(x) for an E-element x as an exact element of K: the
        reduced trace of x, and Trd(a) = Tr_{E/K}(a_0) for an algebra
        element a."""
        acc = self.e_zero()
        for c in range(self.n):
            acc = self.e_add(acc, self.sigma_pow(x, c))
        return self._in_center(acc, "reduced trace")

    def reduced_norm(self, a):
        """Nrd(a) = det(phi(a)) as an exact element of K (Leibniz expansion,
        fine for the catalog degrees n <= 3).  Test-only witness of the NVD
        mechanism |pdet(phi(a))|^2 = |N_{K/Q}(Nrd a)|, a nonzero integer
        for every nonzero a of the natural order of a division algebra."""
        entries = self.phi_entries(a)
        acc = self.e_zero()
        for perm in permutations(range(self.n)):
            term = self.e_scalar(self.center.one())
            for r in range(self.n):
                term = self.e_mul(term, entries[r][perm[r]])
            # the sign of perm is the parity of its inversion count
            if sum(a > b for a, b in combinations(perm, 2)) % 2:
                term = self.e_scale(term, -1)
            acc = self.e_add(acc, term)
        return self._in_center(acc, "reduced norm")

    def _in_center(self, x, what):
        """The center element an E-element x must be, or PrecisionFailure
        naming `what` if x has an eta term."""
        if not all(c.is_zero() for c in x[1:]):
            raise PrecisionFailure(f"{self.name}: {what} did not land in K")
        return x[0]

    def __repr__(self):
        return f"CyclicAlgebra({self.name}, n={self.n}, center={self.center.name})"


class NaturalOrder:
    """The Z-order O_E + u O_E + ... + u^{n-1} O_E with its 2kn^2-element
    Z-basis u^j c_i, where c_i = e w_a runs over the N = n deg(K) elements
    of the O_E basis.  O_E is kept once: the flat coordinate matrix of the
    z-basis is n diagonal copies of the N x N matrix C of the c_i."""

    def __init__(self, algebra):
        self.algebra = algebra
        K = algebra.center
        n, deg = algebra.n, K.degree
        self.rank = deg * n * n
        units = [K.element([1 if t == a_idx else 0 for t in range(deg)])
                 for a_idx in range(deg)]
        self._cs = [algebra.e_scale(e, w) for e in algebra.rel_basis for w in units]
        # row i: the flat coordinates of c_i, integer rows over one denominator
        self._c_rows, self._c_den = _flat_ints(self._cs)
        if bareiss_det(self._c_rows) == 0:
            raise CatalogInconsistent(f"{algebra.name}: z-basis is not linearly independent")
        self._zdisc = None

    @cached_property
    def z_basis(self):
        """The z-basis u^j c_i, u^0 block first; built on first use."""
        return tuple(self.algebra._u_times(j, c)
                     for j in range(self.algebra.n) for c in self._cs)

    @cached_property
    def _flat_inv(self):
        """Exact inverse of C (column i the flat coordinates of c_i), as
        (integer numerator rows, denominator); computed when coordinates()
        is first called."""
        return inverse(list(zip(*self._c_rows)), self._c_den)

    def coordinates(self, a):
        """Exact coordinates of a over the z-basis, one u^j block at a time.
        With contains(), a test-only witness that the natural order is a
        ring (closed under the algebra product)."""
        inv, inv_den = self._flat_inv
        blocks, den = _flat_ints(a)
        den *= inv_den
        return [Fraction(sum(m * c for m, c in zip(row, nums)), den)
                for nums in blocks for row in inv]

    def contains(self, a):
        """True iff a lies in the order: all its z-coordinates are integers.
        Test-only witness that the natural order holds 1, as an order must
        for its lattice's certified det_min = 1."""
        return all(c.denominator == 1 for c in self.coordinates(a))

    def element_from_z(self, zcoords):
        """The order element with the given integer z-coordinates: its u^j
        coefficient is the sum of z_(jN+i) c_i.  Test-only: it builds the
        order elements on which reduced_norm() witnesses the NVD mechanism
        |pdet(phi(a))|^2 = |N_{K/Q}(Nrd a)|."""
        alg, N = self.algebra, len(self._cs)
        coeffs = []
        for j in range(alg.n):
            acc = alg.e_zero()
            for z, c in zip(zcoords[j * N:(j + 1) * N], self._cs):
                if z:
                    acc = alg.e_add(acc, alg.e_scale(c, z))
            coeffs.append(acc)
        return alg.element(coeffs)

    def z_discriminant(self):
        """Exact determinant of the reduced-trace form summed over all 2k
        embeddings of the center, i.e. det Tr_{K/Q}(Trd(b_i b_j)).

        The z-basis is b = u^r c_i, with c_i = e w_a the N = n deg(K)
        elements of the O_E basis.  Since u^r x u^s y = u^{r+s} sigma^s(x) y,
        u^n = gamma and Trd(u^m z) = 0 unless n divides m,

            Tr_{K/Q} Trd(u^r c_i u^s c_j)
                = [r + s = 0 mod n] Tr_{E/Q}(gamma^{(r+s)/n} sigma^s(c_i) c_j),

        so only the n blocks (r, s) = ((n - s) mod n, s) of the n^2 N x N
        blocks are nonzero, and block s is Y_s^T T C, where
          T[(t,a),(t',b)] = Tr_{K/Q}(tau_{t+t'} w_a w_b), tau_m = Trd(eta^m),
              is the trace form of E on its flat coordinates eta^t w_a,
          C holds the flat coordinates of the c_i, and
          Y_s those of gamma^[s > 0] sigma^s(c_i).
        The blocks sit on a block permutation whose sign is +1, N being
        even (deg K is), so the determinant is the product of the n block
        determinants, each by Bareiss on integer numerators; the
        denominators are divided out at the end."""
        if self._zdisc is None:
            alg = self.algebra
            n, N = alg.n, len(self._cs)
            T, t_den = self._e_trace_form()
            C, c_den = self._c_rows, self._c_den
            # TC[j] = T c_j, so block entry (i, j) is y_i . TC[j]
            TC = [[sum(t * c for t, c in zip(row, col)) for row in T] for col in C]
            det, scale = 1, (t_den * c_den) ** (n * N)
            for s in range(n):
                Y, y_den = (C, c_den) if s == 0 else _flat_ints(
                    [alg.e_scale(alg.sigma_pow(c, s), alg.gamma) for c in self._cs])
                scale *= y_den ** N
                det *= bareiss_det([[sum(a * b for a, b in zip(y, tc)) for tc in TC]
                                    for y in Y])
            d = Fraction(det, scale)
            if d.denominator != 1:
                raise PrecisionFailure(
                    f"{alg.name}: order discriminant {d} is not an integer")
            self._zdisc = int(d)
        return self._zdisc

    def _e_trace_form(self):
        """Tr_{E/Q}(x y) on the flat coordinates eta^t w_a as (integer
        matrix, denominator): entry (t,a),(t',b) is the center's trace form
        twisted by tau_{t+t'} = Trd(eta^{t+t'})."""
        alg, K = self.algebra, self.algebra.center
        n, deg = alg.n, K.degree
        forms = [K.trace_form(alg.reduced_trace(alg.e_scalar(K.one(), m)))
                 for m in range(2 * n - 1)]
        den = math.lcm(*(d for _, d in forms))
        scaled = [[[v * (den // d) for v in row] for row in g] for g, d in forms]
        return [[v for u in range(n) for v in scaled[t + u][a]]
                for t in range(n) for a in range(deg)], den


def _flat_ints(elements):
    """Flat rational coordinates of sequences of center elements (such as
    E-elements) as integer rows over one common denominator: row i lists
    the coordinates of each center element of elements[i] in turn."""
    den = math.lcm(*(c.den for x in elements for c in x))
    return [[m * (den // c.den) for c in x for m in c.nums] for x in elements], den


def order_lattice(order):
    """Multiblock embedding of the natural order as a 2kn^2-dimensional
    matrix lattice (raises DegenerateLattice through the constructor if the
    Gram matrix is numerically rank deficient).  Its det_min is 1 when the
    algebra is asserted to be a division algebra (a nonzero element has
    |pdet| = sqrt|N(Nrd a)| >= 1), and unknown (None) otherwise."""
    from .lattice import MatrixLattice
    alg = order.algebra
    blocks = np.array([alg.multiblock_embed(b) for b in order.z_basis])
    return MatrixLattice(blocks,
                         det_min=1.0 if alg.division_asserted else None)


def trivial_algebra(field):
    """Degree-1 algebra: the center itself, phi(a) the 1x1 matrix (a).
    Test-only witness that the order discriminant reduces to the field
    discriminant at n = 1, where the algebra codes are the field codes."""
    one = field.one()
    return CyclicAlgebra(
        name=f"trivial_{field.name}",
        center=field,
        n=1,
        rel_poly=[-one, one],
        sigma_eta=(one,),
        gamma=one,
        rel_basis=[(one,)],
        division_asserted=True,
    )

