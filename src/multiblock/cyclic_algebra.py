"""Cyclic algebras (E/K, sigma, gamma), natural orders, and their embeddings.

E is represented as K[eta]/(rel_poly); algebra elements are x_0 + u x_1 +
... + u^{n-1} x_{n-1} with coefficients in E and relations x u = u sigma(x),
u^n = gamma.  All coefficient arithmetic is exact (center elements on
integer numerators over a common denominator); only the final embeddings
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


class AlgebraElement:
    """Element of a cyclic algebra: tuple of n E-coefficients, each a tuple
    of n elements of the center.  Products go through CyclicAlgebra.mul."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(tuple(c) for c in coords)

    def __repr__(self):
        return f"AlgebraElement({self.algebra.name})"


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

        self._sigma_eta_pows = self._powers(self.sigma_eta)
        self._check_sigma()
        self._eta_roots = self._choose_eta_roots()

    # -- E = K[eta]/(rel_poly) arithmetic -------------------------------------

    def e_zero(self):
        return tuple(self.center.zero() for _ in range(self.n))

    def e_one(self):
        out = [self.center.zero() for _ in range(self.n)]
        out[0] = self.center.one()
        return tuple(out)

    def e_eta(self):
        if self.n == 1:
            # E = K and eta = 1 (rel_poly is y - 1 up to normalization)
            return self.e_scalar(self.center.zero() - self.rel_poly[0])
        out = [self.center.zero() for _ in range(self.n)]
        out[1] = self.center.one()
        return tuple(out)

    def e_scalar(self, x):
        out = [self.center.zero() for _ in range(self.n)]
        out[0] = x
        return tuple(out)

    def e_add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def e_neg(self, a):
        return tuple(-x for x in a)

    def e_scale(self, a, c):
        """Scale an E-element by a K-element."""
        return tuple(x * c for x in a)

    def e_mul(self, a, b):
        n = self.n
        prod = [self.center.zero() for _ in range(2 * n - 1)]
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b):
                if y.is_zero():
                    continue
                prod[i + j] = prod[i + j] + x * y
        # reduce modulo the monic rel_poly
        for deg in range(2 * n - 2, n - 1, -1):
            lead = prod[deg]
            if lead.is_zero():
                continue
            for i in range(n + 1):
                prod[deg - n + i] = prod[deg - n + i] - lead * self.rel_poly[i]
        return tuple(prod[:n])

    def e_equal(self, a, b):
        return all((x - y).is_zero() for x, y in zip(a, b))

    def _powers(self, e):
        pows = [self.e_one()]
        for _ in range(self.n - 1):
            pows.append(self.e_mul(pows[-1], e))
        return pows

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
        # sigma must send eta to another root of rel_poly ...
        acc = self.e_zero()
        for i, c in enumerate(self.rel_poly[:-1]):
            acc = self.e_add(acc, self.e_scale(self._sigma_eta_pows[i], c))
        acc = self.e_add(acc, self.e_mul(self._sigma_eta_pows[-1], self.sigma_eta))
        if not all(c.is_zero() for c in acc):
            raise CatalogInconsistent(f"{self.name}: sigma_eta is not a root of rel_poly")
        # ... and have order dividing n (applied literally n times)
        e = self.e_eta()
        img = e
        for _ in range(self.n):
            img = self.sigma(img)
        if not self.e_equal(img, e):
            raise CatalogInconsistent(f"{self.name}: sigma^n is not the identity")

    # -- embeddings ------------------------------------------------------------

    def _choose_eta_roots(self):
        """One deterministic root of the embedded rel_poly per chosen
        embedding of K (sorted by descending imaginary, then descending real
        part, after rounding out float noise), polished to a residual below
        ETA_RESIDUAL_TOL or refused as CatalogInconsistent."""
        roots = []
        for i in range(self.k):
            coeffs = [complex(self.center.canonical_embed(c)[i]) for c in self.rel_poly]
            cand = polished_roots(coeffs, ETA_RESIDUAL_TOL, self.name)
            cand = sorted(cand, key=lambda z: (-round(z.imag, 9), -round(z.real, 9)))
            roots.append(complex(cand[0]))
        return roots

    def embed_e(self, x, i):
        """Value of an E-element at the i-th chosen embedding."""
        eta = self._eta_roots[i]
        acc = 0j
        for j in reversed(range(self.n)):
            acc = acc * eta + complex(self.center.canonical_embed(x[j])[i])
        return acc

    # -- algebra elements -------------------------------------------------------

    def element(self, coords):
        return AlgebraElement(self, coords)

    def one(self):
        coords = [self.e_zero() for _ in range(self.n)]
        coords[0] = self.e_one()
        return AlgebraElement(self, coords)

    def u(self):
        if self.n == 1:
            return AlgebraElement(self, [self.e_scalar(self.gamma)])
        coords = [self.e_zero() for _ in range(self.n)]
        coords[1] = self.e_one()
        return AlgebraElement(self, coords)

    def mul(self, a, b):
        """Exact product via u^r x u^s y = u^{r+s} sigma^s(x) y and u^n = gamma.
        Test-only witness that the multiblock embedding is multiplicative
        and the natural order a ring, on which the paper's nonvanishing
        determinant argument rests, and the pairwise route to the order
        discriminant that z_discriminant's block form replaced."""
        n = self.n
        out = [self.e_zero() for _ in range(n)]
        for r, xr in enumerate(a.coords):
            if all(c.is_zero() for c in xr):
                continue
            for s, ys in enumerate(b.coords):
                if all(c.is_zero() for c in ys):
                    continue
                term = self.e_mul(self.sigma_pow(xr, s), ys)
                power, wrap = (r + s) % n, (r + s) // n
                for _ in range(wrap):
                    term = self.e_scale(term, self.gamma)
                out[power] = self.e_add(out[power], term)
        return AlgebraElement(self, out)

    def phi_entries(self, a):
        """Left-regular matrix of a with exact E-element entries: entry (r, c)
        is sigma^c(x_{(r-c) mod n}), multiplied by gamma above the diagonal."""
        n = self.n
        rows = []
        for r in range(n):
            row = []
            for c in range(n):
                x = a.coords[(r - c) % n]
                entry = self.sigma_pow(x, c)
                if r < c:
                    entry = self.e_scale(entry, self.gamma)
                row.append(entry)
            rows.append(row)
        return rows

    def multiblock_embed(self, a):
        """(alpha_1(A), ..., alpha_k(A)) as an array of k blocks of shape n x n."""
        entries = self.phi_entries(a)
        blocks = np.empty((self.k, self.n, self.n), dtype=complex)
        for i in range(self.k):
            for r in range(self.n):
                for c in range(self.n):
                    blocks[i, r, c] = self.embed_e(entries[r][c], i)
        return blocks

    def reduced_trace(self, a):
        """Trd(a) = Tr_{E/K}(x_0) as an exact element of K."""
        acc = self.e_zero()
        for c in range(self.n):
            acc = self.e_add(acc, self.sigma_pow(a.coords[0], c))
        for coeff in acc[1:]:
            if not coeff.is_zero():
                raise PrecisionFailure(f"{self.name}: reduced trace did not land in K")
        return acc[0]

    def reduced_norm(self, a):
        """Nrd(a) = det(phi(a)) as an exact element of K (Leibniz expansion,
        fine for the catalog degrees n <= 3).  Test-only witness of the NVD
        mechanism |pdet(phi(a))|^2 = |N_{K/Q}(Nrd a)|, a nonzero integer
        for every nonzero a of the natural order of a division algebra."""
        entries = self.phi_entries(a)
        acc = self.e_zero()
        for perm in permutations(range(self.n)):
            term = self.e_one()
            for r in range(self.n):
                term = self.e_mul(term, entries[r][perm[r]])
            # the sign of perm is the parity of its inversion count
            if sum(a > b for a, b in combinations(perm, 2)) % 2:
                term = self.e_neg(term)
            acc = self.e_add(acc, term)
        for coeff in acc[1:]:
            if not coeff.is_zero():
                raise PrecisionFailure(f"{self.name}: reduced norm did not land in K")
        return acc[0]

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
        alg = self.algebra
        return tuple(alg.element([c if t == j else alg.e_zero() for t in range(alg.n)])
                     for j in range(alg.n) for c in self._cs)

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
        blocks, den = _flat_ints(a.coords)
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
        eta, power, forms = alg.e_eta(), alg.e_one(), []
        for _ in range(2 * n - 1):
            tau = alg.reduced_trace(alg.element([power] + [alg.e_zero()] * (n - 1)))
            forms.append(K.trace_form(tau))
            power = alg.e_mul(power, eta)
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

