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

import numpy as np

from .errors import CatalogInconsistent, PrecisionFailure
from .exact import bareiss_det
from .numfield import _eval_poly, polished_roots

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
        return [_eval_poly([complex(vals[i]) for vals in embedded], eta)
                for i, eta in enumerate(self._eta_roots)]

    # -- algebra elements -------------------------------------------------------

    def _u_times(self, j, x):
        """u^j x for an E-element x and 0 <= j < 2n: x placed at u^(j mod
        n), times gamma when j >= n (u^n = gamma)."""
        if j >= self.n:
            x = self.e_scale(x, self.gamma)
        return tuple(x if t == j % self.n else self.e_zero() for t in range(self.n))

    def product(self, a, b):
        """Exact product via u^r x u^s y = u^{r+s} sigma^s(x) y and u^n = gamma.
        Test-only witness that the multiblock embedding is multiplicative
        and the natural order a ring, on which the paper's nonvanishing
        determinant argument rests, and the pairwise route to the order
        discriminant that z_discriminant's closed form replaced."""
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

    def reduced_trace(self, x):
        """Tr_{E/K}(x) for an E-element x as an exact element of K: the
        reduced trace of x, and Trd(a) = Tr_{E/K}(a_0) for an algebra
        element a."""
        acc = self.e_zero()
        for c in range(self.n):
            acc = self.e_add(acc, self.sigma_pow(x, c))
        return self._in_center(acc, "reduced trace")

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
    of the O_E basis.  O_E is kept once, as the c_i: the flat coordinate
    matrix of the z-basis is n diagonal copies of the N x N matrix C of the
    c_i, of which only det(C) is kept."""

    def __init__(self, algebra):
        self.algebra = algebra
        K = algebra.center
        n, deg = algebra.n, K.degree
        self.rank = deg * n * n
        units = [K.element([1 if t == a_idx else 0 for t in range(deg)])
                 for a_idx in range(deg)]
        self._cs = [algebra.e_scale(e, w) for e in algebra.rel_basis for w in units]
        # C: row i the flat coordinates of c_i, integers over one denominator
        self._c_den = math.lcm(*(c.den for x in self._cs for c in x))
        self._c_det = bareiss_det([[m * (self._c_den // c.den)
                                    for c in x for m in c.nums] for x in self._cs])
        if self._c_det == 0:
            raise CatalogInconsistent(f"{algebra.name}: z-basis is not linearly independent")
        self._zdisc = None

    def element_from_z(self, zcoords):
        """The order element with the given integer z-coordinates: its u^j
        coefficient is the sum of z_(jN+i) c_i.  Test-only: it builds the
        order elements on which `witnesses.reduced_norm` witnesses the NVD
        mechanism |pdet(phi(a))|^2 = |N_{K/Q}(Nrd a)|."""
        alg, N = self.algebra, len(self._cs)
        coeffs = []
        for j in range(alg.n):
            acc = alg.e_zero()
            for z, c in zip(zcoords[j * N:(j + 1) * N], self._cs):
                if z:
                    acc = alg.e_add(acc, alg.e_scale(c, z))
            coeffs.append(acc)
        return tuple(coeffs)

    def z_discriminant(self):
        """Exact determinant of the reduced-trace form summed over all 2k
        embeddings of the center, i.e. det Tr_{K/Q}(Trd(b_i b_j)), in closed
        form: d^n N_{K/Q}(gamma)^(n(n-1)) with d = det(C)^2 det(T), where
          C holds the flat coordinates of the N = n deg(K) elements c_i of
              the O_E basis (its determinant taken by the constructor), and
          T[(t,a),(t',b)] = Tr_{K/Q}(tau_{t+t'} w_a w_b), tau_m = Trd(eta^m),
              is the trace form of E on its flat coordinates eta^t w_a.
        The z-basis is b = u^r c_i, and u^r x u^s y = u^{r+s} sigma^s(x) y
        with u^n = gamma, so three facts give the form:
        - Trd(u^m z) = 0 unless n divides m, so only the n blocks (r, s) =
          ((n - s) mod n, s) of the n^2 N x N blocks are nonzero; they sit
          on a block permutation of sign +1, N being even (deg K is), and
          block s is the Gram C^T L_s^T T C of the c_i under the map L_s:
          x -> gamma^[s > 0] sigma^s(x).
        - Multiplication by gamma in K has determinant N_{K/Q}(gamma)^n over
          Q, E being n-dimensional over K.
        - sigma^s is K-linear with det_K a root of unity, whose norm to Q is
          1, deg K being even.
        So det L_s = N_{K/Q}(gamma)^n for s > 0 and 1 for s = 0; the
        denominators of C and T are divided out at the end."""
        if self._zdisc is None:
            alg = self.algebra
            n, N = alg.n, len(self._cs)
            T, t_den = self._e_trace_form()
            d = Fraction(self._c_det ** 2 * bareiss_det(T),
                         self._c_den ** (2 * N) * t_den ** N)
            d = d ** n * alg.center.norm(alg.gamma) ** (n * (n - 1))
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


def order_lattice(order):
    """Multiblock embedding of the natural order as a 2kn^2-dimensional
    matrix lattice (raises DegenerateLattice through the constructor if the
    Gram matrix is numerically rank deficient).  Its det_min is 1 when the
    algebra is asserted to be a division algebra (a nonzero element has
    |pdet| = sqrt|N(Nrd a)| >= 1), and unknown (None) otherwise.

    Basis row j N + i embeds the z-basis element u^j c_i, whose left-regular
    matrix has entry (r, c) = sigma^c(c_i) if r >= c and gamma sigma^c(c_i)
    if r < c, where (r - c) mod n = j, and 0 elsewhere.  So each c_i needs
    only its n images sigma^c(c_i), one sigma step apart, and gamma times
    those with c >= 1: each is computed and embedded once, then placed in
    every row that holds it, and a zero image stays 0.  The blocks are those
    of embedding each u^j c_i on its own, bit for bit."""
    from .lattice import MatrixLattice
    alg = order.algebra
    n, N = alg.n, len(order._cs)
    blocks = np.zeros((n * N, alg.k, n, n), dtype=complex)
    for i, c_i in enumerate(order._cs):
        images = [c_i]
        for _ in range(n - 1):
            images.append(alg.sigma(images[-1]))
        for c, image in enumerate(images):
            # rows r >= c of column c hold sigma^c(c_i), rows r < c its
            # gamma multiple
            parts = [(image, range(c, n))]
            if c:
                parts.append((alg.e_scale(image, alg.gamma), range(c)))
            for entry, rows in parts:
                if not all(x.is_zero() for x in entry):
                    values = alg.embed_e(entry)
                    for r in rows:
                        blocks[((r - c) % n) * N + i, :, r, c] = values
    return MatrixLattice(blocks,
                         det_min=1.0 if alg.division_asserted else None)
