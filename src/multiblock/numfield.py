"""Totally complex number fields from a text catalog.

A field is defined by a monic integer minimal polynomial and an explicit
integral basis (rational polynomials in the root theta).  Elements,
products, trace forms, norms and discriminants are exact: every rational vector
is held as integer numerators over one common denominator, and products
are taken on the integer theta polynomials modulo the minimal polynomial
(a zero or unit operand takes none).
The relative canonical embedding (one root per complex-conjugate pair,
positive imaginary part) is computed in doubles.  Roots are found and
Newton-polished in numpy (its complex array multiply is fused on some
hosts, so polishing on Python numbers would move their bits); after that
the constructor works on Python complex numbers, whose arithmetic gives
the same unfused results as numpy scalars without their dispatch.
"""

import itertools
import math
import numbers
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .errors import CatalogInconsistent, NotTotallyComplex
from .exact import (bareiss_det, common_denominator, inverse, poly_mod,
                    poly_mul, power_sums)

ROOT_RESIDUAL_TOL = 1e-12
REAL_ROOT_TOL = 1e-8

# Best known root discriminants |d|^(1/2k) for totally complex fields of
# degree 2k, k = 1..5, rounded to 3 decimals (meets_table_target allows
# that 1e-3).  The first four are known optimal.
BEST_ROOT_DISC = {1: 1.732, 2: 3.289, 3: 4.622, 4: 5.787, 5: 6.793}


def polished_roots(coeffs, tol, name):
    """Roots of the polynomial with ascending coefficients `coeffs`:
    companion-matrix eigenvalues, then Newton steps until every residual is
    below `tol`.  CatalogInconsistent if 50 steps leave a residual above
    it."""
    desc = list(reversed(coeffs))
    deriv = [c * (len(desc) - 1 - i) for i, c in enumerate(desc[:-1])]
    roots = np.roots(desc)
    for _ in range(50):
        vals = np.polyval(desc, roots)
        if np.max(np.abs(vals)) < tol:
            return roots
        roots = roots - vals / np.polyval(deriv, roots)
    residual = np.max(np.abs(np.polyval(desc, roots)))
    if residual > tol:
        raise CatalogInconsistent(
            f"{name}: root polishing stalled at residual {residual:.2e}")
    return roots


class FieldElement:
    """Element of a NumberField: coordinates over the integral basis, held
    as the integer numerators `nums` over the positive denominator `den`, in
    lowest terms.  `coords` gives the same coordinates as Fractions."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, coords):
        nums, den = common_denominator(coords)
        if len(nums) != field.degree:
            raise ValueError("coordinate length != field degree")
        self.field = field
        self.nums, self.den = _lowest_terms(nums, den)

    @classmethod
    def _from_ints(cls, field, nums, den):
        """Element with coordinates nums / den (integers, den > 0)."""
        x = object.__new__(cls)
        x.field = field
        x.nums, x.den = _lowest_terms(nums, den)
        return x

    @property
    def coords(self):
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __add__(self, other):
        self._check(other)
        da, db = self.den, other.den
        return FieldElement._from_ints(
            self.field, [a * db + b * da for a, b in zip(self.nums, other.nums)], da * db)

    def __sub__(self, other):
        self._check(other)
        da, db = self.den, other.den
        return FieldElement._from_ints(
            self.field, [a * db - b * da for a, b in zip(self.nums, other.nums)], da * db)

    def __neg__(self):
        return FieldElement._from_ints(self.field, [-a for a in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, numbers.Rational):
            # any rational scalar, numpy integers included, as Python ints
            num, den = int(other.numerator), int(other.denominator)
            return FieldElement._from_ints(
                self.field, [a * num for a in self.nums], self.den * den)
        self._check(other)
        return self.field.mul(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and other.field is self.field
                and other.den == self.den and other.nums == self.nums)

    def __hash__(self):
        return hash((id(self.field), self.nums, self.den))

    def __repr__(self):
        return f"FieldElement({self.field.name}, {[str(c) for c in self.coords]})"

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise ValueError("elements belong to different fields")

    def is_zero(self):
        return not any(self.nums)


def _lowest_terms(nums, den):
    g = math.gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(a // g for a in nums), den // g


class NumberField:
    """Totally complex field of degree 2k with a fixed integral basis.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, name, min_poly, basis, disc_expected=None, suboptimal=False):
        self.name = name
        self.min_poly = tuple(int(c) for c in min_poly)
        if self.min_poly[-1] != 1:
            raise CatalogInconsistent(f"{name}: min_poly must be monic")
        self.degree = len(self.min_poly) - 1
        if self.degree % 2 != 0:
            raise NotTotallyComplex(f"{name}: odd degree field cannot be totally complex")
        self.k = self.degree // 2
        # rationals as given: ints stay ints, anything else becomes a Fraction
        self.basis = tuple(tuple(c if type(c) is int else Fraction(c) for c in b)
                           for b in basis)
        if len(self.basis) != self.degree:
            raise CatalogInconsistent(f"{name}: integral basis must have {self.degree} elements")
        self.disc_expected = disc_expected
        self.suboptimal = suboptimal

        roots = polished_roots(self.min_poly, ROOT_RESIDUAL_TOL, name).tolist()
        self._check_irreducible(roots)
        roots = self._choose_embeddings(roots)
        self.roots = np.array(roots)

        # change of basis: column j = theta-power coefficients of basis[j],
        # held as integer numerators over one denominator
        n = self.degree
        if any(len(b) > n for b in self.basis):
            raise CatalogInconsistent(f"{name}: basis polynomial degree too high")
        flat, self._basis_den = common_denominator(
            b[i] if i < len(b) else 0 for i in range(n) for b in self.basis)
        self._basis_mat = [flat[i * n:(i + 1) * n] for i in range(n)]
        self._basis_det = bareiss_det(self._basis_mat)
        if self._basis_det == 0:
            raise CatalogInconsistent(f"{name}: integral basis is not linearly independent")
        self._disc = None

    @cached_property
    def _basis_values(self):
        """Values of each basis element at every root (2k x 2k) by Horner's
        rule, each coefficient a double once; an element whose top
        coefficients are all of the previous one's continues from its value
        (theta^(j+1) is theta^j z + 0j, bit for bit)."""
        plan, prev = [], ()
        for b in self.basis:
            cut = len(b) - len(prev)
            keep = cut >= 0 and b[cut:] == prev
            plan.append((keep, [complex(float(c)) for c in
                                reversed(b[:cut] if keep else b)]))
            prev = b
        rows = []
        for r in self.roots.tolist():
            acc, row = 0j, []
            for keep, coeffs in plan:
                acc = acc if keep else 0j
                for c in coeffs:
                    acc = acc * r + c
                row.append(acc)
            rows.append(row)
        return np.array(rows)

    @cached_property
    def _basis_inv(self):
        """Exact inverse of the change of basis, as (integer numerator rows,
        denominator); computed when the field first maps a theta polynomial
        back to the integral basis."""
        return inverse(self._basis_mat, self._basis_den)

    @cached_property
    def _theta_traces(self):
        """Tr(theta^m), m = 0..3n-3: integers, theta being an algebraic
        integer; trace_form reads them all, discriminant those to 2n-2."""
        return power_sums(self.min_poly, 3 * (self.degree - 1))

    # -- construction checks ------------------------------------------------

    def _check_irreducible(self, roots):
        """Reject a min_poly with a monic integer factor g, 0 < deg g <=
        deg/2.  Such a g has real coefficients, so it is a product of x - r
        over real roots r and x^2 - 2Re(r) x + |r|^2 over conjugate pairs, and
        every such product is tried.  Floats only choose the candidates: a
        product whose x^(deg g - 1) coefficient lies more than 1e-3 from an
        integer is skipped, and the rest is rounded to integers and rejected
        only when it divides min_poly exactly.  `roots` is a list of Python
        complex numbers."""
        # per atom, in three lists that combinations walk in step: the sum
        # of its roots, its degree and its ascending coefficients
        real = [r for r in roots if abs(r.imag) < REAL_ROOT_TOL]
        pairs = [r for r in roots if r.imag >= REAL_ROOT_TOL]
        traces = [r.real for r in real] + [2 * r.real for r in pairs]
        degrees = [1] * len(real) + [2] * len(pairs)
        polys = ([[-r.real, 1.0] for r in real]
                 + [[abs(r) ** 2, -2 * r.real, 1.0] for r in pairs])
        half = self.degree // 2
        for size in range(1, half + 1):
            if sum(degrees[:size]) > half:
                break           # the real atoms come first: least degree
            for ts, ds, gs in zip(*(itertools.combinations(atom, size)
                                    for atom in (traces, degrees, polys))):
                trace = sum(ts)
                if sum(ds) > half or abs(trace - round(trace)) > 1e-3:
                    continue
                g = [round(c) for c in reduce(poly_mul, gs)]
                if not any(poly_mod(self.min_poly, g)):
                    raise CatalogInconsistent(
                        f"{self.name}: min_poly has the integer factor "
                        f"{' '.join(map(str, g))} (ascending)")

    def _choose_embeddings(self, roots):
        """Pick the positive-imaginary root of each conjugate pair and order
        the full root list (Python complex numbers) as [chosen...,
        conjugates...]."""
        if min(abs(r.imag) for r in roots) < REAL_ROOT_TOL:
            raise NotTotallyComplex(f"{self.name}: min_poly has a real root")
        upper = [r for r in roots if r.imag > 0]
        lower = [r for r in roots if r.imag < 0]
        if len(upper) != self.k:
            raise NotTotallyComplex(f"{self.name}: roots do not split into conjugate pairs")
        upper.sort(key=lambda z: (z.real, z.imag))
        paired = []
        pool = list(lower)
        for r in upper:
            match = min(pool, key=lambda z: abs(z - r.conjugate()))
            if abs(match - r.conjugate()) > 1e-8:
                raise NotTotallyComplex(f"{self.name}: unpaired complex root {r}")
            pool.remove(match)
            paired.append(match)
        return upper + paired

    # -- element plumbing ---------------------------------------------------

    def element(self, coords):
        return FieldElement(self, coords)

    def zero(self):
        return FieldElement._from_ints(self, [0] * self.degree, 1)

    def one(self):
        return self._one

    @cached_property
    def _one(self):
        """The unit, built once: `mul` compares operands with it."""
        return self.from_theta_poly([1])

    def _theta_ints(self, x):
        """Theta polynomial of x as (n integer numerators, denominator)."""
        nums = x.nums
        return ([sum(m * c for m, c in zip(row, nums)) for row in self._basis_mat],
                x.den * self._basis_den)

    def _from_theta_ints(self, poly, den):
        """Element whose theta polynomial is poly / den (poly already
        reduced: n integer coefficients)."""
        inv, inv_den = self._basis_inv
        coords = [sum(m * c for m, c in zip(row, poly)) for row in inv]
        return FieldElement._from_ints(self, coords, den * inv_den)

    def from_theta_poly(self, poly):
        nums, den = common_denominator(poly)
        return self._from_theta_ints(poly_mod(nums, self.min_poly), den)

    def mul(self, a, b):
        """Exact product: integer theta polynomials multiplied and reduced
        modulo the monic min_poly, then mapped back to the integral basis.
        A zero or unit operand needs no product: the other operand, or the
        zero, is returned as it is, its lowest-terms (nums, den) being the
        one the full product would give."""
        if a.is_zero() or b == self._one:
            return a
        if b.is_zero() or a == self._one:
            return b
        pa, da = self._theta_ints(a)
        pb, db = self._theta_ints(b)
        return self._from_theta_ints(poly_mod(poly_mul(pa, pb), self.min_poly), da * db)

    def norm(self, x):
        """Exact N_{K/Q}(x): determinant of multiplication by x in the theta
        power basis."""
        n = self.degree
        current, den = self._theta_ints(x)
        cols = []
        for _ in range(n):
            cols.append(current)
            current = poly_mod([0] + current, self.min_poly)
        # the columns as rows: a transpose has the same determinant
        return Fraction(bareiss_det(cols), den ** n)

    # -- embeddings ----------------------------------------------------------

    def embed_all(self, x):
        """Values of x at all 2k roots (chosen embeddings first)."""
        coords = np.array([a / x.den for a in x.nums])
        return self._basis_values @ coords

    def canonical_embed(self, x):
        """Relative canonical embedding: one value per conjugate pair."""
        return self.embed_all(x)[:self.k]

    # -- invariants ----------------------------------------------------------

    def trace_form(self, x):
        """Twisted trace form Tr(x w_i w_j) of the integral basis as (integer
        matrix, positive denominator).

        With w = theta-power coefficients M / D (columns), x = t / e in
        theta powers and p_m = Tr(theta^m), the form is M^T H M / (e D^2)
        for the Hankel matrix H[a][b] = sum_l t_l p_{a+b+l}: integers alone,
        and no product in the field."""
        n = self.degree
        t, den = self._theta_ints(x)
        p, M = self._theta_traces, self._basis_mat
        h = [sum(c * p[m + l] for l, c in enumerate(t) if c) for m in range(2 * n - 1)]
        HM = [[sum(h[a + b] * M[b][j] for b in range(n)) for j in range(n)]
              for a in range(n)]
        gram = [[sum(M[a][i] * HM[a][j] for a in range(n)) for j in range(n)]
                for i in range(n)]
        return gram, den * self._basis_den ** 2

    def discriminant(self):
        """det(Tr(w_i w_j)) as an exact integer, cross-checked against the
        catalog value when one was supplied.  The Gram is M^T H M / D^2
        (see trace_form) with H[a][b] = p_{a+b}, so its determinant is
        det(M)^2 det(H) / D^(2n), det(M) being the one the constructor took
        to check the basis."""
        if self._disc is None:
            n, p = self.degree, self._theta_traces
            hankel = [[p[a + b] for b in range(n)] for a in range(n)]
            d = Fraction(self._basis_det ** 2 * bareiss_det(hankel),
                         self._basis_den ** (2 * n))
            if d.denominator != 1:
                raise CatalogInconsistent(
                    f"{self.name}: trace form determinant {d} is not an integer; "
                    "basis is not an order")
            d = int(d)
            if self.disc_expected is not None and d != self.disc_expected:
                raise CatalogInconsistent(
                    f"{self.name}: computed discriminant {d} != catalog {self.disc_expected}")
            self._disc = d
        return self._disc

    def root_discriminant(self):
        return abs(self.discriminant()) ** (1.0 / self.degree)

    def table_target(self):
        """Best known root discriminant for this degree, or None."""
        return BEST_ROOT_DISC.get(self.k)

    def meets_table_target(self):
        target = self.table_target()
        if target is None:
            return None
        return self.root_discriminant() <= target + 1e-3

    def __repr__(self):
        return f"NumberField({self.name}, degree={self.degree})"


def _eval_poly(coeffs, z):
    """Horner value at z of a polynomial with complex coefficients
    (ascending)."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc
