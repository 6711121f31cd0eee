"""Property tests for the integer exact arithmetic.

Field products, traces, norms and discriminants run on integer numerators
over a common denominator; they are checked against the per-coefficient
Fraction route in oracles, and the fraction-free Bareiss determinant and
Gauss-Jordan inverse, which take integer rows over one denominator, against
plain Fraction elimination.  Hypothesis runs derandomized, so every process
draws the same examples.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiblock.exact import bareiss_det, common_denominator, inverse
from multiblock.numfield import NumberField

from oracles import (fraction_det, fraction_inverse, reference_discriminant,
                     reference_field_mul, reference_trace)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

# Orders whose basis is not the power basis, so the change-of-basis matrix
# and its denominators take part: Z[(1+sqrt-3)/2] from x^2 + 3, the
# non-maximal Z[2i], and Z[zeta5] on a unimodular change of the power basis.
EXTRA_FIELDS = [
    NumberField("eisenstein_half", [3, 0, 1], [[1], [Fraction(1, 2), Fraction(1, 2)]],
                disc_expected=-3),
    NumberField("z_2i", [1, 0, 1], [[1], [0, 2]], disc_expected=-16),
    NumberField("zeta5_mixed", [1, 1, 1, 1, 1],
                [[1], [1, 1], [0, 1, 1], [0, 0, 0, 1]], disc_expected=125),
]

RATIONAL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


def all_fields(catalog):
    return [catalog.fields[name] for name in sorted(catalog.fields)] + EXTRA_FIELDS


def draw_element(data, field):
    return field.element(data.draw(st.lists(RATIONAL, min_size=field.degree,
                                            max_size=field.degree)))


def draw_field(data, catalog, max_degree=16):
    return data.draw(st.sampled_from([K for K in all_fields(catalog)
                                      if K.degree <= max_degree]))


@PROPERTY
@given(st.data())
def test_mul_matches_fraction_reference(catalog, data):
    K = draw_field(data, catalog)
    a, b = draw_element(data, K), draw_element(data, K)
    prod = a * b
    assert prod == reference_field_mul(K, a, b)
    assert prod.coords == reference_field_mul(K, a, b).coords
    # row 0 of the twisted trace form is Tr(prod w_0 w_j), with w_0 = 1
    assert K.basis[0] == (1,)
    gram, den = K.trace_form(prod)
    units = [K.element([int(i == j) for i in range(K.degree)])
             for j in range(K.degree)]
    assert [Fraction(g, den) for g in gram[0]] == \
        [reference_trace(K, prod * w) for w in units]


@PROPERTY
@given(st.data())
def test_zero_or_unit_operand_gives_the_full_product(catalog, data):
    # such products return at once, with the (nums, den) of the Fraction
    # route; operands of two fields are still refused first
    K = draw_field(data, catalog)
    x = draw_element(data, K)
    # built afresh, so they are recognized by value, not by identity
    trivial = data.draw(st.sampled_from([K.element([0] * K.degree),
                                         K.from_theta_poly([1])]))
    for a, b in ((x, trivial), (trivial, x), (trivial, trivial)):
        ref = reference_field_mul(K, a, b)
        prod = a * b
        assert (prod.nums, prod.den) == (ref.nums, ref.den)
    other = data.draw(st.sampled_from([L for L in all_fields(catalog)
                                       if L is not K]))
    for y in (other.zero(), other.one()):
        for a, b in ((x, y), (y, x), (trivial, y), (y, trivial)):
            with pytest.raises(ValueError):
                a * b


@PROPERTY
@given(st.data())
def test_mul_is_associative_and_commutative(catalog, data):
    K = draw_field(data, catalog)
    a, b, c = (draw_element(data, K) for _ in range(3))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert hash(a * b) == hash(b * a)


@PROPERTY
@given(st.data())
def test_norm_is_det_of_multiplication_on_the_basis(catalog, data):
    K = draw_field(data, catalog, max_degree=8)   # the reference is slow at 16
    x, y = draw_element(data, K), draw_element(data, K)
    n = K.degree
    units = [K.element([int(i == j) for j in range(n)]) for i in range(n)]
    cols = [reference_field_mul(K, x, w).coords for w in units]
    assert K.norm(x) == fraction_det([[cols[j][i] for j in range(n)] for i in range(n)])
    assert K.norm(x * y) == K.norm(x) * K.norm(y)


def test_element_representation(catalog):
    K = catalog.field("cyclo5")
    x = K.element([Fraction(2, 4), 3, Fraction(-6, 9), 0])
    assert x.coords == (Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(0))
    assert (x.nums, x.den) == ((3, 18, -4, 0), 6)
    assert x == K.element([Fraction(1, 2), 3, Fraction(-2, 3), 0])
    assert x.den != 1 and (x * 6).den == 1
    assert K.zero() == K.element([0, 0, 0, 0]) and K.zero().den == 1
    assert (x - x).is_zero() and (x - x) == K.zero()


def test_discriminant_matches_fraction_reference_and_catalog(catalog):
    for K in all_fields(catalog):
        d = K.discriminant()
        assert d == reference_discriminant(K), K.name
        assert d == K.disc_expected, K.name


def test_order_discriminants_pinned(golden_order, zeta20_order):
    assert golden_order.z_discriminant() == 160000
    assert zeta20_order.z_discriminant() == 3429742096000000000000


@st.composite
def square_matrices(draw, entries):
    n = draw(st.integers(0, 7))
    m = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # a pivot swap: the leading column starts with zeros
        zeros = draw(st.integers(1, n - 1))
        for r in range(zeros):
            m[r][0] = 0
    if n >= 3 and draw(st.booleans()):
        # singular: the last row is a combination of two others, with
        # multipliers drawn like the entries
        s, t = draw(entries), draw(entries)
        m[-1] = [s * x + t * y for x, y in zip(m[0], m[1])]
    return m


def over_one_denominator(m):
    """A rational square matrix as (integer rows, one denominator): the form
    that bareiss_det and inverse take."""
    nums, den = common_denominator(x for row in m for x in row)
    n = len(m)
    return [nums[i * n:(i + 1) * n] for i in range(n)], den


@PROPERTY
@given(square_matrices(st.integers(-9, 9)))
def test_bareiss_det_integer_matrices(m):
    before = [row[:] for row in m]
    d = bareiss_det(m)
    assert type(d) is int
    assert d == fraction_det(m)
    assert m == before             # the caller's rows are left as they were


@PROPERTY
@given(square_matrices(st.one_of(st.integers(-9, 9), RATIONAL)))
def test_bareiss_det_rational_matrices(m):
    rows, den = over_one_denominator(m)
    assert Fraction(bareiss_det(rows), den ** len(m)) == fraction_det(m)


@PROPERTY
@given(square_matrices(st.one_of(st.integers(-9, 9), RATIONAL)))
def test_inverse_matches_fraction_solve(m):
    rows, den = over_one_denominator(m)
    if fraction_det(m) == 0:
        if m:
            with pytest.raises(ZeroDivisionError):
                inverse(rows, den)
        return
    nums, inv_den = inverse(rows, den)
    assert inv_den > 0
    assert math.gcd(inv_den, *(x for row in nums for x in row)) == 1
    assert [[Fraction(x, inv_den) for x in row] for row in nums] == fraction_inverse(m)


@st.composite
def planted_matrices(draw):
    """Integer matrices with an identity block on the diagonal and some
    columns zero from a drawn row down: elimination steps whose multiplier
    is 0 under a pivot equal to the previous one, which leave their row as
    it is, next to steps that do not (a column zero from the top makes the
    matrix singular)."""
    n = draw(st.integers(1, 9))
    m = [draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
         for _ in range(n)]
    start = draw(st.integers(0, n - 1))
    for i in range(start, start + draw(st.integers(1, n - start))):
        m[i][start:i] = [0] * (i - start)
        m[i][i] = 1
        for r in range(start, i):
            m[r][i] = 0
    for j in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        for r in range(draw(st.integers(0, n - 1)), n):
            m[r][j] = 0
    return m


@PROPERTY
@given(planted_matrices())
def test_bareiss_det_and_inverse_on_planted_identity_blocks(m):
    assert bareiss_det(m) == fraction_det(m)
    if fraction_det(m) == 0:
        with pytest.raises(ZeroDivisionError):
            inverse(m, 1)
        return
    nums, den = inverse(m, 1)
    assert [[Fraction(x, den) for x in row] for row in nums] == fraction_inverse(m)


def test_identity_determinant_and_inverse():
    # the basis matrix of every catalog field
    for n in (1, 2, 8, 16):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert bareiss_det(eye) == 1
        assert inverse(eye, 3) == ([[3 * x for x in row] for row in eye], 1)
