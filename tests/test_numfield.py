import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy

from multiblock.catalog import load_catalog
from multiblock.errors import CatalogInconsistent, NotTotallyComplex
from multiblock.exact import poly_mod
from multiblock.numfield import NumberField

from oracles import fraction_inverse

POWER_BASIS_2 = [[1], [0, 1]]
POWER_BASIS_4 = [[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]]


def sympy_poly_disc(min_poly):
    """Independent oracle: resultant-based polynomial discriminant.  Equals
    the field discriminant whenever the power basis is the integral basis."""
    x = sympy.symbols("x")
    return int(sympy.Poly(list(reversed(min_poly)), x).discriminant())


def test_gaussian_field_trace_form():
    # on the basis 1, theta: Tr(1) = 2, Tr(theta) = 0, Tr(theta^2) = -2
    K = NumberField("gauss", [1, 0, 1], POWER_BASIS_2)
    assert K.trace_form() == ([[2, 0], [0, -2]], 1)
    assert K.discriminant() == -4


def test_eisenstein_field_discriminant():
    K = NumberField("omega", [1, 1, 1], POWER_BASIS_2)
    assert K.discriminant() == -3
    assert abs(K.root_discriminant() - 1.732) < 1e-3


def test_cyclotomic_quartic_discriminant_exact_oracle():
    K = NumberField("c5", [1, 1, 1, 1, 1], POWER_BASIS_4)
    assert K.discriminant() == 125
    assert K.discriminant() == sympy_poly_disc([1, 1, 1, 1, 1])


def test_all_catalog_discriminants_match_poly_disc(catalog):
    # every shipped basis is a power basis, so the field discriminant must
    # equal the polynomial discriminant computed by an independent method
    for f in catalog.fields.values():
        assert f.discriminant() == sympy_poly_disc(f.min_poly), f.name


def test_root_residuals_and_pairing(catalog):
    for f in catalog.fields.values():
        coeffs = list(reversed(f.min_poly))
        residual = np.max(np.abs(np.polyval(coeffs, f.roots)))
        assert residual < 1e-12, f.name
        assert np.min(np.abs(f.roots.imag)) > 1e-8, f.name
        # multiset of roots closed under conjugation: chosen first, then mates
        k = f.k
        assert np.allclose(f.roots[k:], f.roots[:k].conj(), atol=1e-9), f.name
        # product of all roots = +/- constant term
        prod = np.prod(f.roots)
        assert abs(abs(prod) - abs(f.min_poly[0])) < 1e-9, f.name


def test_canonical_embed_identity(catalog):
    for f in catalog.fields.values():
        ones = f.canonical_embed(f.one())
        assert np.allclose(ones, np.ones(f.k), atol=1e-12), f.name


def test_canonical_embed_gaussian(q_i):
    assert np.allclose(q_i.canonical_embed(q_i.from_theta_poly([0, 1])), [1j], atol=1e-12)


def test_canonical_embed_cyclotomic_quartic(cyclo5):
    vals = sorted(cyclo5.canonical_embed(cyclo5.from_theta_poly([0, 1])), key=lambda z: z.real)
    expect = sorted([np.exp(2j * np.pi / 5), np.exp(4j * np.pi / 5)],
                    key=lambda z: z.real)
    assert np.allclose(vals, expect, atol=1e-12)
    assert all(v.imag > 0 for v in vals)


def test_embedding_is_ring_homomorphism(cyclo5):
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = cyclo5.element(rng.integers(-5, 6, size=4))
        b = cyclo5.element(rng.integers(-5, 6, size=4))
        lhs = cyclo5.canonical_embed(a * b)
        rhs = cyclo5.canonical_embed(a) * cyclo5.canonical_embed(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_unchosen_root_gives_conjugate(cyclo5):
    rng = np.random.default_rng(13)
    x = cyclo5.element(rng.integers(-4, 5, size=4))
    vals = cyclo5.embed_all(x)
    assert np.allclose(vals[cyclo5.k:], vals[:cyclo5.k].conj(), atol=1e-9)


def test_norm_is_product_of_embedding_moduli(catalog):
    rng = np.random.default_rng(17)
    for f in catalog.fields.values():
        for _ in range(5):
            coords = rng.integers(-3, 4, size=f.degree)
            if not coords.any():
                continue
            x = f.element(coords)
            prod = float(np.prod(np.abs(f.canonical_embed(x)) ** 2))
            nrm = abs(f.norm(x))
            assert nrm.denominator == 1
            assert int(nrm) >= 1
            assert abs(prod - float(nrm)) <= 1e-6 * max(1.0, float(nrm)), f.name


def test_element_arithmetic_exact(q_omega):
    w = q_omega.from_theta_poly([0, 1])
    # omega^2 + omega + 1 = 0
    z = w * w + w + q_omega.one()
    assert z.is_zero()
    half = q_omega.element([Fraction(1, 2), Fraction(1, 2)])
    assert half.den == 2
    assert (half + half).den == 1


def test_scaling_by_any_rational(q_i):
    # numpy integers are rationals too: they scale, not multiply as elements
    one = q_i.one()
    assert one * np.int64(2) == one * 2 == q_i.from_theta_poly([2])
    assert one * np.uint8(3) == q_i.from_theta_poly([3])
    assert (one * Fraction(1, 2)).den == 2
    with pytest.raises(ValueError, match="different fields"):
        one * 0.5


def test_real_root_rejected():
    with pytest.raises(NotTotallyComplex):
        NumberField("bad", [-2, 0, 1], POWER_BASIS_2)  # x^2 - 2


def test_rational_root_rejected():
    with pytest.raises(CatalogInconsistent):
        NumberField("bad", [-1, 0, 0, 0, 1], POWER_BASIS_4)  # x^4 - 1


def _power_basis(degree):
    return [[0] * i + [1] for i in range(degree)]


@pytest.mark.parametrize("min_poly", [
    [1, 0, 2, 0, 1],                        # (x^2 + 1)^2
    [1, 0, 0, 0, 0, 0, 1],                  # x^6 + 1
    [4, 0, 0, 0, 0, 0, 0, 0, 1],            # x^8 + 4
    [1] + [0] * 11 + [1],                   # x^12 + 1
    [1, 2, 3, 3, 3, 2, 1],                  # (x^2+x+1)(x^4+x^3+x^2+x+1)
], ids=["x4+2x2+1", "x6+1", "x8+4", "x12+1", "phi3_phi5"])
def test_reducible_min_poly_rejected(min_poly):
    # none has a rational root, and all but the first have degree > 4; the
    # error names a monic integer factor of degree <= deg/2 that divides
    # min_poly exactly
    degree = len(min_poly) - 1
    with pytest.raises(CatalogInconsistent, match="integer factor") as exc:
        NumberField("bad", min_poly, _power_basis(degree))
    factor = [int(c) for c in
              str(exc.value).split("integer factor ")[1].split(" (")[0].split()]
    assert 1 <= len(factor) - 1 <= degree // 2 and factor[-1] == 1
    assert not any(poly_mod(min_poly, factor))


@pytest.mark.parametrize("min_poly", [
    [1] * 7,                                # x^6 + ... + 1
    [1] + [0] * 15 + [1],                   # x^16 + 1
    [1, 0, 0, 0, -1, 0, 0, 0, 1],           # x^8 - x^4 + 1
], ids=["cyclo7", "x16+1", "cyclo24"])
def test_irreducible_min_poly_accepted(min_poly):
    K = NumberField("ok", min_poly, _power_basis(len(min_poly) - 1))
    assert K.discriminant() == sympy_poly_disc(min_poly)


def test_catalog_loads_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cat = load_catalog()
        assert cat.fields and cat.algebras      # builds every entry


def test_disc_mismatch_rejected():
    with pytest.raises(CatalogInconsistent):
        NumberField("bad", [1, 0, 1], POWER_BASIS_2, disc_expected=-3).discriminant()


def test_norm_trace_of_rational(q_i):
    # Tr(x w_0 w_0) = Tr(x) on q_i's basis 1, theta
    x = q_i.from_theta_poly([Fraction(3, 2)])
    gram, den = q_i.trace_form(x)
    assert Fraction(gram[0][0], den) == 3
    assert q_i.norm(x) == Fraction(9, 4)


def test_table_targets(catalog):
    assert catalog.field("q_omega").meets_table_target()
    assert catalog.field("quartic117").meets_table_target()
    assert catalog.field("sextic9747").meets_table_target()
    assert not catalog.field("cyclo15").meets_table_target()
    assert catalog.field("cyclo32").meets_table_target() is None


def _fraction_horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + complex(float(Fraction(c)))
    return acc


def test_basis_values_match_fraction_horner_bit_for_bit(catalog):
    # each coefficient is converted to a double once, not once per root
    for f in catalog.fields.values():
        ref = np.array([[_fraction_horner(b, r) for b in f.basis] for r in f.roots])
        assert f._basis_values.tobytes() == ref.tobytes(), f.name


def test_basis_inverse_is_lazy_and_exact():
    for basis in (POWER_BASIS_4, [[1], [0, 1], [Fraction(1, 2), 0, Fraction(1, 2)],
                                  [0, Fraction(1, 2), 0, Fraction(1, 2)]]):
        K = NumberField("c8", [1, 0, 0, 0, 1], basis)
        assert "_basis_inv" not in vars(K)      # nothing multiplied yet
        mat = [[Fraction(b[i]) if i < len(b) else Fraction(0) for b in basis]
               for i in range(4)]
        nums, den = K._basis_inv
        assert math.gcd(den, *(x for row in nums for x in row)) == 1
        assert [[Fraction(x, den) for x in row] for row in nums] == fraction_inverse(mat)
        theta = K.from_theta_poly([0, 1])
        assert theta * theta * theta * theta == -K.one()


def test_dependent_basis_rejected_at_construction():
    for basis in ([[1], [2]], [[1, 1], [Fraction(1, 2), Fraction(1, 2)]]):
        with pytest.raises(CatalogInconsistent, match="not linearly independent"):
            NumberField("dep", [1, 0, 1], basis)
