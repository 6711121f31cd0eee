from fractions import Fraction

import numpy as np
import pytest

from multiblock import cyclic_algebra, numfield
from multiblock.catalog import load_catalog
from multiblock.cli import main
from multiblock.cyclic_algebra import CyclicAlgebra, NaturalOrder, order_lattice
from multiblock.errors import CatalogInconsistent, PrecisionFailure
from multiblock.lattice import field_lattice, min_pdet
from multiblock.numfield import NumberField

from oracles import (reference_coordinates, reference_order_lattice,
                     reference_z_discriminant, z_basis)
from witnesses import (algebra_one, algebra_u, multiblock_embed, pdet,
                       reduced_norm, trivial_algebra)

# z-discriminants frozen after dual-route verification (exact trace form vs
# the float Gram volume identity Vol = 2^{-kn^2} sqrt|d|)
GOLDEN_ZDISC = 160000
ZETA20_ZDISC = 3429742096000000000000


def random_order_element(order, rng, lo=-2, hi=3):
    while True:
        z = rng.integers(lo, hi, size=order.rank)
        if z.any():
            return order.element_from_z(z), z


def _gamma_theta(q_i):
    """The degree-1 algebra over Q(i) with gamma = 2 + theta, so u = gamma
    and phi(u) is the 1 x 1 matrix (gamma)."""
    return _variant(trivial_algebra(q_i), "gamma_theta",
                    gamma=q_i.from_theta_poly([2, 1]))


def test_left_regular_of_one_is_identity(golden, zeta20, cube2, q_i):
    for alg in (golden, zeta20, cube2, _gamma_theta(q_i)):
        for i in range(alg.k):
            assert np.allclose(multiblock_embed(alg, algebra_one(alg))[i],
                               np.eye(alg.n), atol=1e-12)


def test_golden_phi_u(golden):
    M = multiblock_embed(golden, algebra_u(golden))[0]
    assert np.allclose(M, np.array([[0, 1j], [1, 0]]), atol=1e-12)
    det = np.linalg.det(M)
    assert abs(det - (-1j)) < 1e-12
    assert abs(abs(det) - 1.0) < 1e-12


def test_u_relation_all_embeddings(golden, zeta20, cube2, q_i):
    for alg in (golden, zeta20, cube2, _gamma_theta(q_i)):
        u = algebra_u(alg)
        for i in range(alg.k):
            M = multiblock_embed(alg, u)[i]
            P = np.linalg.matrix_power(M, alg.n)
            g = alg.center.canonical_embed(alg.gamma)[i]
            assert np.max(np.abs(P - g * np.eye(alg.n))) < 1e-9


def test_representation_multiplicative(golden, zeta20, golden_order, zeta20_order):
    rng = np.random.default_rng(23)
    for alg, order in ((golden, golden_order), (zeta20, zeta20_order)):
        for _ in range(10):
            a, _ = random_order_element(order, rng)
            b, _ = random_order_element(order, rng)
            ab = alg.product(a, b)
            lhs = multiblock_embed(alg, ab)
            rhs = multiblock_embed(alg, a) @ multiblock_embed(alg, b)
            assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_multiblock_embed_shapes(golden, zeta20):
    assert multiblock_embed(golden, algebra_one(golden)).shape == (1, 2, 2)
    blocks = multiblock_embed(zeta20, algebra_one(zeta20))
    assert blocks.shape == (2, 2, 2)
    assert np.allclose(blocks, np.broadcast_to(np.eye(2), (2, 2, 2)), atol=1e-12)


def test_order_lattice_embeds_only_nonzero_entries(monkeypatch, golden,
                                                   zeta20):
    # each c_i of the O_E basis has n images sigma^c(c_i) and n - 1 gamma
    # multiples gamma sigma^c(c_i), c >= 1: 2n - 1 E-elements, each
    # embedding its n center coefficients once for all the rows u^j c_i
    calls = []
    embed = NumberField.canonical_embed
    monkeypatch.setattr(NumberField, "canonical_embed",
                        lambda self, x: calls.append(x) or embed(self, x))
    for alg, expected in ((golden, 24), (zeta20, 48)):
        order = NaturalOrder(alg)
        N = order.rank // alg.n
        calls.clear()
        order_lattice(order)
        assert len(calls) == N * (2 * alg.n - 1) * alg.n == expected, alg.name


def test_order_lattice_matches_the_per_element_route(catalog, golden, zeta20,
                                                     cube2):
    # byte for byte the blocks of one multiblock embedding per z-basis
    # element, zero entries included
    algebras = [golden, zeta20, cube2] + [trivial_algebra(catalog.field(name))
                                          for name in sorted(catalog.fields)]
    for alg in algebras:
        order = NaturalOrder(alg)
        blocks = order_lattice(order).blocks
        ref = reference_order_lattice(order)
        assert blocks.dtype == ref.dtype and blocks.shape == ref.shape, alg.name
        assert blocks.tobytes() == ref.tobytes(), alg.name


@pytest.mark.parametrize("name, expected", [
    ("golden", (2, 2, 7, 0)),
    ("zeta20", (2, 0, 10, 0)),
])
def test_exact_set_up_multiplies_only_unknown_products(monkeypatch, name,
                                                      expected):
    # poly_mul calls while building the algebra (its center included), its
    # natural order, the order's lattice and the order discriminant: a zero
    # or unit operand takes no product (71 and 103 in all when every
    # product was taken)
    calls = []
    poly_mul = numfield.poly_mul
    monkeypatch.setattr(numfield, "poly_mul",
                        lambda a, b: calls.append(1) or poly_mul(a, b))
    counts = []
    alg = load_catalog().algebra(name)       # a fresh catalog builds anew
    counts.append(len(calls))
    order = NaturalOrder(alg)
    counts.append(len(calls))
    order_lattice(order)
    counts.append(len(calls))
    order.z_discriminant()
    counts.append(len(calls))
    assert tuple(b - a for a, b in zip([0] + counts, counts)) == expected


def test_pdet_matches_exact_reduced_norm(golden, golden_order):
    rng = np.random.default_rng(31)
    for _ in range(25):
        a, _ = random_order_element(golden_order, rng, -3, 4)
        val = abs(pdet(multiblock_embed(golden, a))) ** 2
        nrd = reduced_norm(golden, a)
        exact = abs(golden.center.norm(nrd))
        assert exact.denominator == 1
        assert abs(val - float(exact)) <= 1e-6 * max(1.0, float(exact))


def test_nvd_certificate_random_elements(golden, zeta20, golden_order, zeta20_order):
    rng = np.random.default_rng(37)
    for alg, order in ((golden, golden_order), (zeta20, zeta20_order)):
        for _ in range(100):
            a, _ = random_order_element(order, rng)
            val = abs(pdet(multiblock_embed(alg, a))) ** 2
            nearest = round(val)
            assert nearest >= 1
            assert abs(val - nearest) <= 1e-6 * max(1.0, val)


def test_order_closed_under_multiplication(golden, golden_order):
    rng = np.random.default_rng(41)
    basis = z_basis(golden_order)
    for _ in range(20):
        i, j = rng.integers(0, len(basis), size=2)
        prod = golden.product(basis[i], basis[j])
        coords = reference_coordinates(golden_order, prod)
        assert all(c.denominator == 1 for c in coords)


def test_order_contains_one(golden_order, zeta20_order):
    for order in (golden_order, zeta20_order):
        coords = reference_coordinates(order, algebra_one(order.algebra))
        assert all(c.denominator == 1 for c in coords)
        assert any(coords)


def test_zdisc_golden(golden_order, golden):
    d = golden_order.z_discriminant()
    assert d == GOLDEN_ZDISC
    dk = golden.center.discriminant()
    q, r = divmod(d, dk ** (golden.n ** 2))
    assert r == 0
    assert q == 625  # N_{K/Q} of the relative discriminant


def test_zdisc_zeta20(zeta20_order, zeta20):
    d = zeta20_order.z_discriminant()
    assert d == ZETA20_ZDISC
    dk = zeta20.center.discriminant()
    q, r = divmod(d, dk ** (zeta20.n ** 2))
    assert r == 0


def test_zdisc_trivial_algebra_is_field_disc(q_i):
    order = NaturalOrder(trivial_algebra(q_i))
    assert order.z_discriminant() == q_i.discriminant() == -4


def _variant(alg, name, **changes):
    """alg rebuilt under a new name with some constructor arguments
    replaced."""
    kwargs = dict(center=alg.center, n=alg.n, rel_poly=alg.rel_poly,
                  sigma_eta=alg.sigma_eta, gamma=alg.gamma, rel_basis=alg.rel_basis)
    kwargs.update(changes)
    return CyclicAlgebra(name, **kwargs)


def _ninth_roots(q_omega, gamma):
    """(Q(zeta9) / Q(omega), eta -> omega eta, gamma) with E = K[y]/(y^3 -
    omega) and the relative integral basis 1, eta, eta^2: the one catalog-
    free algebra of degree 3, whose Gram has the off-diagonal nonzero blocks
    (1, 2) and (2, 1)."""
    one, zero, omega = q_omega.one(), q_omega.zero(), q_omega.from_theta_poly([0, 1])
    return CyclicAlgebra("ninth", q_omega, 3, [-omega, zero, zero, one],
                         (zero, omega, zero), gamma,
                         [(one, zero, zero), (zero, one, zero), (zero, zero, one)])


def test_zdisc_matches_pairwise_reference(golden_order, zeta20_order):
    for order in (golden_order, zeta20_order):
        assert order.z_discriminant() == reference_z_discriminant(order)


def test_zdisc_of_every_trivial_algebra_matches_reference(catalog):
    for name in sorted(catalog.fields):
        order = NaturalOrder(trivial_algebra(catalog.field(name)))
        assert order.z_discriminant() == reference_z_discriminant(order), name


@pytest.mark.parametrize("gamma, expected", [
    ((1, 1), -7625597484987),
    ((2, 0), -31234447298506752),
    ((1, 3), -897143918511235563),
], ids=["1+omega", "2", "1+3omega"])
def test_zdisc_degree_three_matches_reference(q_omega, gamma, expected):
    order = NaturalOrder(_ninth_roots(q_omega, q_omega.element(gamma)))
    assert order.z_discriminant() == expected
    assert reference_z_discriminant(order) == expected


def test_degree_three_order_keeps_its_routes(cube2):
    order = NaturalOrder(cube2)
    assert order.z_discriminant() == -31234447298506752
    assert reference_z_discriminant(order) == order.z_discriminant()
    assert order_lattice(order).rank == order.rank == 18
    z = list(range(-9, 9))
    assert reference_coordinates(order, order.element_from_z(z)) == z


def test_zdisc_takes_one_determinant_and_one_norm(monkeypatch, q_i, golden,
                                                 zeta20, cube2):
    # the closed form d^n N(gamma)^(n(n-1)) reuses the constructor's det(C):
    # whatever n, the method takes det(T) and one norm
    calls = []
    det, norm = cyclic_algebra.bareiss_det, NumberField.norm
    monkeypatch.setattr(cyclic_algebra, "bareiss_det",
                        lambda rows: calls.append("det") or det(rows))
    monkeypatch.setattr(NumberField, "norm",
                        lambda self, x: calls.append("norm") or norm(self, x))
    for alg in (trivial_algebra(q_i), golden, zeta20, cube2):
        order = NaturalOrder(alg)     # fresh, the result being memoized
        calls.clear()
        order.z_discriminant()
        assert sorted(calls) == ["det", "norm"], alg.name


def test_degree_one_checks_sigma_eta_as_a_root(q_i):
    # n = 1 takes the general check: sigma(eta) must be the root of eta - c
    one = q_i.one()
    two, six = q_i.from_theta_poly([2]), q_i.from_theta_poly([6])
    alg = CyclicAlgebra("eta2", q_i, 1, [-two, one], (two,), one, [(one,)])
    assert NaturalOrder(alg).z_discriminant() == q_i.discriminant()
    with pytest.raises(CatalogInconsistent) as info:
        CyclicAlgebra("eta1", q_i, 1, [-one, one], (six,), one, [(one,)])
    assert str(info.value) == "eta1: sigma_eta is not a root of rel_poly"


def test_rel_basis_of_wrong_length_is_refused(golden):
    with pytest.raises(CatalogInconsistent) as info:
        _variant(golden, "gb", rel_basis=golden.rel_basis[:1])
    assert str(info.value) == "gb: rel_basis must have 2 elements"


def test_rel_basis_element_of_wrong_length_is_refused(golden):
    # cut to one coefficient each, the elements used to reach NaturalOrder
    # and end in an IndexError there
    with pytest.raises(CatalogInconsistent) as info:
        _variant(golden, "gc", rel_basis=[e[:1] for e in golden.rel_basis])
    assert str(info.value) == ("gc: each rel_basis element must have 2 "
                               "coefficients")


def test_sigma_eta_of_wrong_length_is_refused(golden):
    # a third, zero coefficient used to be accepted
    with pytest.raises(CatalogInconsistent) as info:
        _variant(golden, "gs",
                 sigma_eta=golden.sigma_eta + (golden.center.zero(),))
    assert str(info.value) == "gs: sigma_eta must have 2 coefficients"


def test_non_integer_zdisc_is_a_precision_failure(golden):
    # a basis scaled by 1/3 spans a lattice that is no order: det(C) takes
    # a factor 3^-2 from the scaled row, d = det(C)^2 det(T) a factor 3^-4,
    # and the order discriminant d^2 the 3^-8 left
    K = golden.center
    e0, e1 = golden.rel_basis
    g3 = _variant(golden, "g3",
                  rel_basis=[golden.e_scale(e0, K.from_theta_poly([Fraction(1, 3)])), e1])
    order = NaturalOrder(g3)
    with pytest.raises(PrecisionFailure) as info:
        order.z_discriminant()
    assert str(info.value) == "g3: order discriminant 160000/6561 is not an integer"


def test_element_from_z_round_trips_on_golden(golden_order):
    # z-coordinate i is the coefficient of z_basis[i]
    z = [3, -1, 0, 2, 0, 0, -5, 1]
    a = golden_order.element_from_z(z)
    assert reference_coordinates(golden_order, a) == z
    for i, b in enumerate(z_basis(golden_order)):
        unit = [int(t == i) for t in range(golden_order.rank)]
        assert golden_order.element_from_z(unit) == b


def test_element_from_numpy_z_coordinates(golden_order):
    # numpy integers scale center elements as Python ints do
    z = np.arange(golden_order.rank)
    a = golden_order.element_from_z(z)
    assert reference_coordinates(golden_order, a) == list(range(golden_order.rank))
    assert a == golden_order.element_from_z(z.tolist())


@pytest.mark.parametrize("degree", [1, 3])
def test_rel_poly_of_wrong_degree_is_refused(golden, degree):
    # E = K[eta]/(rel_poly) needs degree n: products reduce with n + 1
    # coefficients and sigma's check reads sigma(eta)^i for i < n only
    c0, c1, one = golden.rel_poly
    rel_poly = {1: (c0, one), 3: (c0, c1, golden.center.zero(), one)}[degree]
    with pytest.raises(CatalogInconsistent) as info:
        _variant(golden, "gd", rel_poly=rel_poly)
    assert str(info.value) == "gd: rel_poly must have degree n = 2"


def test_dependent_z_basis_is_refused_at_construction(golden):
    e0, _ = golden.rel_basis
    with pytest.raises(CatalogInconsistent) as info:
        NaturalOrder(_variant(golden, "gd", rel_basis=[e0, e0]))
    assert str(info.value) == "gd: z-basis is not linearly independent"


def test_volume_identity_dual_route(golden_order, zeta20_order,
                                    golden_lattice, zeta20_lattice):
    for order, lat in ((golden_order, golden_lattice),
                       (zeta20_order, zeta20_lattice)):
        alg = order.algebra
        expect = 2.0 ** (-alg.k * alg.n ** 2) * abs(order.z_discriminant()) ** 0.5
        assert abs(lat.volume - expect) <= 1e-6 * expect


def test_trivial_order_lattice_is_canonical_embedding(q_i):
    lat = order_lattice(NaturalOrder(trivial_algebra(q_i)))
    ref = field_lattice(q_i)
    assert lat.volume == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvalsh(lat.gram)),
                       np.sort(np.linalg.eigvalsh(ref.gram)), atol=1e-12)


def test_detmin_over_ball_is_one(golden_lattice, zeta20_lattice):
    for lat in (golden_lattice, zeta20_lattice):
        radius = 1.5 * np.sqrt(lat.n * lat.k)
        val, witness = min_pdet(lat, radius)
        assert val == pytest.approx(1.0, abs=1e-6)
        assert any(witness)


def test_reduced_trace_lands_in_center(golden, golden_order):
    rng = np.random.default_rng(43)
    a, _ = random_order_element(golden_order, rng)
    trd = golden.reduced_trace(a[0])
    # Trd(a) = trace of phi(a) at every embedding
    for i in range(golden.k):
        M = multiblock_embed(golden, a)[i]
        val = golden.center.canonical_embed(trd)[i]
        assert abs(np.trace(M) - val) < 1e-9


def test_unpolished_eta_root_is_a_catalog_error(monkeypatch, capsys):
    # a relative root whose Newton polishing stalls above its tolerance is
    # refused, not used: exit 2 with one line.  Golden's root converges to
    # a residual of about 1e-15, so a zero tolerance cannot be met
    monkeypatch.setattr(cyclic_algebra, "ETA_RESIDUAL_TOL", 0.0)
    assert main(["invariants", "--algebra", "golden"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert "golden: root polishing stalled at residual" in err
