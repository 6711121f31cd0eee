import os

import pytest

from multiblock import decoder
from multiblock.catalog import load_catalog
from multiblock.cyclic_algebra import CyclicAlgebra, NaturalOrder, order_lattice
from multiblock.errors import BudgetExceeded
from multiblock.lattice import DEFAULT_BUDGET, PreparedCVP, field_lattice

# subprocesses import the package from src/ as this process does (pytest's
# pythonpath setting), so the suite runs without an install
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def q_i(catalog):
    return catalog.field("q_i")


@pytest.fixture(scope="session")
def q_omega(catalog):
    return catalog.field("q_omega")


@pytest.fixture(scope="session")
def cyclo5(catalog):
    return catalog.field("cyclo5")


@pytest.fixture(scope="session")
def cube2(q_omega):
    """(Q(omega, 2^(1/3)) / Q(omega), eta -> omega eta, gamma = omega) with
    E = K[y]/(y^3 - 2) and the relative basis 1, eta, eta^2: a degree-3
    algebra, whose order lattice has rank 18."""
    one, zero = q_omega.one(), q_omega.zero()
    omega, two = q_omega.from_theta_poly([0, 1]), q_omega.from_theta_poly([2])
    return CyclicAlgebra("cube2", q_omega, 3, [-two, zero, zero, one],
                         (zero, omega, zero), omega,
                         [(one, zero, zero), (zero, one, zero), (zero, zero, one)])


@pytest.fixture(scope="session")
def golden(catalog):
    return catalog.algebra("golden")


@pytest.fixture(scope="session")
def zeta20(catalog):
    return catalog.algebra("zeta20")


@pytest.fixture(scope="session")
def golden_order(golden):
    return NaturalOrder(golden)


@pytest.fixture(scope="session")
def zeta20_order(zeta20):
    return NaturalOrder(zeta20)


@pytest.fixture(scope="session")
def golden_lattice(golden_order):
    return order_lattice(golden_order)


@pytest.fixture(scope="session")
def zeta20_lattice(zeta20_order):
    return order_lattice(zeta20_order)


@pytest.fixture(scope="session")
def qi_lattice(q_i):
    return field_lattice(q_i)


@pytest.fixture(scope="session")
def hex_lattice(q_omega):
    return field_lattice(q_omega)


@pytest.fixture
def search_log(monkeypatch):
    """The log of every lattice search `decoder.lattice_decisions` makes:
    one entry [bits of the target's span coordinates, outcome] per target,
    in the order the routine reads them, the outcome (found, nodes) or
    "budget exceeded".  A target is recorded once, by the `zero_path`
    descent that decides it, at (False, 2 r - 1), or by the
    `exists_closer` walk of a target the descent leaves."""
    log, walks = [], []
    descend, search = decoder.zero_path, PreparedCVP.exists_closer

    def recording_descent(Y, diag, thr, budget):
        decided = descend(Y, diag, thr, budget)
        for y, done in zip(Y, decided):
            log.append([y.tobytes()])
            if done:
                log[-1].append((False, 2 * Y.shape[1] - 1))
            else:
                walks.append(log[-1])
        return decided

    def recording_walk(self, y, thr, budget=DEFAULT_BUDGET):
        # the walks come in the descent's order, one per target it left
        entry = walks.pop(0)
        assert entry[0] == y.tobytes()
        try:
            found, nodes = search(self, y, thr, budget)
        except BudgetExceeded:
            entry.append("budget exceeded")
            raise
        entry.append((found, nodes))
        return found, nodes

    monkeypatch.setattr(decoder, "zero_path", recording_descent)
    monkeypatch.setattr(PreparedCVP, "exists_closer", recording_walk)
    return log
