import os

import pytest

from multiblock.catalog import load_catalog
from multiblock.cyclic_algebra import NaturalOrder, order_lattice
from multiblock.lattice import field_lattice

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
