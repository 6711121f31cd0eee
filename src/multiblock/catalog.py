"""Line-oriented `key = value` catalogs of number fields and cyclic algebras.

Entries are blank-line separated; `#` starts a comment.  The shipped catalog
lives in the package `catalog/` directory; set MULTIBLOCK_CATALOG to point at
an alternative directory with the same file names.
"""

import os
from fractions import Fraction
from importlib import resources

from .cyclic_algebra import CyclicAlgebra
from .errors import CatalogError
from .numfield import NumberField

ENV_VAR = "MULTIBLOCK_CATALOG"
FIELDS_FILE = "fields.txt"
ALGEBRAS_FILE = "algebras.txt"


def _split_entries(text):
    entries = []
    current = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current:
                entries.append(current)
                current = {}
            continue
        if "=" not in line:
            raise CatalogError(f"bad catalog line: {raw!r}")
        key, value = line.split("=", 1)
        current[key.strip()] = value.strip()
    if current:
        entries.append(current)
    return entries


def _fractions(text, sep=None):
    parts = text.split(sep) if sep else text.split()
    return [Fraction(p.strip()) for p in parts if p.strip()]


def parse_field_entry(entry):
    try:
        name = entry["name"]
        min_poly = [int(c) for c in entry["min_poly"].split()]
        basis = [_fractions(b) for b in entry["basis"].split(";")]
    except KeyError as exc:
        raise CatalogError(f"field entry missing key {exc}") from exc
    degree = int(entry.get("degree", len(min_poly) - 1))
    if degree != len(min_poly) - 1:
        raise CatalogError(f"{name}: degree does not match min_poly")
    disc = int(entry["disc"]) if "disc" in entry else None
    suboptimal = entry.get("suboptimal", "false").lower() == "true"
    field = NumberField(name, min_poly, basis, disc_expected=disc, suboptimal=suboptimal)
    return field


def parse_algebra_entry(entry, fields):
    try:
        name = entry["name"]
        center = fields[entry["center"]]
        n = int(entry["n"])
    except KeyError as exc:
        raise CatalogError(f"algebra entry missing key {exc}") from exc

    def k_elem(text):
        coords = _fractions(text, sep=",")
        if len(coords) != center.degree:
            raise CatalogError(f"{name}: K-element needs {center.degree} coordinates")
        return center.element(coords)

    def e_elem(text):
        parts = [p for p in text.split("|")]
        coeffs = [k_elem(p) for p in parts]
        if len(coeffs) > n:
            raise CatalogError(f"{name}: E-element has more than {n} coefficients")
        coeffs += [center.zero()] * (n - len(coeffs))
        return tuple(coeffs)

    rel_poly = [k_elem(p) for p in entry["rel_poly"].split(";")]
    if len(rel_poly) != n + 1:
        raise CatalogError(f"{name}: rel_poly must have degree n = {n}")
    sigma_eta = e_elem(entry["sigma_eta"].replace(";", "|"))
    gamma = k_elem(entry["gamma"])
    rel_basis = [e_elem(p) for p in entry["rel_basis"].split(";")]
    if len(rel_basis) != n:
        raise CatalogError(f"{name}: rel_basis must have {n} elements")
    division = entry.get("division", "false").lower() == "true"
    return CyclicAlgebra(name, center, n, rel_poly, sigma_eta, gamma,
                         rel_basis, division_asserted=division)


class Catalog:
    """All fields and algebras from one catalog directory."""

    def __init__(self, fields, algebras):
        self.fields = fields
        self.algebras = algebras

    def field(self, name):
        if name not in self.fields:
            raise CatalogError(f"unknown field {name!r}")
        return self.fields[name]

    def algebra(self, name):
        if name not in self.algebras:
            raise CatalogError(f"unknown algebra {name!r}")
        return self.algebras[name]


def _read_text(directory, filename):
    if directory is not None:
        path = os.path.join(directory, filename)
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    return resources.files("multiblock").joinpath("catalog", filename).read_text("utf-8")


def load_catalog(directory=None):
    """Load the catalog from `directory`, from $MULTIBLOCK_CATALOG, or from
    the shipped package data, in that order of preference."""
    if directory is None:
        directory = os.environ.get(ENV_VAR) or None
    fields = {}
    for entry in _split_entries(_read_text(directory, FIELDS_FILE)):
        field = parse_field_entry(entry)
        fields[field.name] = field
    algebras = {}
    for entry in _split_entries(_read_text(directory, ALGEBRAS_FILE)):
        alg = parse_algebra_entry(entry, fields)
        algebras[alg.name] = alg
    return Catalog(fields, algebras)
