"""Line-oriented `key = value` catalogs of number fields and cyclic algebras.

Entries are blank-line separated; `#` starts a comment.  The shipped catalog
lives in the package `catalog/` directory; set MULTIBLOCK_CATALOG to point at
an alternative directory with the same file names.

Loading checks the text of every entry (its keys, tokens and counts), that
names are unique within each file, and that every algebra's center names a
field.  The numeric proofs (a field's irreducible, totally complex minimal
polynomial and independent basis; an algebra's monic relative polynomial,
automorphism and embeddings) run when a command first uses an entry, through
`Catalog.field` / `Catalog.algebra`; an algebra builds only its own center.
`Catalog.fields` and `Catalog.algebras` build every entry, as
`invariants --all` and `catalog-verify` do.  Each `load_catalog()` call
builds afresh; nothing is shared between two loads.
"""

import os
from fractions import Fraction
from importlib import resources

from .cyclic_algebra import CyclicAlgebra
from .errors import CatalogError, CatalogInconsistent
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


def _number(where, key, token, rational=False):
    """A token as an int or, if `rational`, as an int or a Fraction; a
    CatalogError naming the entry `where` and the key if it is neither."""
    for kind in (int, Fraction) if rational else (int,):
        try:
            return kind(token)
        except (ValueError, ZeroDivisionError):
            pass
    kind = "a rational" if rational else "an integer"
    raise CatalogError(f"{where}: {key}: {token!r} is not {kind}")


def _rationals(where, key, text, sep=None):
    parts = text.split(sep) if sep else text.split()
    return [_number(where, key, p.strip(), rational=True)
            for p in parts if p.strip()]


def _check_doubles(where, args, keys):
    """Refuse, as CatalogInconsistent naming the entry `where` and the key,
    a coefficient under `keys` in the entry's arguments `args` (nested lists)
    whose double, in which the embeddings evaluate it, is not finite."""
    def floats(value):
        return ([f for v in value for f in floats(v)]
                if isinstance(value, list) else [float(value)])

    for key in keys:
        try:
            floats(args[key])
        except OverflowError:
            raise CatalogInconsistent(f"{where}: {key}: a coefficient is "
                                      f"too large for a double") from None


def parse_field_entry(entry):
    """A field entry's text, checked: the keyword arguments of its
    NumberField."""
    try:
        name, min_poly, basis = (entry[key]
                                 for key in ("name", "min_poly", "basis"))
    except KeyError as exc:
        raise CatalogError(f"field entry missing key {exc}") from exc
    where = f"field {name!r}"
    min_poly = [_number(where, "min_poly", c) for c in min_poly.split()]
    basis = [_rationals(where, "basis", b) for b in basis.split(";")]
    if "degree" in entry and (_number(where, "degree", entry["degree"])
                              != len(min_poly) - 1):
        raise CatalogError(f"{name}: degree does not match min_poly")
    disc = _number(where, "disc", entry["disc"]) if "disc" in entry else None
    suboptimal = entry.get("suboptimal", "false").lower() == "true"
    return dict(name=name, min_poly=min_poly, basis=basis,
                disc_expected=disc, suboptimal=suboptimal)


def parse_algebra_entry(entry, fields):
    """An algebra entry's text, checked against the field entries `fields`
    (name -> parse_field_entry result): the name of its center and the
    keyword arguments of its CyclicAlgebra, with every center element given
    by its rational coordinates."""
    try:
        name, center, n, rel_poly, sigma_eta, gamma, rel_basis = (
            entry[key] for key in ("name", "center", "n", "rel_poly",
                                   "sigma_eta", "gamma", "rel_basis"))
    except KeyError as exc:
        raise CatalogError(f"algebra entry missing key {exc}") from exc
    where = f"algebra {name!r}"
    n = _number(where, "n", n)
    if center not in fields:
        raise CatalogError(f"{name}: unknown center field {center!r}")
    degree = len(fields[center]["min_poly"]) - 1

    def k_elem(key, text):
        coords = _rationals(where, key, text, sep=",")
        if len(coords) != degree:
            raise CatalogError(f"{name}: K-element needs {degree} coordinates")
        return coords

    def e_elem(key, text):
        coeffs = [k_elem(key, p) for p in text.split("|")]
        if len(coeffs) > n:
            raise CatalogError(f"{name}: E-element has more than {n} coefficients")
        return coeffs + [[0] * degree] * (n - len(coeffs))

    rel_poly = [k_elem("rel_poly", p) for p in rel_poly.split(";")]
    if len(rel_poly) != n + 1:
        raise CatalogError(f"{name}: rel_poly must have degree n = {n}")
    rel_basis = [e_elem("rel_basis", p) for p in rel_basis.split(";")]
    if len(rel_basis) != n:
        raise CatalogError(f"{name}: rel_basis must have {n} elements")
    division = entry.get("division", "false").lower() == "true"
    return center, dict(name=name, n=n, rel_poly=rel_poly,
                        sigma_eta=e_elem("sigma_eta", sigma_eta.replace(";", "|")),
                        gamma=k_elem("gamma", gamma), rel_basis=rel_basis,
                        division_asserted=division)


def _build_algebra(args, center):
    """The CyclicAlgebra of parse_algebra_entry's arguments over `center`."""
    k = center.element
    return CyclicAlgebra(
        args["name"], center, args["n"], [k(c) for c in args["rel_poly"]],
        tuple(k(c) for c in args["sigma_eta"]), k(args["gamma"]),
        [tuple(k(c) for c in e) for e in args["rel_basis"]],
        division_asserted=args["division_asserted"])


def _add(entries, kind, name, value):
    if name in entries:
        raise CatalogError(f"duplicate {kind} name {name!r}")
    entries[name] = value


class Catalog:
    """The fields and algebras of one catalog directory, each built and
    proven on its first use."""

    def __init__(self, field_entries, algebra_entries):
        self._field_entries = field_entries        # name -> NumberField kwargs
        self._algebra_entries = algebra_entries    # name -> (center, kwargs)
        self._fields = {}
        self._algebras = {}

    def field(self, name):
        if name not in self._field_entries:
            raise CatalogError(f"unknown field {name!r}")
        if name not in self._fields:
            args = self._field_entries[name]
            _check_doubles(f"field {name!r}", args, ("min_poly", "basis"))
            self._fields[name] = NumberField(**args)
        return self._fields[name]

    def algebra(self, name):
        if name not in self._algebra_entries:
            raise CatalogError(f"unknown algebra {name!r}")
        if name not in self._algebras:
            center, args = self._algebra_entries[name]
            field = self.field(center)
            _check_doubles(f"algebra {name!r}", args,
                           ("rel_poly", "sigma_eta", "gamma", "rel_basis"))
            self._algebras[name] = _build_algebra(args, field)
        return self._algebras[name]

    @property
    def fields(self):
        """Every field, by name (builds each one)."""
        return {name: self.field(name) for name in self._field_entries}

    @property
    def algebras(self):
        """Every algebra, by name (builds each one and its center)."""
        return {name: self.algebra(name) for name in self._algebra_entries}


def _read_text(directory, filename):
    if directory:
        path = os.path.join(directory, filename)
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    return resources.files("multiblock").joinpath("catalog", filename).read_text("utf-8")


def load_catalog():
    """Load the catalog from the directory $MULTIBLOCK_CATALOG names, or,
    when it is unset or empty, from the shipped package data.  Checks every
    entry's text; builds no field or algebra."""
    directory = os.environ.get(ENV_VAR)
    fields = {}
    for entry in _split_entries(_read_text(directory, FIELDS_FILE)):
        args = parse_field_entry(entry)
        _add(fields, "field", args["name"], args)
    algebras = {}
    for entry in _split_entries(_read_text(directory, ALGEBRAS_FILE)):
        center, args = parse_algebra_entry(entry, fields)
        _add(algebras, "algebra", args["name"], (center, args))
    return Catalog(fields, algebras)
