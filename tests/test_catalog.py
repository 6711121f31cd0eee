"""The catalog checks every entry's text when it loads and builds a field or
algebra only when a command first uses it."""

import collections
import contextlib
import io
from importlib import resources

import pytest

from multiblock.catalog import load_catalog
from multiblock.cli import main
from multiblock.cyclic_algebra import CyclicAlgebra
from multiblock.numfield import NumberField

FIELD_NAMES = ("cyclo15", "cyclo16", "cyclo32", "cyclo5", "cyclo8", "q_i",
               "q_omega", "quartic117", "sextic9747")


@pytest.fixture
def built(monkeypatch):
    """(kind, name) of every NumberField and CyclicAlgebra constructed, in
    order."""
    log = []
    for cls in (NumberField, CyclicAlgebra):
        init = cls.__init__

        def counting(self, name, *args, _init=init, **kwargs):
            log.append((type(self).__name__, name))
            _init(self, name, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return log


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("argv, expected", [
    (["simulate", "--field", "cyclo32", "--model", "constant", "--snr-db", "20",
      "--rate", "3.74", "--trials", "40", "--seed", "1729", "--decoder",
      "lattice", "--infinite"],
     [("NumberField", "cyclo32")]),
    (["simulate", "--algebra", "golden", "--model", "iid_rayleigh", "--nr", "2",
      "--snr-db", "12", "--rate", "1", "--trials", "10", "--seed", "7"],
     [("NumberField", "q_i"), ("CyclicAlgebra", "golden")]),
    (["invariants", "--field", "q_omega"], [("NumberField", "q_omega")]),
    (["carve", "--algebra", "zeta20", "--snr-db", "18", "--rate", "0.5",
      "--trials", "4", "--seed", "1"],
     [("NumberField", "cyclo5"), ("CyclicAlgebra", "zeta20")]),
], ids=["simulate_cyclo32", "simulate_golden", "invariants_q_omega",
        "carve_zeta20"])
def test_a_command_builds_only_the_entries_it_uses(built, argv, expected):
    assert _run(argv) == 0
    assert built == expected


@pytest.mark.parametrize("argv", [["invariants", "--all"],
                                  ["catalog-verify", "--budget", "2000000"]])
def test_whole_catalog_commands_build_every_entry_once(built, argv):
    assert _run(argv) == 0
    counts = collections.Counter(built)
    assert sorted(name for kind, name in counts if kind == "NumberField") == \
        sorted(FIELD_NAMES)
    assert sorted(name for kind, name in counts if kind == "CyclicAlgebra") == \
        ["golden", "zeta20"]
    assert set(counts.values()) == {1}


def test_catalog_verify_makes_no_algebra_product(monkeypatch):
    # the order discriminant comes in closed form from determinants and a
    # norm, not from products of z-basis elements
    calls = []
    product = CyclicAlgebra.product

    def counting(self, a, b):
        calls.append(self.name)
        return product(self, a, b)

    monkeypatch.setattr(CyclicAlgebra, "product", counting)
    assert _run(["catalog-verify", "--budget", "2000000"]) == 0
    assert calls == []


def test_loads_share_no_object(built):
    a, b = load_catalog(), load_catalog()
    assert built == []                      # loading builds nothing
    for name in FIELD_NAMES:
        assert a.field(name) is a.field(name)
        assert a.field(name) is not b.field(name)
    for name in ("golden", "zeta20"):
        alg = a.algebra(name)
        assert alg is a.algebra(name) and alg is not b.algebra(name)
        assert alg.center is a.field(alg.center.name)
    assert len(built) == 2 * (len(FIELD_NAMES) + 2)


def _catalog_dir(tmp_path, monkeypatch, fields_extra="", algebras_extra="",
                 edit=None):
    """A copy of the shipped catalog under tmp_path, with text appended to
    each file and, optionally, `edit` applied to the algebras file; selected
    through MULTIBLOCK_CATALOG."""
    for name, extra in (("fields.txt", fields_extra),
                        ("algebras.txt", algebras_extra)):
        text = resources.files("multiblock").joinpath("catalog", name).read_text("utf-8")
        if edit and name == "algebras.txt":
            text = edit(text)
        (tmp_path / name).write_text(text + extra)
    monkeypatch.setenv("MULTIBLOCK_CATALOG", str(tmp_path))


def _fails_with(capsys, argv, message):
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


DUPLICATE_Q_I = """
# a second q_i carrying q_omega's polynomial
name = q_i
min_poly = 1 1 1
basis = 1 ; 0 1
disc = -3
"""

DUPLICATE_GOLDEN = """
name = golden
center = q_i
n = 1
rel_poly = -1,0 ; 1,0
sigma_eta = 1,0
gamma = 1,0
rel_basis = 1,0
"""


def test_duplicate_names_are_refused_at_load(tmp_path, monkeypatch, capsys):
    _catalog_dir(tmp_path, monkeypatch, fields_extra=DUPLICATE_Q_I)
    _fails_with(capsys, ["invariants", "--field", "q_i"],
                "duplicate field name 'q_i'")
    _fails_with(capsys, ["invariants", "--field", "q_omega"],
                "duplicate field name 'q_i'")
    _catalog_dir(tmp_path, monkeypatch, algebras_extra=DUPLICATE_GOLDEN)
    _fails_with(capsys, ["invariants", "--field", "q_i"],
                "duplicate algebra name 'golden'")


def test_unknown_center_is_named_at_load(tmp_path, monkeypatch, capsys):
    _catalog_dir(tmp_path, monkeypatch,
                 edit=lambda text: text.replace("center = q_i", "center = q_nope"))
    _fails_with(capsys, ["invariants", "--field", "q_i"],
                "golden: unknown center field 'q_nope'")


def test_missing_algebra_key_is_a_catalog_error(tmp_path, monkeypatch, capsys):
    _catalog_dir(tmp_path, monkeypatch,
                 edit=lambda text: text.replace("gamma = 0,1\n", ""))
    _fails_with(capsys, ["invariants", "--field", "q_i"],
                "algebra entry missing key 'gamma'")


def test_an_entry_is_proven_before_its_first_use(tmp_path, monkeypatch, capsys):
    # x^4 - 1 has the root 1: the text is well formed, the proof fails
    _catalog_dir(tmp_path, monkeypatch, fields_extra="\nname = bad\n"
                 "min_poly = -1 0 0 0 1\nbasis = 1 ; 0 1 ; 0 0 1 ; 0 0 0 1\n")
    assert _run(["invariants", "--field", "q_i"]) == 0
    for argv in (["invariants", "--field", "bad"], ["invariants", "--all"],
                 ["catalog-verify"]):
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: bad: min_poly has")
        assert err.count("\n") == 1


BIG = str(10 ** 400)


@pytest.mark.parametrize("fields_extra, algebras_extra, commands, message", [
    (f"\nname = bad\nmin_poly = {BIG} 0 1\nbasis = 1 ; 0 1\n", "",
     [["invariants", "--field", "bad"]],
     "field 'bad': min_poly: a coefficient is too large for a double"),
    (f"\nname = bad\nmin_poly = 1 0 1\nbasis = 1 ; {BIG} 1\n", "",
     [["invariants", "--field", "bad"]],
     "field 'bad': basis: a coefficient is too large for a double"),
    ("", f"\nname = huge\ncenter = q_i\nn = 1\nrel_poly = -1,0 ; 1,0\n"
         f"sigma_eta = 1,0\ngamma = {BIG},1\nrel_basis = 1,0\n",
     [["invariants", "--algebra", "huge"], ["catalog-verify"]],
     "algebra 'huge': gamma: a coefficient is too large for a double"),
], ids=["min_poly", "basis", "gamma"])
def test_a_coefficient_too_large_for_a_double_exits_2(
        tmp_path, monkeypatch, capsys, fields_extra, algebras_extra, commands,
        message):
    # np.roots, the float basis and the canonical embedding each used to
    # end such an entry in an OverflowError traceback
    _catalog_dir(tmp_path, monkeypatch, fields_extra, algebras_extra)
    assert _run(["invariants", "--field", "q_i"]) == 0    # built on use
    for argv in commands:
        _fails_with(capsys, argv, message)


def test_a_malformed_field_token_names_its_entry_and_key(tmp_path,
                                                         monkeypatch, capsys):
    _catalog_dir(tmp_path, monkeypatch,
                 fields_extra="\nname = tok\nmin_poly = 1 x 1\nbasis = 1 ; 0 1\n")
    _fails_with(capsys, ["invariants", "--field", "q_i"],
                "field 'tok': min_poly: 'x' is not an integer")
    _catalog_dir(tmp_path, monkeypatch,
                 fields_extra="\nname = tok\nmin_poly = 1 0 1\nbasis = 1 ; 1/0 1\n")
    _fails_with(capsys, ["invariants", "--field", "q_i"],
                "field 'tok': basis: '1/0' is not a rational")


@pytest.mark.parametrize("key,value", [("division", "ture"),
                                       ("division", "yes"),
                                       ("suboptimal", "1")])
def test_a_flag_other_than_true_or_false_names_its_entry_and_key(
        tmp_path, monkeypatch, capsys, key, value):
    # a misspelt flag used to read as false: golden lost its det_min, and
    # `invariants` printed an enumerated bound with exit 0
    if key == "division":
        edit = lambda text: text.replace("division = true\n",
                                         f"division = {value}\n", 1)
        _catalog_dir(tmp_path, monkeypatch, edit=edit)
        where, argv = "algebra 'golden'", ["invariants", "--algebra", "golden"]
    else:
        _catalog_dir(tmp_path, monkeypatch, fields_extra=(
            f"\nname = flagged\nmin_poly = 1 0 1\nbasis = 1 ; 0 1\n"
            f"suboptimal = {value}\n"))
        where, argv = "field 'flagged'", ["invariants", "--field", "q_i"]
    _fails_with(capsys, argv, f"{where}: {key}: {value!r} is not true or false")


def test_flags_read_true_or_false_in_any_case(tmp_path, monkeypatch):
    for value, asserted in [("TRUE", True), ("False", False)]:
        _catalog_dir(tmp_path, monkeypatch, edit=lambda text: text.replace(
            "division = true\n", f"division = {value}\n", 1))
        assert load_catalog().algebra("golden").division_asserted is asserted


def test_a_malformed_algebra_token_names_its_entry_and_key(tmp_path,
                                                           monkeypatch, capsys):
    _catalog_dir(tmp_path, monkeypatch,
                 edit=lambda text: text.replace("gamma = 0,1\n", "gamma = 0,i\n"))
    _fails_with(capsys, ["invariants", "--field", "q_i"],
                "algebra 'golden': gamma: 'i' is not a rational")
    _catalog_dir(tmp_path, monkeypatch,
                 edit=lambda text: text.replace("n = 2\n", "n = two\n", 1))
    _fails_with(capsys, ["invariants", "--field", "q_i"],
                "algebra 'golden': n: 'two' is not an integer")
