"""One implementation per concept: package code that only tests call must
either carry load or say so.  Each public function and class of
`src/multiblock`, and each public method of a public class, is named
somewhere else in the package (outside its own body), or it is listed in
TEST_ONLY, with what keeps it in the package, and its docstring says
"Test-only" and names the paper claim it witnesses.  A method is named only
as an attribute, so a variable of the same name is no use of it.  Dunders
and members of private classes are exempt; a name only re-exported by an
import is not a use.  The list only shrinks: an entry that is gone, has
lost its marker or is named outside the listed defs fails, and so does a
marker outside the list.  Other witnesses live in `tests/witnesses.py`."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multiblock"

TRACED = "a target of the benchmark's tracer (perfbench/tracer.py)"
EXACT_NORM = "an exact division probe over the order's ball would use it"
PRIVATE = "reads private members, so it cannot move to the tests"

TEST_ONLY = {
    "channel.py: sample": TRACED,
    "channel.py: transmit": TRACED,
    "decoder.py: LatticeDecoder": TRACED,
    "decoder.py: LatticeDecoder.decode": "a method of the traced decoder",
    "decoder.py: LatticeDecoder.decodes_to": TRACED,
    "lattice.py: PreparedCVP.closest": "LatticeDecoder.decode builds on it",
    "cyclic_algebra.py: CyclicAlgebra.mul": EXACT_NORM,
    "cyclic_algebra.py: CyclicAlgebra.reduced_norm": EXACT_NORM,
    "cyclic_algebra.py: NaturalOrder.element_from_z": EXACT_NORM,
    "cyclic_algebra.py: CyclicAlgebra.one": PRIVATE,
    "cyclic_algebra.py: CyclicAlgebra.u": PRIVATE,
    "cyclic_algebra.py: NaturalOrder.contains": PRIVATE,
}


def _named(nodes, kinds):
    """How often each identifier is named among `nodes` by one of `kinds`:
    as a variable (ast.Name) or as an attribute (ast.Attribute)."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in nodes if isinstance(sub, kinds))


def _public_defs(tree):
    """(qualified name, def) of each public module-level function and class
    and each public method of a public class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def test_every_public_def_carries_load_or_names_its_claim():
    trees = {p.relative_to(PACKAGE): ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.rglob("*.py"))}
    assert len(trees) > 10
    defs = {f"{path}: {qualname}": (node, "." in qualname)
            for path, tree in trees.items()
            for qualname, node in _public_defs(tree)}
    marked = {key for key, (node, _) in defs.items()
              if "Test-only" in (ast.get_docstring(node) or "")}
    assert sorted(marked ^ set(TEST_ONLY)) == []
    # a function or class is used by name or as a module attribute, a
    # method only as an attribute
    kinds = {False: (ast.Name, ast.Attribute), True: (ast.Attribute,)}
    package = [sub for tree in trees.values() for sub in ast.walk(tree)]
    everywhere = {method: _named(package, k) for method, k in kinds.items()}
    unmarked = [key for key, (node, method) in defs.items()
                if key not in TEST_ONLY and everywhere[method][node.name]
                == _named(ast.walk(node), kinds[method])[node.name]]
    assert unmarked == []
    # a listed def is load-bearing once named outside the listed defs; a
    # name that two public defs share tells neither's use from the other's,
    # so such an entry is judged by its marker alone
    listed = {id(sub) for key in TEST_ONLY for sub in ast.walk(defs[key][0])}
    outside = [sub for sub in package if id(sub) not in listed]
    shared = Counter(node.name for node, _ in defs.values())
    load_bearing = [key for key in TEST_ONLY
                    if shared[defs[key][0].name] == 1
                    and _named(outside, kinds[defs[key][1]])[defs[key][0].name]]
    assert load_bearing == []
