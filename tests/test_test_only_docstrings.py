"""One implementation per concept: package code that only tests call must
either carry load or say so.  Each public function and class of
`src/multiblock`, and each public method of a public class, is named
somewhere else in the package (outside its own body and outside the listed
defs), or it is listed in TEST_ONLY, with what keeps it in the package, and
its docstring says "Test-only" and names the paper claim it witnesses.  So
a def that only listed defs name fails: test-only code reaches it, and it
must leave with them or be listed itself.  A method is named only as an
attribute, so a variable of the same name is no use of it.  Dunders and
members of private classes are exempt; a name only re-exported by an import
is not a use, and a name that two public defs share counts every use of
it.  The list only shrinks: an entry that is gone, has lost its marker or
is named outside the listed defs fails, and so does a marker outside the
list.  Other witnesses live in `tests/witnesses.py`."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multiblock"

TRACED = "a target of the benchmark's tracer (perfbench/tracer.py)"
EXACT_NORM = "an exact division probe over the order's ball would use it"

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


def _violations(trees, test_only):
    """The keys "path: qualname" that break the rules in `trees` (path ->
    module AST) under the list `test_only`: (markers off the list, or
    entries without one; unlisted defs that carry no load; listed defs that
    do)."""
    defs = {f"{path}: {qualname}": (node, "." in qualname)
            for path, tree in trees.items()
            for qualname, node in _public_defs(tree)}
    marked = {key for key, (node, _) in defs.items()
              if "Test-only" in (ast.get_docstring(node) or "")}
    # a function or class is used by name or as a module attribute, a
    # method only as an attribute.  A def carries load once it is named
    # outside its own body and outside the listed defs; a name that two
    # public defs share tells neither's use from the other's, so a listed
    # def of a shared name is judged by its marker alone, and an unlisted
    # one needs only a use outside its own body
    kinds = {False: (ast.Name, ast.Attribute), True: (ast.Attribute,)}
    package = [sub for tree in trees.values() for sub in ast.walk(tree)]
    listed = {id(sub) for key in test_only if key in defs
              for sub in ast.walk(defs[key][0])}
    shared = Counter(node.name for node, _ in defs.values())
    skips = {True: listed, False: set()}    # keyed by "the name is unique"
    totals = {(method, unique): _named([sub for sub in package
                                        if id(sub) not in skip], k)
              for method, k in kinds.items() for unique, skip in skips.items()}

    def uses(node, method):
        """How often node's name is used outside its own body (and, if no
        other public def shares it, outside the listed defs)."""
        unique = shared[node.name] == 1
        own = [sub for sub in ast.walk(node) if id(sub) not in skips[unique]]
        return (totals[method, unique][node.name]
                - _named(own, kinds[method])[node.name])

    unused = [key for key, (node, method) in defs.items()
              if key not in test_only and not uses(node, method)]
    load_bearing = [key for key in test_only if key in defs
                    and shared[defs[key][0].name] == 1 and uses(*defs[key])]
    return sorted(marked ^ set(test_only)), unused, load_bearing


def test_every_public_def_carries_load_or_names_its_claim():
    trees = {p.relative_to(PACKAGE): ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.rglob("*.py"))}
    assert len(trees) > 10
    assert _violations(trees, TEST_ONLY) == ([], [], [])


SYNTHETIC = '''
class Order:
    def witness(self):
        """Test-only: witnesses a claim."""
        return self.helper()

    def helper(self):
        return 1

    def used(self):
        return 2


def _caller():
    return Order().used()
'''


def test_a_def_named_only_inside_listed_defs_carries_no_load():
    trees = {Path("m.py"): ast.parse(SYNTHETIC)}
    assert _violations(trees, {"m.py: Order.witness": "a claim"}) == \
        ([], ["m.py: Order.helper"], [])
    # listed with it, the helper needs a marker of its own
    assert _violations(trees, {"m.py: Order.witness": "a claim",
                               "m.py: Order.helper": "a claim"}) == \
        (["m.py: Order.helper"], [], [])
