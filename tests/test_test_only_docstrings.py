"""One implementation per concept: package code that only tests call must
either carry load or say so.  Each public function of `src/multiblock`,
and each public method of a public class, is named somewhere else in the
package (outside its own body), or its docstring says "Test-only" and names
the paper claim it witnesses.  A method is named only as an attribute, so a
variable of the same name is no use of it.  Dunders and members of private
classes are exempt; a name only re-exported by an import is not a use."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multiblock"


def _named(node, kinds):
    """How often each identifier is named in node by one of `kinds`: as a
    variable (ast.Name) or as an attribute (ast.Attribute)."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, kinds))


def _public_defs(tree):
    """(qualified name, def) of each public module-level function and each
    public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def test_every_public_def_carries_load_or_names_its_claim():
    trees = {p.relative_to(PACKAGE): ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.rglob("*.py"))}
    assert len(trees) > 10
    # a function is used by name or as a module attribute, a method only
    # as an attribute
    kinds = {False: (ast.Name, ast.Attribute), True: (ast.Attribute,)}
    named = {method: sum((_named(tree, k) for tree in trees.values()), Counter())
             for method, k in kinds.items()}
    unmarked = []
    for path, tree in trees.items():
        for qualname, node in _public_defs(tree):
            method = "." in qualname
            if (named[method][node.name] == _named(node, kinds[method])[node.name]
                    and "Test-only" not in (ast.get_docstring(node) or "")):
                unmarked.append(f"{path}: {qualname}")
    assert unmarked == []
