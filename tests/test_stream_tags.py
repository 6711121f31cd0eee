"""Reproducibility: every random draw of the package is the pure function of
(seed, *path) through `rng.philox`'s Philox4x64-10 key.  Two rules over the
AST of `src/multiblock` guard it.  First, each stream tag, the first path
index after the seed that a `philox(seed, tag, ...)` or `_tagged(tag, ...)`
call names, is an integer literal or a module-level integer constant, and
no two modules share a tag, so no two draws read one stream.  Second,
`rng.philox` is the only place a numpy bit generator is built: no other
code names `numpy.random` or imports the standard `random` module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multiblock"

# (seed, 0x48, *s) fades and (seed, 0x57, *s) noise (channel), 0xC0 the
# codeword picks (sim), 0xCA the carve's shifts (codebook), 0xE7 the
# capacity draws (ratecalc)
TAGS = [0x48, 0x57, 0xC0, 0xCA, 0xE7]

# the tag's position among each tagging call's arguments
TAGGING = {"philox": 1, "_tagged": 0}


def _constants(tree):
    """Module-level names bound to integer literals, tuple unpacking
    included."""
    consts = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = ([(target, node.value)] if isinstance(target, ast.Name)
                     else zip(target.elts, node.value.elts)
                     if isinstance(target, ast.Tuple)
                     and isinstance(node.value, ast.Tuple) else [])
            for name, value in pairs:
                if (isinstance(name, ast.Name)
                        and isinstance(value, ast.Constant)
                        and type(value.value) is int):
                    consts[name.id] = value.value
    return consts


def _called(node):
    """The name a call's function is reached by, as a name or attribute."""
    func = node.func
    return (func.id if isinstance(func, ast.Name)
            else getattr(func, "attr", None))


def _tag_sites(trees):
    """{tag: {module}} of every tagging call, and the "path:line" of each
    call whose tag is missing or not a literal or module constant."""
    sites, bad = {}, []
    for path, tree in trees.items():
        consts = _constants(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _called(node) in TAGGING):
                continue
            at = TAGGING[_called(node)]
            arg = node.args[at] if len(node.args) > at else None
            tag = (arg.value if isinstance(arg, ast.Constant)
                   and type(arg.value) is int
                   else consts.get(arg.id) if isinstance(arg, ast.Name)
                   else None)
            if tag is None:
                bad.append(f"{path}:{node.lineno}")
            else:
                sites.setdefault(tag, set()).add(str(path))
    return sites, bad


def _generators(trees):
    """The "path:line" of each use of numpy.random, or import of it or of
    the standard `random`, outside the body of `rng.philox`."""
    bad = []
    for path, tree in trees.items():
        allowed = {id(sub) for node in tree.body if path.name == "rng.py"
                   and isinstance(node, ast.FunctionDef)
                   and node.name == "philox" for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Attribute):
                hit = (node.attr == "random"
                       and isinstance(node.value, ast.Name)
                       and node.value.id in ("np", "numpy"))
            elif isinstance(node, ast.Import):
                hit = any(alias.name.split(".")[0] == "random"
                          or alias.name.startswith("numpy.random")
                          for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                hit = (module.split(".")[0] == "random"
                       or module.startswith("numpy.random")
                       or (module == "numpy"
                           and any(a.name == "random" for a in node.names)))
            else:
                continue
            if hit:
                bad.append(f"{path}:{node.lineno}")
    return bad


def _package():
    return {p.relative_to(PACKAGE): ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.rglob("*.py"))}


def test_every_stream_tag_is_one_modules_own():
    sites, bad = _tag_sites(_package())
    assert bad == []
    assert sorted(sites) == TAGS
    shared = {hex(tag): sorted(mods) for tag, mods in sites.items()
              if len(mods) > 1}
    assert shared == {}


def test_only_rng_philox_builds_a_bit_generator():
    trees = _package()
    assert Path("rng.py") in trees
    assert _generators(trees) == []


SYNTHETIC = {
    Path("a.py"): '''
import numpy as np
from .rng import philox
_PICK, _OTHER = 0xC0, 0x11

def draw(seed, streams, tag):
    gen = philox(seed, _PICK)
    rows = _tagged(tag, streams)
    return np.random.default_rng(seed), philox(seed)
''',
    Path("b.py"): '''
import random
from numpy.random import Philox
from .rng import philox

def shifts(seed):
    return philox(seed, 0xC0, 1)
''',
}


def test_the_rules_catch_a_shared_tag_an_unnamed_one_and_a_stray_generator():
    trees = {path: ast.parse(text) for path, text in SYNTHETIC.items()}
    sites, bad = _tag_sites(trees)
    assert sites == {0xC0: {"a.py", "b.py"}}
    # a loop variable and a missing tag name no stream the rule can check
    assert bad == ["a.py:8", "a.py:9"]
    assert _generators(trees) == ["a.py:9", "b.py:2", "b.py:3"]
