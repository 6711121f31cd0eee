"""The package imports only what a command runs.  `import multiblock` loads
no submodule: each exported name imports its home module on first access.
A field's set-up (load the catalog, build a field lattice) loads the
catalog, the exact and field arithmetic and the lattice layer; an algebra's
adds only the algebra layer.  The command line still loads every module
the benchmark's tracer (perfbench/tracer.py) wraps, so that installing the
tracer imports nothing.  Each case runs in a fresh interpreter, the
package taken from src/ (see conftest.py)."""

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

FIELD_SETUP = """
    import multiblock
    from multiblock.lattice import field_lattice
    cat = multiblock.load_catalog()
    field_lattice(cat.field("cyclo32"))
"""
ALGEBRA_SETUP = """
    import multiblock
    cat = multiblock.load_catalog()
    multiblock.order_lattice(multiblock.NaturalOrder(cat.algebra("golden")))
"""
FIELD_MODULES = {"multiblock", "multiblock.catalog", "multiblock.errors",
                 "multiblock.exact", "multiblock.numfield",
                 "multiblock.lattice"}


def _run(script):
    """The last line of what `script` prints, read as JSON, run in a fresh
    interpreter."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(script):
    """The package modules loaded once `script` has run."""
    return set(_run(textwrap.dedent(script) + textwrap.dedent("""
        import json, sys
        print(json.dumps([m for m in sys.modules
                          if m == "multiblock" or m.startswith("multiblock.")]))
    """)))


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import multiblock") == {"multiblock"}


def test_a_field_setup_loads_no_algebra_channel_or_decoder():
    assert _loaded(FIELD_SETUP) == FIELD_MODULES


def test_an_algebra_setup_adds_only_the_algebra_layer():
    assert _loaded(ALGEBRA_SETUP) == FIELD_MODULES | {
        "multiblock.cyclic_algebra"}


def test_the_cli_loads_every_module_the_tracer_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targeted = {t.module for t in tracer.TARGETS}
    targeted |= {m for t in tracer.TARGETS for m in t.rebind_in or ()}
    assert targeted <= _loaded("import multiblock.cli")


def test_every_exported_name_resolves_and_no_other():
    seen = _run("""
        import json, multiblock
        names = multiblock.__all__
        space = {}
        exec("from multiblock import *", space)
        try:
            multiblock.no_such_name
            unknown = None
        except AttributeError as exc:
            unknown = str(exc)
        print(json.dumps({
            "all": names,
            "resolved": [n for n in names
                         if callable(getattr(multiblock, n, None))],
            "starred": [n for n in names
                        if space.get(n) is getattr(multiblock, n)],
            "dir": [n for n in names if n in dir(multiblock)],
            "unknown": unknown}))
    """)
    assert len(seen["all"]) == 29
    assert seen["resolved"] == seen["starred"] == seen["dir"] == seen["all"]
    assert seen["unknown"] == \
        "module 'multiblock' has no attribute 'no_such_name'"
