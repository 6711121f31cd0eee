"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps package
functions by name.  A rename in the package would silently drop a layer
from its report, so every target must resolve."""

import importlib.util
from pathlib import Path

import multiblock.cli  # noqa: F401  (loads every module the targets name)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(target):
    owner = importlib.import_module(target.module)
    for part in target.qualname.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_trace_target_resolves_and_is_restored():
    tracer = _load_tracer()
    before = [_resolve(t) for t in tracer.TARGETS]
    t = tracer.Tracer().install()
    try:
        assert t.missing == []
    finally:
        t.restore()
    assert [_resolve(t) for t in tracer.TARGETS] == before
