"""Per-layer tracing of `multiblock` from outside the package.

`Tracer.install()` replaces each target function or method with a wrapper
that records calls, busy time, self time (busy time minus the busy time of
traced calls made inside it) and counts taken from the return value, then
`Tracer.restore()` puts every original object back.  Spans are aggregated in
memory per target as they close; nothing is written until the run ends.  A
span's counts are also handed to the enclosing traced span, so that
`count_points_in_ball` can relate the points it keeps to the enumeration
nodes spent beneath it.

The program computes in one thread and never queues or waits, so no wait
times are recorded.
"""

import functools
import importlib
import sys
import time
from dataclasses import asdict, dataclass, field

_MISSING = object()


@dataclass(frozen=True)
class Target:
    name: str                     # metric prefix, e.g. "lattice.exists_closer"
    module: str                   # module defining the object
    qualname: str                 # "func" or "Class.method"
    count: object = None          # (result, child_counts) -> {counter: value}
    rebind_in: tuple = None       # modules whose import of a function is
                                  # patched; None means every multiblock module


def _nodes_at(i):
    return lambda result, children: {"nodes": result[i]}


def _ball(result, children):
    return {"nodes": result[2], "leaves": len(result[0])}


def _count_points(result, children):
    return {"kept": result[0], "enumerated": children.get("lattice.ball.nodes", 0)}


def _ml(result, children):
    return {"codewords": result.nodes}


TARGETS = (
    Target("cli", "multiblock.cli", "main"),
    Target("catalog.load_catalog", "multiblock.catalog", "load_catalog"),
    Target("numfield.NumberField.discriminant", "multiblock.numfield",
           "NumberField.discriminant"),
    Target("cyclic_algebra.NaturalOrder", "multiblock.cyclic_algebra",
           "NaturalOrder.__init__"),
    Target("cyclic_algebra.NaturalOrder.z_discriminant", "multiblock.cyclic_algebra",
           "NaturalOrder.z_discriminant"),
    Target("cyclic_algebra.order_lattice", "multiblock.cyclic_algebra", "order_lattice"),
    Target("exact.bareiss_det", "multiblock.exact", "bareiss_det"),
    Target("sim.simulate_codebook_wer", "multiblock.sim", "simulate_codebook_wer"),
    Target("sim.simulate_infinite_wer", "multiblock.sim", "simulate_infinite_wer"),
    Target("channel.sample", "multiblock.channel", "sample"),
    Target("channel.transmit", "multiblock.channel", "transmit"),
    Target("rng.philox", "multiblock.rng", "philox",
           rebind_in=("multiblock.channel", "multiblock.sim", "multiblock.codebook")),
    Target("decoder.LatticeDecoder", "multiblock.decoder", "LatticeDecoder.__init__"),
    Target("decoder.decodes_to", "multiblock.decoder", "LatticeDecoder.decodes_to"),
    Target("decoder.ml_decode", "multiblock.decoder", "ml_decode", _ml),
    Target("lattice.PreparedCVP", "multiblock.lattice", "PreparedCVP.__init__"),
    Target("lattice.lll_reduce", "multiblock.lattice", "lll_reduce"),
    Target("lattice.exists_closer", "multiblock.lattice", "PreparedCVP.exists_closer",
           _nodes_at(1)),
    Target("lattice.ball", "multiblock.lattice", "PreparedCVP.ball", _ball),
    Target("lattice.shortest", "multiblock.lattice", "PreparedCVP.shortest",
           _nodes_at(2)),
    Target("codebook.carve", "multiblock.codebook", "carve"),
    Target("codebook.count_points_in_ball", "multiblock.codebook",
           "count_points_in_ball", _count_points),
    Target("ratecalc.ergodic_capacity_mc", "multiblock.ratecalc", "ergodic_capacity_mc"),
)


@dataclass
class SpanStats:
    calls: int = 0
    busy: float = 0.0
    self: float = 0.0
    counts: dict = field(default_factory=dict)
    maxes: dict = field(default_factory=dict)


class Tracer:
    """Wraps the targets while installed; `stats` maps target name to
    SpanStats.  Targets that do not resolve are listed in `missing`."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {t.name: SpanStats() for t in targets}
        self.missing = []
        self._stack = []          # one [child_busy, child_counts] per open span
        self._patches = []        # (owner, attribute, previous value)

    def install(self):
        try:
            for t in self.targets:
                self._install(t)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self, t):
        try:
            owner = importlib.import_module(t.module)
            *path, attr = t.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(t.name)
            return
        wrapper = self._wrap(t, original)
        self._patch(owner, attr, wrapper)
        if path:                  # a method: patching the class reaches every caller
            return
        modules = t.rebind_in or [m for m in list(sys.modules)
                                  if m == "multiblock" or m.startswith("multiblock.")]
        for name in modules:
            mod = sys.modules.get(name)
            if mod is not None and mod is not owner and \
                    mod.__dict__.get(attr, None) is original:
                self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _wrap(self, t, fn):
        stack, stats, count, name = self._stack, self.stats[t.name], t.count, t.name
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, {}]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                stats.calls += 1
                stats.busy += busy
                stats.self += busy - frame[0]
                if stack:
                    stack[-1][0] += busy
            if count is not None:
                parent = stack[-1][1] if stack else None
                for key, value in count(result, frame[1]).items():
                    stats.counts[key] = stats.counts.get(key, 0) + value
                    if value > stats.maxes.get(key, value - 1):
                        stats.maxes[key] = value
                    if parent is not None:
                        full = f"{name}.{key}"
                        parent[full] = parent.get(full, 0) + value
            return result

        return wrapper

    def report(self):
        return {name: asdict(s) for name, s in self.stats.items()}
