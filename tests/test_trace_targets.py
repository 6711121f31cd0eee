"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps package
functions by name.  A rename in the package would silently drop a layer
from its report, so every target must resolve; and it counts search nodes
from the return value of `PreparedCVP.exists_closer`, so a traced run's
count, with the nodes of the searches `decoder.zero_path` decides without a
walk, must match the run's own avg_nodes; and a command's carving shows as
one `carve` of --carve-trials `count_points_in_ball` searches."""

import contextlib
import csv
import importlib.util
import io
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


def test_traced_search_nodes_add_up_to_avg_nodes(monkeypatch):
    # the benchmark reads search effort from the tracer's count of the
    # nodes `exists_closer` returns; a change of its signature or of its
    # result must keep that count, with the 2 r - 1 nodes of each search
    # the zero-path descent decides, equal to the run's own avg_nodes
    tracer = _load_tracer()
    descended, descend = [], multiblock.decoder.zero_path

    def counting_descent(Y, diag, thr, budget):
        decided = descend(Y, diag, thr, budget)
        descended.append(int(decided.sum()) * (2 * Y.shape[1] - 1))
        return decided

    monkeypatch.setattr(multiblock.decoder, "zero_path", counting_descent)
    trials = 300
    argv = ["simulate", "--field", "cyclo8", "--model", "constant",
            "--snr-db", "2,6", "--rate", "1", "--trials", str(trials),
            "--seed", "11", "--infinite"]
    out = io.StringIO()
    with tracer.Tracer() as t, contextlib.redirect_stdout(out):
        assert multiblock.cli.main(argv) == 0
    assert t.missing == []
    rows = list(csv.DictReader(ln for ln in out.getvalue().splitlines()
                               if not ln.startswith("#")))
    assert len(rows) == 2
    nodes = sum(float(r["avg_nodes"]) * trials for r in rows)
    assert nodes > 0
    walked = t.stats["lattice.exists_closer"].counts["nodes"]
    assert walked > 0 and sum(descended) > 0
    assert walked + sum(descended) == round(nodes)


def test_traced_fading_codebook_searches_carve_trials_shifts():
    # the benchmark's per-layer carve metrics read one shift search per
    # command: a fading codebook run over three SNR points counts
    # --carve-trials ball searches in one carve
    tracer = _load_tracer()
    argv = ["simulate", "--algebra", "golden", "--model", "iid_rayleigh",
            "--nr", "2", "--snr-db", "8,12,16", "--rate", "1", "--decoder",
            "both", "--trials", "4", "--seed", "7", "--carve-trials", "5"]
    with tracer.Tracer() as t, contextlib.redirect_stdout(io.StringIO()):
        assert multiblock.cli.main(argv) == 0
    assert t.missing == []
    assert t.stats["codebook.carve"].calls == 1
    assert t.stats["codebook.count_points_in_ball"].calls == 5
