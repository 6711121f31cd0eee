"""Tests of the benchmark harness, not of multiblock.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (HELD_OUT_SEED, WORKLOADS, check_output,  # noqa: E402
                       command_key, load_reference)

FADING = WORKLOADS["fading_codebook"]


def _multiblock_namespaces():
    import multiblock
    import multiblock.cli  # noqa: F401
    from multiblock.cyclic_algebra import NaturalOrder
    from multiblock.decoder import LatticeDecoder
    from multiblock.lattice import PreparedCVP
    from multiblock.numfield import NumberField
    spaces = [m for name, m in sorted(sys.modules.items())
              if name == "multiblock" or name.startswith("multiblock.")]
    assert multiblock in spaces
    return spaces + [NaturalOrder, LatticeDecoder, PreparedCVP, NumberField]


def test_tracer_counts_and_restores_every_original():
    spaces = _multiblock_namespaces()
    before = [dict(vars(ns)) for ns in spaces]
    from multiblock import cli
    argv = FADING.commands(FADING.default_seed, "smoke")[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tracer.Tracer() as t, contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert t.missing == []
    lll = t.stats["lattice.lll_reduce"]
    assert lll.calls > 0 and 0 < lll.self <= lll.busy
    assert t.stats["decoder.ml_decode"].counts["codewords"] > 0
    assert t.stats["lattice.exists_closer"].maxes["nodes"] > 0
    for ns, saved in zip(spaces, before):
        now = vars(ns)
        assert not {k for k in set(now) - set(saved) if not k.startswith("__")}, ns
        for key, value in saved.items():
            assert now[key] is value, f"{ns}.{key} not restored"


def test_missing_target_is_reported_not_raised():
    bogus = tracer.Target("nowhere.nothing", "multiblock.lattice", "no_such_function")
    with tracer.Tracer((bogus,)) as t:
        pass
    assert t.missing == ["nowhere.nothing"]


def _fading_smoke():
    argv = FADING.commands(FADING.default_seed, "smoke")[0]
    return argv, load_reference()


def _edit_column(text, column, value):
    """The CSV with every value of `column` replaced by `value`."""
    out, cols = [], None
    for ln in text.splitlines():
        if not ln.startswith("#"):
            if cols is None:
                cols = ln.split(",")
            else:
                cells = ln.split(",")
                cells[cols.index(column)] = value
                ln = ",".join(cells)
        out.append(ln)
    return "\n".join(out) + "\n"


def test_wrong_reference_fails_the_check():
    argv, ref = _fading_smoke()
    text = ref[command_key(argv)]
    assert check_output(argv, text, ref, FADING.default_seed) is None
    wrong = dict(ref)
    wrong[command_key(argv)] = _edit_column(text, "word_errors", "3")
    assert check_output(argv, text, wrong, FADING.default_seed) is not None
    report = {"results": [{"argv": argv, "outputs": [[0, text, 3]]}]}
    assert run.score(FADING, [report], wrong, lambda line: None) == (3, 3)
    assert run.score(FADING, [report], ref, lambda line: None) == (3, 0)


def test_avg_nodes_is_not_checked():
    argv, ref = _fading_smoke()
    text = _edit_column(ref[command_key(argv)], "avg_nodes", "1.5")
    assert check_output(argv, text, ref, FADING.default_seed) is None


def test_unrecorded_seed_gets_the_seed_free_check():
    ref = load_reference()
    for w in WORKLOADS.values():
        for argv in w.commands(HELD_OUT_SEED, "full"):
            key = command_key(argv)
            if "--seed" not in argv:
                continue
            text = ref[key]
            without = {k: v for k, v in ref.items() if k != key}
            assert check_output(argv, text, without, w.default_seed) is None, key
    argv = FADING.commands(HELD_OUT_SEED, "full")[0]
    without = {k: v for k, v in ref.items() if k != command_key(argv)}
    wrong = _edit_column(ref[command_key(argv)], "word_errors", "250")
    assert check_output(argv, wrong, without, FADING.default_seed) is not None


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _results(stdout):
    return [json.loads(ln) for ln in stdout.splitlines() if ln.startswith("{")]


def test_smoke_runs_every_workload_on_default_and_held_out_seed():
    for seed_args in ([], ["--seed", str(HELD_OUT_SEED)]):
        proc = _bench(["--smoke"] + seed_args)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results = _results(proc.stdout)
        assert len(results) == 2 * len(WORKLOADS)
        for res in results:
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[key]}
            for res in results[trace::2]:
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                assert got == want, key


def test_worker_scales_each_command_by_the_kernel_around_it():
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "run", "catalog_lab", "1", "smoke", "0", "0"],
        cwd=ROOT, env=run._worker_env(), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    n = len(WORKLOADS["catalog_lab"].commands(1, "smoke"))
    assert len(report["walls"]) == len(report["scaled_walls"]) == 1
    assert len(report["kernels"]) == n + 1
    # the scaled seconds lie between the raw seconds scaled by the fastest
    # and by the slowest kernel timing of the repetition
    wall, scaled = report["walls"][0], report["scaled_walls"][0]
    assert calibrate.scaled(wall, max(report["kernels"])) <= scaled * (1 + 1e-12)
    assert scaled <= calibrate.scaled(wall, min(report["kernels"])) * (1 + 1e-12)


def test_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.scaled(3.0, 2 * calibrate.REFERENCE_S) == 1.5


def test_declared_workloads_exist():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(["--workload", "static_infinite", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert _results(proc.stdout) == []
