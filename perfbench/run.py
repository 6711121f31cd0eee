"""Benchmark of the multiblock laboratory: Monte Carlo WER throughput, the
time to rebuild invariant and rate tables, and where that time goes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Run from the root of a checkout.  Every workload runs in fresh worker
processes with BLAS/OpenMP pinned to one thread, importing the package from
the checkout's `src/`.  The worker repeats the workload's commands for S
seconds (at least three times), drawing new seeds for each repetition, and
each command's CSV is checked against `reference.json`; see `workloads.py`.

--trace 0 reports the end-to-end metrics from an untraced worker:
  wall_s        median seconds of one repetition of the workload's commands,
                at the reference speed of `calibrate.py`: the worker times a
                fixed kernel that uses no multiblock code before and after
                every command and scales the command's seconds by the
                kernel's reference seconds over its measured ones, because a
                shared host's speed swings by up to 2x within seconds
  trials_per_s  Monte Carlo trials of one repetition / wall_s
  setup_s       median, over fresh interpreters, of importing multiblock,
                loading the catalog and building the workload's lattice, at
                the reference speed in the same way
  peak_rss_mb   peak resident memory of the worker
--trace 1 runs an untraced and a traced worker for S/2 seconds each and
reports per-layer metrics from the traced one (see `tracer.py`), per
repetition, plus the tracing overhead and the kernel's seconds.  Per-layer
times are raw seconds.  Traced and untraced CSVs must be byte-identical.

`attempted` counts command executions and `failed` those that exited
non-zero, printed other bytes than an earlier run of the same command line,
or failed the check.  The last line of output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  --smoke runs every workload
at a tiny size with --trace 0 and --trace 1 and prints one such line each.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import (THREAD_ENV, WORKLOADS, check_output, column_mean,
                       command_key, load_reference)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = {"full": 9, "smoke": 1}
WORKER_TIMEOUT_S = 170

# (metric, unit) per traced target, in the order printed.
LAYER_METRICS = {
    "lattice.lll_reduce": [("calls", "count"), ("busy_s", "s"), ("mean_ms", "ms")],
    "decoder.LatticeDecoder": [("calls", "count"), ("busy_s", "s")],
    "lattice.PreparedCVP": [("calls", "count"), ("busy_s", "s"), ("qr_s", "s")],
    "lattice.exists_closer": [("calls", "count"), ("busy_s", "s"),
                              ("nodes_per_call", "count"), ("nodes_max", "count")],
    "decoder.decodes_to": [("calls", "count"), ("busy_s", "s"), ("self_s", "s")],
    "channel.sample": [("calls", "count"), ("busy_s", "s")],
    "channel.transmit": [("calls", "count"), ("busy_s", "s")],
    "rng.philox": [("calls", "count"), ("busy_s", "s")],
    "decoder.ml_decode": [("calls", "count"), ("busy_s", "s"),
                          ("codewords_per_call", "count")],
    "lattice.ball": [("calls", "count"), ("busy_s", "s"), ("nodes", "count"),
                     ("leaves_per_node", "ratio")],
    "lattice.shortest": [("calls", "count"), ("busy_s", "s"), ("nodes", "count")],
    "codebook.carve": [("calls", "count"), ("busy_s", "s")],
    "codebook.count_points_in_ball": [("calls", "count"), ("busy_s", "s"),
                                      ("kept_per_enumerated", "ratio")],
    "ratecalc.ergodic_capacity_mc": [("calls", "count"), ("busy_s", "s")],
    "catalog.load_catalog": [("calls", "count"), ("busy_s", "s")],
    "numfield.NumberField.discriminant": [("calls", "count"), ("busy_s", "s")],
    "cyclic_algebra.NaturalOrder": [("calls", "count"), ("busy_s", "s")],
    "cyclic_algebra.NaturalOrder.z_discriminant": [("calls", "count"), ("busy_s", "s")],
    "cyclic_algebra.order_lattice": [("calls", "count"), ("busy_s", "s")],
    "exact.bareiss_det": [("calls", "count"), ("busy_s", "s")],
    "sim.simulate_codebook_wer": [("calls", "count"), ("busy_s", "s"), ("self_s", "s")],
    "sim.simulate_infinite_wer": [("calls", "count"), ("busy_s", "s"), ("self_s", "s")],
    "cli": [("self_s", "s")],
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _ratio(num, den):
    return num / den if den else 0.0


def layer_value(stats, metric, reps):
    """One per-layer metric from a target's aggregated spans; totals are
    given per repetition of the workload."""
    counts, calls = stats["counts"], stats["calls"]
    return {
        "calls": calls / reps,
        "busy_s": stats["busy"] / reps,
        "self_s": stats["self"] / reps,
        "qr_s": stats["self"] / reps,
        "mean_ms": 1e3 * _ratio(stats["busy"], calls),
        "nodes": counts.get("nodes", 0) / reps,
        "nodes_per_call": _ratio(counts.get("nodes", 0), calls),
        "nodes_max": stats["maxes"].get("nodes", 0),
        "leaves_per_node": _ratio(counts.get("leaves", 0), counts.get("nodes", 0)),
        "codewords_per_call": _ratio(counts.get("codewords", 0), calls),
        "kept_per_enumerated": _ratio(counts.get("kept", 0), counts.get("enumerated", 0)),
    }[metric]


def _worker_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("MULTIBLOCK_CATALOG", None)       # always the shipped catalog
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(*args):
    cmd = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    mb = report.get("multiblock_file")
    if mb is not None and not Path(mb).is_relative_to(SRC.resolve()):
        raise BenchError(f"multiblock was imported from {mb}, not from {SRC}")
    return report


def score(workload, runs, reference, log):
    """(attempted, failed) over every command execution in the worker
    reports `runs`.  The first output seen for a command line is canonical:
    a different output of the same line, later or in the traced run, fails."""
    attempted = failed = 0
    canonical = {}
    for run in runs:
        for res in run["results"]:
            argv = res["argv"]
            key = command_key(argv)
            for rc, text, n in res["outputs"]:
                canon = canonical.setdefault(key, [rc, text])
                attempted += n
                if rc != 0:
                    reason = f"exit code {rc}"
                elif [rc, text] != canon:
                    reason = "output differs from an earlier run of the same command"
                else:
                    reason = check_output(argv, text, reference, workload.default_seed)
                if reason:
                    failed += n
                    log(f"FAIL {key}: {reason}")
    for key, (_, text) in canonical.items():
        status = ("identical" if reference.get(key) == text else
                  "recorded, not byte-identical" if key in reference else
                  "not recorded, seed-free check")
        log(f"csv {hashlib.sha256(text.encode()).hexdigest()} reference {status}: {key}")
    return attempted, failed


def measure(workload, seed, size, seconds, trace, reference, log):
    """Run one benchmark measurement; returns the result object."""
    name = workload.name
    if trace:
        plain = run_worker("run", name, seed, size, seconds / 2, 0)
        traced = run_worker("run", name, seed, size, seconds / 2, 1)
        runs = [plain, traced]
    else:
        plain = run_worker("run", name, seed, size, seconds, 0)
        runs = [plain]
        # after the run, so that set-up sees compiled bytecode as users do
        setups = [run_worker("setup", name) for _ in range(SETUP_REPS[size])]
    log(f"env {json.dumps(plain['env'], sort_keys=True)}")
    for label, run in zip(("untraced", "traced"), runs):
        log(f"{label} repetitions {len(run['walls'])}: wall_s "
            + " ".join(f"{w:.4f}" for w in run["walls"])
            + " cpu_s " + " ".join(f"{c:.4f}" for c in run["cpus"])
            + " kernel_s " + " ".join(f"{k:.4f}" for k in run["kernels"]))
    attempted, failed = score(workload, runs, reference, log)

    wall = statistics.median(plain["scaled_walls"])
    metrics = {}
    if not trace:
        log("setup raw_s " + " ".join(f"{r['setup_s']:.4f}" for r in setups)
            + " kernel_s " + " ".join(f"{r['kernel_s']:.4f}" for r in setups))
        metrics["wall_s"] = (wall, "s")
        metrics["trials_per_s"] = (workload.trials[size] / wall, "1/s")
        metrics["setup_s"] = (statistics.median(r["scaled_setup_s"] for r in setups), "s")
        metrics["peak_rss_mb"] = (plain["peak_rss_mb"], "MB")
    else:
        reps = len(traced["walls"])
        layers = traced["layers"]
        for target, wanted in LAYER_METRICS.items():
            for metric, unit in wanted:
                metrics[f"{target}.{metric}"] = (
                    layer_value(layers[target], metric, reps), unit)
        for target in traced["missing"]:
            log(f"trace target {target} not found; its metrics read 0")
        nodes = [column_mean(out[1], "avg_nodes", {"decoder": "lattice"})
                 for res in plain["results"] for out in res["outputs"]]
        nodes = [v for v in nodes if v is not None]
        metrics["sim.avg_nodes"] = (sum(nodes) / len(nodes) if nodes else 0.0, "count")
        # raw seconds, comparable to the busy times above
        metrics["trace.untraced_wall_s"] = (statistics.fmean(plain["walls"]), "s")
        metrics["trace.traced_wall_s"] = (statistics.fmean(traced["walls"]), "s")
        # the two runs are seconds apart, so compare them at the reference speed
        metrics["trace.overhead_frac"] = (
            statistics.median(traced["scaled_walls"]) / wall - 1.0, "ratio")
        metrics["host.kernel_s"] = (statistics.median(plain["kernels"]), "s")
        log("wait times: none recorded; the program computes in one thread "
            "and never queues or waits")
    for key, (value, unit) in metrics.items():
        log(f"{key} = {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _log(line):
    print(f"# {line}", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="default: the workload's README seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload (or --workload) at a tiny size")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if not (SRC / "multiblock" / "__init__.py").is_file():
        print(f"error: no multiblock package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        reference = load_reference()
        if args.smoke:
            names = [args.workload] if args.workload else sorted(WORKLOADS)
            ok = True
            for name in names:
                w = WORKLOADS[name]
                seed = w.default_seed if args.seed is None else args.seed
                for trace in (0, 1):
                    _log(f"smoke {name} seed {seed} trace {trace}")
                    result = measure(w, seed, "smoke", 0.001, trace, reference, _log)
                    print(json.dumps(result), flush=True)
                    ok = ok and result["correct"]
            return 0 if ok else 1
        w = WORKLOADS[args.workload]
        seed = w.default_seed if args.seed is None else args.seed
        result = measure(w, seed, "full", args.seconds, args.trace, reference, _log)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
