"""One benchmark process: times set-up or runs one workload, and prints one
JSON object as its last line of output.

    worker.py setup <workload>
    worker.py run <workload> <seed> <size> <seconds> <trace 0|1>
    worker.py record <workload> <size> <repetitions> <seed>...

`run.py` starts it with `src/` on PYTHONPATH and BLAS/OpenMP pinned to one
thread; it is not meant to be started by hand.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
import warnings

from workloads import THREAD_ENV, WORKLOADS

# The catalog's "irreducibility trusted" notes are not benchmark output.
warnings.simplefilter("ignore", UserWarning)

MIN_REPS = {"full": 3, "smoke": 1}


def setup(workload):
    """Import the package, load the catalog and build the workload's lattice
    in this fresh interpreter; report the seconds that took, and the seconds
    of the reference kernel timed right after (see `calibrate.py`)."""
    start = time.perf_counter()
    import multiblock
    from multiblock.lattice import field_lattice
    cat = multiblock.load_catalog()
    kind, name = workload.setup_lattice
    if kind == "field":
        field_lattice(cat.field(name))
    else:
        multiblock.order_lattice(multiblock.NaturalOrder(cat.algebra(name)))
    setup_s = time.perf_counter() - start
    import calibrate
    calibrate.kernel()                      # warm, untimed
    kernel_s = calibrate.time_kernel()
    return {"setup_s": setup_s, "kernel_s": kernel_s,
            "scaled_setup_s": calibrate.scaled(setup_s, kernel_s)}


def _environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(), "affinity": affinity,
            "threads": {k: os.environ.get(k) for k in THREAD_ENV}}


def _run_commands(cli, commands):
    """[(exit code, CSV text)] for each command; an exception counts as a
    failed command and its traceback goes to stderr."""
    outs = []
    for argv in commands:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:     # a crashing command is a failed command
            traceback.print_exc()
            rc = -1
        outs.append((rc, buf.getvalue()))
    return outs


def run(workload, seed, size, seconds, trace):
    """Repeat the workload's commands for `seconds`.  Each command is timed,
    and so is the reference kernel before the first command and after every
    command; a command's seconds at the reference speed use the mean of the
    two kernel timings around it."""
    import calibrate
    import multiblock
    from multiblock import cli
    multiblock_file = os.path.realpath(multiblock.__file__)

    if size != "smoke":
        # warm lazily initialised numpy paths on the tiny size, untimed
        _run_commands(cli, workload.commands(seed, "smoke"))
    calibrate.kernel()

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    walls, cpus, scaled_walls, outputs = [], [], [], {}
    kernels = [calibrate.time_kernel()]       # the kernel calls nothing traced
    deadline = time.perf_counter() + seconds
    try:
        while len(walls) < MIN_REPS[size] or time.perf_counter() < deadline:
            commands = workload.commands(seed, size, len(walls))
            wall = cpu = scaled = 0.0
            for argv in commands:
                w0, c0 = time.perf_counter(), time.process_time()
                [out] = _run_commands(cli, [argv])
                wall_one = time.perf_counter() - w0
                cpu += time.process_time() - c0
                kernels.append(calibrate.time_kernel())
                wall += wall_one
                scaled += calibrate.scaled(wall_one, (kernels[-2] + kernels[-1]) / 2)
                seen = outputs.setdefault(" ".join(argv), (argv, {}))[1]
                seen[out] = seen.get(out, 0) + 1
            walls.append(wall)
            cpus.append(cpu)
            scaled_walls.append(scaled)
    finally:
        if tracer is not None:
            tracer.restore()

    # each distinct command line with its distinct outputs and their counts
    results = [{"argv": argv, "outputs": [[rc, text, n] for (rc, text), n in seen.items()]}
               for argv, seen in outputs.values()]
    report = {"walls": walls, "cpus": cpus, "kernels": kernels,
              "scaled_walls": scaled_walls, "results": results,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": _environment(), "multiblock_file": multiblock_file}
    if tracer is not None:
        report["layers"] = tracer.report()
        report["missing"] = tracer.missing
    return report


def record(workload, size, reps, seeds):
    """{command line: CSV} for every command of the first `reps` repetitions
    of a run at each seed."""
    from multiblock import cli
    out = {}
    for seed in seeds:
        for rep in range(reps):
            commands = workload.commands(seed, size, rep)
            for argv, (rc, text) in zip(commands, _run_commands(cli, commands)):
                if rc != 0:
                    raise RuntimeError(f"{' '.join(argv)} exited {rc}")
                out[" ".join(argv)] = text
    return out


def main(argv):
    mode, name, *rest = argv
    workload = WORKLOADS[name]
    if mode == "setup":
        report = setup(workload)
    elif mode == "record":
        report = record(workload, rest[0], int(rest[1]), [int(s) for s in rest[2:]])
    else:
        seed, size, seconds, trace = rest
        report = run(workload, int(seed), size, float(seconds), trace == "1")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
