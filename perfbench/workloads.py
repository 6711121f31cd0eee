"""Benchmark workloads and the check of their outputs.

A workload is a list of `multiblock` command lines built from a seed.  Each
is run through `multiblock.cli.main(argv)` and its CSV is checked against
`reference.json`, which maps a command line to the CSV this code produced for
it.  Every column must match exactly except `avg_nodes`: that is search
effort, which a faster enumeration may change, while word errors, WER and
codeword counts may never change.

Command lines without a recorded reference (any seed other than a
workload's default seed and the held-out seed) get a weaker check: seed-independent
columns must match the reference of the workload's default seed exactly,
error counts must be consistent with the printed WER and standard error, and
Monte Carlo estimates must agree with the default seed's within their
standard errors.

This module imports neither numpy nor multiblock: the parent process that
uses it must run, and fail cleanly, where the package is missing.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# A seed used only to confirm claims made on the default seeds.
HELD_OUT_SEED = 314159

# Repetition r of a run with seed s runs the commands at seed
# s + r * BLOCK_STRIDE.  The cost of fading_codebook depends on the fades
# drawn, so drawing new ones per repetition keeps the run's mean close to
# the workload's typical cost; repetition 0 runs at s itself.
BLOCK_STRIDE = 1000003

# Thread pins for every process that imports numpy: two shared cores should
# measure the program, not the BLAS thread scheduler.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    setup_lattice: tuple          # ("algebra" | "field", catalog name)
    trials: dict                  # size -> Monte Carlo trials per repetition
    argv: object                  # (seed, size) -> list of command lines

    def commands(self, seed, size, rep=0):
        """Command lines of repetition `rep` of a run with `seed`."""
        return self.argv(seed + rep * BLOCK_STRIDE, size)


# Trials per repetition, sized so that a command takes a few tenths of a
# second: each command's seconds are scaled by the host speed measured just
# before and after it (see `calibrate.py`), which fits best when the command
# is short next to the host's speed swings, and a run needs ~100 repetitions
# to be steady.
FADING_TRIALS = {"full": 20, "smoke": 4}
STATIC_TRIALS = {"full": 1500, "smoke": 200}
RATES_SAMPLES = {"full": 20000, "smoke": 500}
RATES_SNR_DB = "10,20,30,40"
CARVE_TRIALS = {"full": 16, "smoke": 2}


def _fading(seed, size):
    return [["simulate", "--algebra", "golden", "--model", "iid_rayleigh",
             "--nr", "2", "--snr-db", "8,12,16", "--rate", "1",
             "--decoder", "both", "--trials", str(FADING_TRIALS[size]),
             "--seed", str(seed)]]


def _static(seed, size):
    return [["simulate", "--field", "cyclo32", "--model", "constant",
             "--snr-db", "20", "--rate", "3.74", "--decoder", "lattice",
             "--infinite", "--trials", str(STATIC_TRIALS[size]),
             "--seed", str(seed)]]


def _catalog(seed, size):
    return [
        ["invariants", "--all"],
        ["catalog-verify"],
        ["rates", "--n", "1", "--nr", "1", "--snr-db", RATES_SNR_DB,
         "--cl", "46.184", "--delta", "0.3",
         "--samples", str(RATES_SAMPLES[size]), "--seed", str(seed)],
        ["chernoff", "--n", "2", "--nr", "2", "--delta", "0.1,0.5,1.0"],
        ["carve", "--algebra", "golden", "--snr-db", "16", "--rate", "2",
         "--trials", str(CARVE_TRIALS[size]), "--seed", str(seed)],
    ]


WORKLOADS = {w.name: w for w in [
    Workload("fading_codebook", 7, ("algebra", "golden"),
             {s: 3 * FADING_TRIALS[s] for s in SIZES}, _fading),
    Workload("static_infinite", 1729, ("field", "cyclo32"),
             dict(STATIC_TRIALS), _static),
    # The Monte Carlo trials of catalog_lab are the channel draws of `rates`.
    Workload("catalog_lab", 1, ("algebra", "golden"),
             {s: len(RATES_SNR_DB.split(",")) * RATES_SAMPLES[s] for s in SIZES},
             _catalog),
]}


def command_key(argv):
    return " ".join(argv)


def load_reference(path=REFERENCE_FILE):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# CSV parsing

def parse_csv(text):
    """(config lines, column names, rows) of a multiblock CSV."""
    lines = text.splitlines()
    config = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    if not body:
        raise ValueError("CSV has no column row")
    return config, body[0], body[1:]


def mask_column(text, column):
    """The CSV with every value of `column` blanked."""
    config, cols, rows = parse_csv(text)
    if column in cols:
        j = cols.index(column)
        rows = [r[:j] + [""] + r[j + 1:] for r in rows]
    return config, cols, rows


def column_mean(text, column, where=None):
    """Mean of a numeric column over the rows matching `where` (a dict of
    column -> value), or None when no row matches."""
    _, cols, rows = parse_csv(text)
    if column not in cols:
        return None
    j = cols.index(column)
    vals = [float(r[j]) for r in rows
            if r[j] != "" and all(r[cols.index(k)] == v
                                  for k, v in (where or {}).items())]
    return sum(vals) / len(vals) if vals else None


# ---------------------------------------------------------------------------
# the check

def check_output(argv, text, reference, default_seed):
    """Return None if the CSV of `argv` is correct, else a one-line reason."""
    key = command_key(argv)
    if key in reference:
        if mask_column(text, "avg_nodes") != mask_column(reference[key], "avg_nodes"):
            return "differs from the reference outside avg_nodes"
        return None
    if "--seed" not in argv:
        return "no reference recorded"
    sibling = list(argv)
    sibling[sibling.index("--seed") + 1] = str(default_seed)
    ref = reference.get(command_key(sibling))
    if ref is None:
        return "no reference recorded for the default seed"
    return _check_against_other_seed(argv[0], text, ref)


def _rows_by_name(cols, rows):
    return [dict(zip(cols, r)) for r in rows]


def _fmt(x):
    # the CLI's float format
    return format(float(x), ".10g")


def _check_against_other_seed(command, text, ref):
    try:
        config, cols, rows = parse_csv(text)
        rconfig, rcols, rrows = parse_csv(ref)
    except ValueError as exc:
        return str(exc)
    if [c for c in config if not c.startswith("# seed")] != \
            [c for c in rconfig if not c.startswith("# seed")]:
        return "configuration lines differ from the reference"
    if cols != rcols or len(rows) != len(rrows):
        return "column row or row count differs from the reference"
    got, want = _rows_by_name(cols, rows), _rows_by_name(rcols, rrows)
    check = {"simulate": _check_simulate, "rates": _check_rates,
             "carve": _check_carve}.get(command)
    if check is None:
        return f"no seed-free check for {command}"
    try:
        return check(got, want)
    except (KeyError, ValueError) as exc:
        return f"malformed row: {exc}"


def _same(got, want, keys):
    for g, w in zip(got, want):
        for k in keys:
            if g[k] != w[k]:
                return f"{k} {g[k]} != reference {w[k]}"
    return None


def _check_simulate(got, want):
    bad = _same(got, want, ["name", "snr_db", "decoder", "trials", "flag"])
    if bad:
        return bad
    errors = {}
    for g, w in zip(got, want):
        trials, e, e_ref = int(g["trials"]), int(g["word_errors"]), int(w["word_errors"])
        if not 0 <= e <= trials:
            return f"word_errors {e} outside [0, {trials}]"
        p = e / trials
        if g["wer"] != _fmt(p) or g["stderr"] != _fmt(math.sqrt(p * (1 - p) / trials)):
            return "wer or stderr inconsistent with word_errors"
        # two binomial counts of the same error rate
        pool = (e + e_ref) / (2 * trials)
        if abs(e - e_ref) > 6 * math.sqrt(2 * trials * pool * (1 - pool)) + 6:
            return f"word_errors {e} far from reference {e_ref}"
        errors[(g["snr_db"], g["decoder"])] = e
    # a correct lattice decision is also the ML decision, so ML never errs
    # more often than the lattice decoder on the same trials
    for (snr, dec), e in errors.items():
        if dec == "ml" and e > errors.get((snr, "lattice"), e):
            return f"ML errors exceed lattice errors at {snr} dB"
    return None


def _check_rates(got, want):
    bad = _same(got, want, ["P_dB", "R_thm", "v_delta", "K"])
    if bad:
        return bad
    for g, w in zip(got, want):
        c, se, c_ref, se_ref = (float(g["C_est"]), float(g["C_stderr"]),
                                float(w["C_est"]), float(w["C_stderr"]))
        if abs(c - c_ref) > 6 * math.hypot(se, se_ref):
            return f"C_est {c} far from reference {c_ref}"
        if abs(float(g["gap"]) - (c - float(g["R_thm"]))) > 1e-8 * max(1.0, abs(c)):
            return "gap != C_est - R_thm"
    return None


def _check_carve(got, want):
    bad = _same(got, want, ["name", "snr_db", "rate_target", "alpha"])
    if bad:
        return bad
    for g, w in zip(got, want):
        nk = math.log2(int(w["codewords"])) / float(w["realized_rate"])
        count = int(g["codewords"])
        if count < 2 ** math.floor(float(g["rate_target"]) * round(nk)):
            return f"{count} codewords is below the rate target"
        if g["realized_rate"] != _fmt(math.log2(count) / round(nk)):
            return "realized_rate inconsistent with codewords"
    return None
