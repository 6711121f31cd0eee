"""Command-line front end: invariants, carve, simulate, rates, chernoff,
catalog-verify.  All output is CSV on stdout (or --output) with the run
configuration echoed as '# key = value' header lines, so identical configs
produce identical bytes.  A command writes its CSV, and any side file such as
a --export codebook, only once it has finished, all in one commit step, so a
failed command leaves no partial CSV and no CSV without its side file.

SNR convention: P is the per-channel-use average power against unit-variance
noise, SNR_dB = 10 log10 P.

Exit codes: 0 success, 2 configuration or catalog error, 3 numerical failure.
"""

import argparse
import functools
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import ratecalc, sim
from .catalog import load_catalog
from .channel import KINDS, FadingModel
from .codebook import carve, format_codebook
from .cyclic_algebra import NaturalOrder, order_lattice
from .errors import (BudgetExceeded, CarveFailed, CatalogError,
                     DegenerateLattice, DomainError, EmptyBall,
                     PrecisionFailure, SingularChannel)
from .lattice import (DEFAULT_BUDGET, field_lattice, invariant_report,
                      min_pdet)

CONFIG_ERROR, NUMERICAL_ERROR = 2, 3


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def _file_mode(path):
    """Permission bits that open(path, "w") leaves on path: those of the
    file it overwrites, else 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


class Output:
    """The files of one command, held until close() writes them together:
    the CSV (to --output, or stdout) and any side file such as a --export
    codebook.  A command that fails leaves stdout and every target as they
    were.  Each regular target file is first written beside itself, and
    each other target (a device, FIFO or directory) is written in place;
    only when all are written are the regular files renamed into place, so a
    write that fails partway changes none of them.  A failed write is
    reported under the path given, never a temporary file's."""

    def __init__(self, path=None):
        self.path = path
        self.lines = []
        self.files = []         # (path, text) written beside the CSV

    def header(self, config):
        self.lines.extend(f"# {key} = {config[key]}\n" for key in sorted(config))

    def row(self, values):
        self.lines.append(",".join(_fmt(v) for v in values) + "\n")

    def add_file(self, path, text):
        self.files.append((path, text))

    def close(self):
        text = "".join(self.lines)
        files = self.files if self.path is None else [(self.path, text)] + self.files
        staged, in_place = [], []
        try:
            for path, body in files:
                target = os.path.realpath(path)
                if os.path.exists(target) and not os.path.isfile(target):
                    # written in place, never replaced
                    in_place.append((path, target, body))
                    continue
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                                           prefix=".", suffix=".tmp")
                staged.append((path, tmp, target))
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    os.fchmod(fh.fileno(), _file_mode(target))
                    fh.write(body)
            for path, target, body in in_place:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(body)
            for path, tmp, target in staged:
                os.replace(tmp, target)
        except BaseException as exc:
            for _, tmp, _ in staged:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            if isinstance(exc, OSError) and exc.errno is not None:
                raise OSError(exc.errno, exc.strerror, path) from exc
            raise
        if self.path is None:
            sys.stdout.write(text)


def _snr_power(snr_db):
    """The power P = 10^(snr_db / 10), refused unless it is a finite
    positive double."""
    try:
        P = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        P = math.inf
    if not 0 < P < math.inf:
        raise ValueError(f"--snr-db {snr_db:g} does not give a finite positive power")
    return P


def _config_dict(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _load_lattice(cat, field=None, algebra=None):
    """The field lattice of `field` if given, else the natural-order lattice
    of `algebra`, each carrying its certified det_min (or None).  Returns
    (lattice, name, center field)."""
    if field:
        f = cat.field(field)
        return field_lattice(f), f.name, f
    alg = cat.algebra(algebra)
    return order_lattice(NaturalOrder(alg)), alg.name, alg.center


def _model_from_args(args, n):
    fixed = None
    if args.fixed_h_file:
        with open(args.fixed_h_file, encoding="utf-8") as fh:
            rows = [[complex(tok) for tok in line.split()]
                    for line in fh if line.strip()]
        if len({len(r) for r in rows}) > 1:
            raise ValueError("--fixed-h-file rows differ in length")
        fixed = np.array(rows, dtype=complex)
    return FadingModel(kind=args.model, n=n, n_r=args.nr, fixed_H=fixed,
                       rho=args.rho)


def cmd_invariants(args):
    cat = load_catalog()
    names = []
    if args.all:
        names = [("field", f) for f in sorted(cat.fields)] + \
                [("algebra", a) for a in sorted(cat.algebras)]
    elif args.field:
        names = [("field", args.field)]
    else:
        names = [("algebra", args.algebra)]

    out = Output(args.output)
    out.header(_config_dict(args, ["field", "algebra", "all", "radius", "budget"]))
    out.row(["name", "kind", "n", "k", "rank", "vol", "hermite", "det_min",
             "certificate", "delta", "rh_lower", "root_disc", "table_target",
             "meets_target"])
    for kind, name in names:
        lat, _, f = _load_lattice(cat, **{kind: name})
        rep = invariant_report(lat, radius=args.radius, budget=args.budget)
        target = f.table_target()
        meets = f.meets_table_target()
        out.row([name, kind, lat.n, lat.k, lat.rank, lat.volume, rep.hermite,
                 rep.det_min, rep.det_min_certificate, rep.delta, rep.rh_lower,
                 f.root_discriminant(),
                 "" if target is None else target,
                 "" if meets is None else meets])
    out.close()
    return 0


def cmd_carve(args):
    P = _snr_power(args.snr_db)
    cat = load_catalog()
    lat, name, _ = _load_lattice(cat, args.field, args.algebra)
    [book] = carve(lat, [P], args.rate, args.trials, args.seed,
                   budget=args.budget)
    if isinstance(book, CarveFailed):
        raise book
    out = Output(args.output)
    out.header(_config_dict(args, ["field", "algebra", "snr_db", "rate",
                                   "trials", "seed"]))
    out.row(["name", "snr_db", "rate_target", "codewords", "realized_rate", "alpha"])
    out.row([name, args.snr_db, args.rate, len(book), book.realized_rate, book.alpha])
    if args.export:
        out.add_file(args.export, format_codebook(book))
    out.close()
    return 0


def cmd_simulate(args):
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if not args.infinite and args.carve_trials < 1:
        raise ValueError("--carve-trials must be >= 1")
    if args.infinite and args.decoder == "ml":
        raise ValueError("ML decoding needs a carved codebook, not --infinite")
    powers = [_snr_power(snr_db) for snr_db in args.snr_db]
    cat = load_catalog()
    lat, name, _ = _load_lattice(cat, args.field, args.algebra)
    model = _model_from_args(args, lat.n)
    decoders = {"ml": ("ml",), "lattice": ("lattice",),
                "both": ("ml", "lattice")}[args.decoder]
    out = Output(args.output)
    out.header(_config_dict(args, ["field", "algebra", "model", "nr", "rho",
                                   "snr_db", "rate", "trials", "seed",
                                   "decoder", "infinite", "noiseless"]))
    out.row(["name", "snr_db", "rate", "decoder", "trials", "word_errors",
             "wer", "stderr", "avg_nodes", "flag"])
    run = dict(budget=args.budget, noiseless=args.noiseless)
    # per SNR point: its WER points, or the flag of a carve that failed
    if args.infinite:
        results = [[pt] for pt in sim.simulate_infinite_wer(
            lat, model, powers, args.rate, args.trials, args.seed, **run)]
    else:
        try:
            carved = carve(lat, powers, args.rate, args.carve_trials,
                           args.seed, budget=args.budget)
        except (CarveFailed, BudgetExceeded) as exc:
            # the one shift search serves every point, so its failure is theirs
            carved = [exc] * len(powers)
        results = [f"carve_failed:{c.best_count}" if isinstance(c, CarveFailed)
                   else "carve_budget_exceeded" if isinstance(c, BudgetExceeded)
                   else c for c in carved]
        books = [r for r in results if not isinstance(r, str)]
        if books:
            simulated = iter(sim.simulate_codebook_wer(
                books, model, args.trials, args.seed, decoders, **run))
            results = [r if isinstance(r, str) else next(simulated)
                       for r in results]
    for snr_db, result in zip(args.snr_db, results):
        if isinstance(result, str):
            out.row([name, snr_db, args.rate, args.decoder, args.trials,
                     "", "", "", "", result])
            continue
        for pt in result:
            out.row([name, snr_db, pt.rate, pt.decoder, pt.trials, pt.errors,
                     pt.wer, pt.stderr, pt.avg_nodes, pt.flag])
    out.close()
    return 0


def cmd_rates(args):
    powers = [_snr_power(snr_db) for snr_db in args.snr_db]
    model = FadingModel(kind=args.model, n=args.n, n_r=args.nr, rho=args.rho)
    out = Output(args.output)
    out.header(_config_dict(args, ["n", "nr", "model", "rho", "snr_db", "cl",
                                   "delta", "samples", "seed"]))
    out.row(["P_dB", "C_est", "C_stderr", "R_thm", "gap", "v_delta", "K"])
    # the exponent reads no power: one solve serves every row
    tilt = (("", "") if args.delta is None
            else ratecalc.rayleigh_exponent(model, args.delta))
    reports = ratecalc.rate_report(model, powers, args.cl,
                                   samples=args.samples, seed=args.seed)
    for snr_db, rep in zip(args.snr_db, reports):
        out.row([snr_db, rep.capacity, rep.capacity_stderr,
                 max(0.0, rep.rate), rep.gap, *tilt])
    out.close()
    return 0


def cmd_chernoff(args):
    out = Output(args.output)
    out.header(_config_dict(args, ["n", "nr", "delta"]))
    out.row(["delta_nats", "v_delta", "K"])
    for d in args.delta:
        out.row([d, *ratecalc.chernoff(args.n, args.nr, d)])
    out.close()
    return 0


def cmd_catalog_verify(args):
    out = Output(args.output)
    cat = load_catalog()
    out.row(["name", "kind", "check", "status"])
    failures = 0
    for name, f in sorted(cat.fields.items()):
        d = f.discriminant()
        out.row([name, "field", f"disc={d}", "ok"])
        meets = f.meets_table_target()
        if meets is False and not f.suboptimal:
            out.row([name, "field", "root_disc_above_target_unflagged", "FAIL"])
            failures += 1
        else:
            out.row([name, "field", f"root_disc={f.root_discriminant():.4f}", "ok"])
    for name, alg in sorted(cat.algebras.items()):
        order = NaturalOrder(alg)
        lat = order_lattice(order)
        d = order.z_discriminant()
        ok = d % alg.center.discriminant() ** (alg.n ** 2) == 0
        out.row([name, "algebra", f"zdisc={d}", "ok" if ok else "FAIL"])
        failures += 0 if ok else 1
        # division falsification probe: no tiny product determinants among
        # small order elements
        try:
            val, _ = min_pdet(lat, 1.5 * np.sqrt(lat.n * lat.k), args.budget)
            probe_ok, probe_msg = val > 1e-6, f"division_probe_min_pdet={val:.6f}"
        except EmptyBall:
            probe_ok, probe_msg = True, "division_probe_empty_ball"
        out.row([name, "algebra", probe_msg, "ok" if probe_ok else "FAIL"])
        failures += 0 if probe_ok else 1
    out.close()
    return 0 if failures == 0 else CONFIG_ERROR


def _add_lattice_args(p):
    p.add_argument("--field", help="catalog field name (n = 1 lattice)")
    p.add_argument("--algebra", help="catalog algebra name (order lattice)")


def _add_model_args(p):
    p.add_argument("--model", default="constant", choices=KINDS)
    p.add_argument("--nr", type=int, default=1, help="receive antennas")
    p.add_argument("--rho", type=float, default=0.0,
                   help="gauss_markov correlation in [0, 1)")
    p.add_argument("--fixed-h-file", dest="fixed_h_file",
                   help="text file with the constant H block")


def _check_args(args):
    """The checks that several commands share, made before any work: one
    lattice selected, a search budget of at least one node, a finite
    positive ball radius, and a seed in [0, 2^64) (the Philox key takes the
    seed modulo 2^64, so any other would alias one of these)."""
    if hasattr(args, "field"):
        options = ["--field", "--algebra"] + (["--all"] if hasattr(args, "all")
                                              else [])
        given = [o for o in options if getattr(args, o[2:])]
        if len(given) != 1:
            raise ValueError(f"need exactly one of {', '.join(options)}; "
                             f"got {' '.join(given) or 'none'}")
    if getattr(args, "budget", 1) < 1:
        raise ValueError(f"--budget must be >= 1, not {args.budget}")
    radius = getattr(args, "radius", None)
    if radius is not None and not 0 < radius < math.inf:
        raise ValueError(f"--radius must be finite and > 0, not {radius}")
    seed = getattr(args, "seed", 0)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"--seed must be in [0, 2^64), not {seed}")


def float_list(text):
    """A comma-separated list of floats."""
    return [float(x) for x in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one `error: ...` line and exit 2,
    like every other configuration error; its subparsers share the class."""

    def error(self, message):
        self.exit(CONFIG_ERROR, f"error: {message}\n")


@functools.cache
def build_parser():
    """The command-line parser, built once per process for every `main`."""
    ap = _Parser(prog="multiblock",
                 description="multiblock lattice code laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="geometric invariants of catalog lattices")
    _add_lattice_args(p)
    p.add_argument("--all", action="store_true")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--output")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("carve", help="carve a power-constrained codebook")
    _add_lattice_args(p)
    p.add_argument("--snr-db", dest="snr_db", type=float, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--trials", type=int, default=16)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--export", help="write the codebook in matrix text format")
    p.add_argument("--output")
    p.set_defaults(func=cmd_carve)

    p = sub.add_parser("simulate", help="word error rate over a fading channel")
    _add_lattice_args(p)
    _add_model_args(p)
    p.add_argument("--snr-db", dest="snr_db", type=float_list,
                   required=True, help="comma-separated SNR grid in dB")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--decoder", default="both", choices=["ml", "lattice", "both"])
    p.add_argument("--infinite", action="store_true",
                   help="skip carving; lattice-decode the infinite lattice")
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--carve-trials", dest="carve_trials", type=int, default=16)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rates", help="capacity, achievable rate, gap, exponent")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nr", type=int, required=True)
    p.add_argument("--model", default="iid_rayleigh", choices=KINDS)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--snr-db", dest="snr_db", type=float_list,
                   required=True)
    p.add_argument("--cl", type=float, required=True,
                   help="lattice family constant C_L")
    p.add_argument("--delta", type=float, default=None,
                   help="large-deviation delta in nats")
    p.add_argument("--samples", type=int, default=20000,
                   help="capacity fades; a correlated model draws chains x "
                        "floor(samples / chains) of them, chains = max(8, "
                        "min(64, floor(samples / 64))), so it needs >= 8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("chernoff", help="v_delta and exponent K")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nr", type=int, required=True)
    p.add_argument("--delta", type=float_list,
                   required=True, help="comma-separated deltas in nats")
    p.add_argument("--output")
    p.set_defaults(func=cmd_chernoff)

    p = sub.add_parser("catalog-verify", help="validate every catalog entry")
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.add_argument("--output")
    p.set_defaults(func=cmd_catalog_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    # numerical classes first: numpy's LinAlgError subclasses ValueError
    except (PrecisionFailure, DegenerateLattice, BudgetExceeded, EmptyBall,
            SingularChannel, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    # an array too large to allocate is one the options asked for
    except (CatalogError, CarveFailed, DomainError, ValueError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
