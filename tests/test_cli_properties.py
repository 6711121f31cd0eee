"""Property test of the command line's exit-code contract.

Every argument list of every subcommand ends in exit 0 (the CSV on
stdout, nothing on stderr), 2 (a configuration or catalog error) or 3 (a
numerical failure), the last two with one line on stderr and nothing on
stdout; no argument list ends in a traceback or a warning.  The lists are
drawn from each subcommand's options, each option present or not, with
values in and out of range, non-numbers and parser errors among them.
They run in-process through `cli.main`.  The lattices have rank at most 8
(R n k <= 2 R) and rates stay at most 2 bits, so that every codebook a
run carves holds at most 2^(4 + 2) words and each example takes
milliseconds.  Hypothesis runs derandomized, so every process draws the
same examples.
"""

import contextlib
import io
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from multiblock.channel import KINDS
from multiblock.cli import main

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


def _mostly(valid, other):
    """`valid` about nine times in ten, else `other`, so that most lists
    run a command and the rest each probe one refusal.  `valid` is the
    branch Hypothesis favours and shrinks to."""
    return st.integers(0, 9).flatmap(lambda i: valid if i < 9 else other)


def _number(lo, hi, extremes):
    """Text of a float in [lo, hi], or of one of `extremes`."""
    return _mostly(st.floats(lo, hi).map(repr),
                   st.sampled_from(extremes + ["x"]))


def _ints(lo, hi, extremes=()):
    """Text of an int in [lo, hi], or of one of `extremes`."""
    return _mostly(st.integers(lo, hi).map(str),
                   st.sampled_from(list(extremes) + ["x"]))


def _list(value):
    return st.lists(value, min_size=1, max_size=3).map(",".join)


SNR = _number(-20.0, 40.0, ["-3200", "-3082", "3080", "4000", "nan", "inf"])
SEED = _mostly(st.sampled_from(["0", "1", "7", str(2 ** 64 - 1)]),
               st.sampled_from(["-1", str(2 ** 64)]))
BUDGET = _ints(1, 3000, ["-1", "0", "31"])
NR = _ints(1, 3, ["-1", "0"])
RHO = _number(0.0, 0.99, ["-0.5", "1", "1.5", "nan", "inf"])
MODEL = _mostly(st.one_of(
    st.just([]), st.just(["--model=constant"]),
    st.just(["--model=iid_rayleigh"]),
    RHO.map(lambda rho: ["--model=gauss_markov", f"--rho={rho}"])),
    st.sampled_from([["--model=bogus"], ["--model=constant", "--rho=0.5"],
                     ["--model=gauss_markov"]]))
LATTICE = _mostly(st.sampled_from([
    ["--field=q_i"], ["--field=q_omega"], ["--field=cyclo5"],
    ["--field=cyclo8"], ["--algebra=golden"]]), st.sampled_from([
    ["--field=nope"], ["--algebra=nope"], ["--field=q_i", "--algebra=golden"],
    []]))
RATE = _number(0.0, 2.0, ["-1", "nan", "inf", "100", "1e300"])
FLAG = None


def _argv(command, first, options, required=()):
    """Argument lists of `command`: a drawn list `first` (the lattice and
    model options), then each option of `options` (option -> strategy of
    its value text, or FLAG) present or absent; an option in `required` is
    absent about one time in ten."""
    def one(option, value):
        present = (st.just([option]) if value is FLAG
                   else value.map(lambda text: [f"{option}={text}"]))
        if option in required:
            return _mostly(present, st.just([]))
        return st.one_of(st.just([]), present)
    parts = [one(option, value) for option, value in options.items()]
    return st.tuples(first, *parts).map(
        lambda drawn: [command] + [arg for part in drawn for arg in part])


def _joined(*lists):
    return st.tuples(*lists).map(lambda drawn: sum(drawn, []))


INVARIANTS = _argv("invariants", st.one_of(LATTICE, st.just(["--all"])), {
    "--radius": _number(0.1, 2.5, ["-1", "0", "inf", "nan"]),
    "--budget": BUDGET,
})
CARVE = _argv("carve", LATTICE, {
    "--snr-db": SNR, "--rate": RATE, "--trials": _ints(1, 4, ["-1", "0"]),
    "--seed": SEED, "--budget": BUDGET,
}, required=("--snr-db", "--rate", "--seed"))
SIMULATE = _argv("simulate", _joined(LATTICE, MODEL), {
    "--nr": NR, "--snr-db": _list(SNR),
    "--rate": RATE, "--trials": _ints(1, 50, ["-1", "0"]), "--seed": SEED,
    "--decoder": _mostly(st.sampled_from(["ml", "lattice", "both"]),
                         st.just("bogus")),
    "--infinite": FLAG, "--noiseless": FLAG,
    "--carve-trials": _ints(1, 4, ["-1", "0"]), "--budget": BUDGET,
}, required=("--snr-db", "--rate", "--seed"))
RATES = _argv("rates", MODEL, {
    "--n": _ints(1, 3, ["-1", "0"]), "--nr": NR, "--snr-db": _list(SNR),
    "--cl": _number(0.5, 8.0, ["-1", "0", "inf", "nan"]),
    "--delta": _number(0.01, 5.0, ["-1", "0", "inf", "nan"]),
    "--samples": _ints(2, 200, ["-1", "0", "1"]), "--seed": SEED,
}, required=("--n", "--nr", "--snr-db", "--cl"))
CHERNOFF = _argv("chernoff", st.just([]), {
    "--n": _ints(1, 3, ["-1", "0"]), "--nr": NR,
    "--delta": _list(_number(0.01, 5.0, ["-1", "0", "inf", "nan"])),
}, required=("--n", "--nr", "--delta"))
CATALOG_VERIFY = _argv("catalog-verify", st.just([]), {"--budget": BUDGET})


def _run(argv):
    """(exit code, stdout, stderr) of `main(argv)`, a parser error's
    SystemExit read as its code; a warning is raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@PROPERTY
@given(st.one_of(INVARIANTS, CARVE, SIMULATE, RATES, CHERNOFF,
                 CATALOG_VERIFY))
def test_every_argument_list_exits_0_2_or_3_with_one_line(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert err == "" and out, (argv, err)
    else:
        prefix = "error: " if code == 2 else "numerical failure: "
        assert out == "" and err.startswith(prefix), (argv, out, err)
        assert len(err.splitlines()) == 1 and err.endswith("\n"), (argv, err)
