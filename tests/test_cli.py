import csv
import hashlib
import inspect
import io
import itertools
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from multiblock.cli import main
from multiblock.cyclic_algebra import NaturalOrder

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(args, tmp_path, name="out.csv"):
    path = tmp_path / name
    code = main(args + ["--output", str(path)])
    text = path.read_text() if path.exists() else ""
    return code, text


def parse_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def test_invariants_q_omega(tmp_path):
    code, text = run_cli(["invariants", "--field", "q_omega"], tmp_path)
    assert code == 0
    row = parse_csv(text)[0]
    assert float(row["delta"]) == pytest.approx((4.0 / 3.0) ** 0.25, rel=1e-9)
    assert float(row["hermite"]) == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-9)
    assert row["meets_target"] == "True"


def test_invariants_q_i_delta_one(tmp_path):
    code, text = run_cli(["invariants", "--field", "q_i"], tmp_path)
    assert code == 0
    row = parse_csv(text)[0]
    assert float(row["delta"]) == 1.0


def test_unknown_name_exits_2(tmp_path, capsys):
    code = main(["invariants", "--field", "nope"])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_seed_required_for_simulate():
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--field", "q_i", "--snr-db", "10", "--rate", "1"])
    assert info.value.code == 2


def test_largest_seed_runs(tmp_path):
    code, text = run_cli(["simulate", "--field", "q_i", "--model",
                          "iid_rayleigh", "--snr-db", "10", "--rate", "1",
                          "--trials", "5", "--seed", str(2 ** 64 - 1)],
                         tmp_path)
    assert code == 0
    assert f"# seed = {2 ** 64 - 1}" in text
    assert len(parse_csv(text)) == 2


@pytest.mark.parametrize("argv, needle", [
    (["simulate", "--field", "q_i", "--snr-db", "8,,12", "--rate", "1",
      "--seed", "1"], "invalid float_list value: '8,,12'"),
    (["simulate", "--field", "q_i", "--snr-db", "10", "--rate", "1"],
     "required: --seed"),
    (["bogus"], "invalid choice: 'bogus'"),
])
def test_parser_error_is_one_line(capsys, argv, needle):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "error: ")
    assert needle in err


def test_golden_invariants_q_i(tmp_path):
    code, text = run_cli(["invariants", "--field", "q_i"], tmp_path)
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, "invariants_q_i.csv")) as fh:
        assert text == fh.read()


def test_golden_chernoff(tmp_path):
    code, text = run_cli(["chernoff", "--n", "1", "--nr", "1",
                          "--delta", "0.5,1.0"], tmp_path)
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, "chernoff_1_1.csv")) as fh:
        assert text == fh.read()


@pytest.mark.parametrize("command, solves", [
    ("chernoff --n 2 --nr 2 --delta 0.1,0.5,1.0", 3),
    ("rates --n 1 --nr 1 --snr-db 10,20,30,40 --cl 46.184 --delta 0.3", 1),
])
def test_chernoff_tilt_solved_once_per_row(monkeypatch, command, solves):
    # a row's exponent K reuses the tilt v_delta its row solved, and the
    # rows of a rates command, which share their delta, share one solve
    from multiblock import ratecalc
    calls, real = [], ratecalc.chernoff
    monkeypatch.setattr(ratecalc, "chernoff",
                        lambda *args: calls.append(args) or real(*args))
    assert main(command.split()) == 0
    assert len(calls) == solves


GOLDEN_SIMULATE = {
    # codebook, constant channel, ML and lattice decoding
    "simulate_q_omega.csv": "--field q_omega --model constant --snr-db 4,8 "
                            "--rate 1.5 --trials 100 --seed 77 --decoder both",
    # codebook, constant channel, ML only
    "simulate_q_omega_ml.csv": "--field q_omega --model constant --snr-db 4,6 "
                               "--rate 1.5 --trials 100 --seed 3 --decoder ml",
    # codebook, Gauss-Markov fades over k = 2 blocks
    "simulate_cyclo8_gauss_markov.csv": "--field cyclo8 --model gauss_markov "
                                        "--rho 0.7 --nr 2 --snr-db 2,6 --rate 1 "
                                        "--trials 100 --seed 11 --decoder both",
    # infinite lattice, constant channel (one decoder for the run)
    "simulate_cyclo32_infinite.csv": "--field cyclo32 --model constant "
                                     "--snr-db 16,18 --rate 3.74 --trials 200 "
                                     "--seed 1729 --decoder lattice --infinite",
    # infinite lattice, i.i.d. Rayleigh (one decoder per trial)
    "simulate_q_i_iid_infinite.csv": "--field q_i --model iid_rayleigh --nr 1 "
                                     "--snr-db 10,16 --rate 1 --trials 200 "
                                     "--seed 5 --decoder lattice --infinite",
}


def first_difference(text, golden):
    """(line number, column) of the first cell in which a CSV differs from
    its golden copy, the column named by the golden header row; None when
    they are equal."""
    if text == golden:
        return None
    want = golden.splitlines()
    names = next((line.split(",") for line in want if not line.startswith("#")),
                 [])
    lines = itertools.zip_longest(text.splitlines(), want, fillvalue="")
    for i, (got, exp) in enumerate(lines):
        if got != exp:
            cells = itertools.zip_longest(got.split(","), exp.split(","))
            j = next(j for j, (a, b) in enumerate(cells) if a != b)
            named = j < len(names) and not exp.startswith("#")
            return i + 1, names[j] if named else j
    return len(want), None          # only the line endings differ


def test_golden_simulate(tmp_path):
    for name, args in GOLDEN_SIMULATE.items():
        code, text = run_cli(["simulate"] + args.split(), tmp_path, name)
        assert code == 0
        with open(os.path.join(GOLDEN_DIR, name)) as fh:
            golden = fh.read()
        diff = first_difference(text, golden)
        assert diff is None, f"{name}: first difference at (line, column) {diff}"


def _golden_commands():
    # one "<sha256>  <command line>" per line, recorded from the CLI's stdout
    with open(os.path.join(GOLDEN_DIR, "commands.sha256")) as fh:
        return [tuple(line.rstrip("\n").split("  ", 1)) for line in fh]


@pytest.mark.parametrize("digest,command", _golden_commands(),
                         ids=[command for _, command in _golden_commands()])
def test_golden_command_digest(capsys, digest, command):
    # every output byte of these command lines is pinned, avg_nodes included
    assert main(command.split()) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


README_RATES = "rates --n 1 --nr 1 --snr-db 10,20,30,40 --cl 46.184 --delta 0.3"


def test_rates_draws_its_capacity_fades_once(monkeypatch, capsys):
    # every power of the grid scales one draw's H^dag H
    from multiblock import ratecalc
    streams, real = [], ratecalc.philox
    monkeypatch.setattr(ratecalc, "philox",
                        lambda seed, *stream: streams.append(stream)
                        or real(seed, *stream))
    assert main(README_RATES.split()) == 0
    assert streams == [(0xE7,)]
    digest = dict((c, d) for d, c in _golden_commands())[README_RATES]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("rho, extra", [
    ("0.5", []), ("0.9", []), ("0.99", []), ("0.5", ["--samples", "3"])])
def test_gauss_markov_rates_print_the_iid_rows(capsys, rho, extra):
    # the capacity reads only the block marginal, which the chain keeps at
    # every rho: a Gauss-Markov line prints the i.i.d. line's data rows at
    # the same seed, and only its echoed configuration differs
    def data_rows(model):
        assert main(["rates", "--model", *model, "--n", "2", "--nr", "2",
                     "--snr-db", "10,20", "--cl", "4", "--seed", "3",
                     *extra]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return [ln for ln in out.splitlines() if not ln.startswith("#")]

    rows = data_rows(["gauss_markov", "--rho", rho])
    assert len(rows) == 3
    assert rows == data_rows(["iid_rayleigh"])


def test_constant_rates_need_no_second_sample(capsys):
    # a constant channel samples nothing: --samples 1 prints the exact rows
    # of --samples 2, standard error 0
    def data_rows(samples):
        assert main(["rates", "--model", "constant", "--n", "1", "--nr", "1",
                     "--snr-db", "10", "--cl", "1", "--samples",
                     samples]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return [ln for ln in out.splitlines() if not ln.startswith("#")]

    rows = data_rows("1")
    assert len(rows) == 2
    assert rows == data_rows("2")


def test_two_main_calls_build_one_parser(monkeypatch, capsys):
    from multiblock import cli
    built, init = [], cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *args, **kw:
                        built.append(kw.get("prog")) or init(self, *args, **kw))
    cli.build_parser.cache_clear()
    assert main(["chernoff", "--n", "1", "--nr", "1", "--delta", "0.5"]) == 0
    assert built.count("multiblock") == 1
    assert main(["chernoff", "--n", "2", "--nr", "2", "--delta", "0.1"]) == 0
    assert built.count("multiblock") == 1
    rows = [ln for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith(("#", "delta"))]
    assert [row.split(",")[0] for row in rows] == ["0.5", "0.1"]


def test_identical_config_identical_bytes(tmp_path):
    _, a = run_cli(["rates", "--n", "1", "--nr", "1", "--snr-db", "10,20",
                    "--cl", "46.184", "--samples", "4000", "--seed", "7"],
                   tmp_path, "a.csv")
    _, b = run_cli(["rates", "--n", "1", "--nr", "1", "--snr-db", "10,20",
                    "--cl", "46.184", "--samples", "4000", "--seed", "7"],
                   tmp_path, "b.csv")
    assert a == b and a


def test_simulate_noiseless_zero_wer(tmp_path):
    code, text = run_cli(["simulate", "--field", "q_i", "--model", "constant",
                          "--snr-db", "10", "--rate", "1", "--trials", "50",
                          "--seed", "3", "--decoder", "both", "--noiseless"],
                         tmp_path)
    assert code == 0
    rows = parse_csv(text)
    assert len(rows) == 2
    for row in rows:
        assert float(row["wer"]) == 0.0


def test_simulate_carve_failure_flagged(tmp_path):
    # rate 0 with a single bad shift: the row is flagged, not fatal
    code, text = run_cli(["simulate", "--field", "q_i", "--model", "constant",
                          "--snr-db", "0", "--rate", "0", "--trials", "10",
                          "--seed", "8", "--carve-trials", "1"], tmp_path)
    assert code == 0
    rows = parse_csv(text)
    assert rows[0]["flag"].startswith("carve_failed")


@pytest.mark.parametrize("extra", [
    ["--trials", "0", "--infinite"],
    ["--trials", "0"],
    ["--trials", "-3", "--infinite"],
    ["--trials", "5", "--carve-trials", "0"],
])
def test_simulate_rejects_count_below_one(tmp_path, capsys, extra):
    code, text = run_cli(["simulate", "--field", "q_i", "--snr-db", "10",
                          "--rate", "1", "--seed", "1"] + extra, tmp_path)
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be >= 1" in err
    assert len(err.splitlines()) == 1


def test_rates_low_power_rate_clipped(tmp_path):
    code, text = run_cli(["rates", "--n", "1", "--nr", "1", "--snr-db", "-10",
                          "--cl", "46.184", "--samples", "2000", "--seed", "1"],
                         tmp_path)
    assert code == 0
    row = parse_csv(text)[0]
    assert float(row["R_thm"]) == 0.0
    assert float(row["gap"]) == pytest.approx(float(row["C_est"]), rel=1e-12)


def test_simulate_fixed_h_file(tmp_path):
    hfile = tmp_path / "h.txt"
    hfile.write_text("0.5+0j\n")
    code, text = run_cli(["simulate", "--field", "q_i", "--model", "constant",
                          "--fixed-h-file", str(hfile), "--snr-db", "16",
                          "--rate", "1", "--trials", "20", "--seed", "3",
                          "--decoder", "lattice", "--infinite"], tmp_path)
    assert code == 0
    rows = parse_csv(text)
    assert rows[0]["decoder"] == "lattice"


@pytest.mark.parametrize("digest,command", [
    ("325e1a88c2a299b6389693510ac76c8a52ed215bb827c68bb87e3d4f12a9a591",
     "--snr-db 8,12,16 --rate 1 --decoder both"),
    ("eb4f0b84f14f4af36e3cddc7d3cb8de6e277169d9fbc4b4089ee21191c707641",
     "--snr-db 6,10,14 --rate 2 --decoder lattice --infinite"),
])
def test_sheared_fixed_h_digest(tmp_path, capsys, digest, command):
    # a sheared fade leaves the faded basis H (U B) far from reduced; the
    # digests, avg_nodes included, were recorded with a LatticeDecoder
    # (an LLL of alpha H B) per SNR point, so they pin that the constant
    # channel searches an LLL-reduced basis of its faded lattice
    hfile = tmp_path / "h.txt"
    hfile.write_text("1 50\n0 1\n")
    assert main(["simulate", "--algebra", "golden", "--model", "constant",
                 "--nr", "2", "--fixed-h-file", str(hfile), "--trials", "200",
                 "--seed", "5"] + command.split()) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


# The byte contract must not hang on the BLAS kernel or the SIMD width the
# host picks: each child reruns the pinned digests, the bit-for-bit checks
# of the list LLL, the field lattice, the roots and the basis values
# against their numpy oracles, and the check that a stack of preparations
# gives each SNR point the span coordinates of its own trials, with
# OpenBLAS forced to its old x86 Prescott kernel, or with numpy's AVX2 and
# AVX-512 loops switched off.  The variables are set only in the child, and
# each child first proves that its switch took effect.
_LLL_TESTS = os.path.join(os.path.dirname(__file__), "test_lll_properties.py")
_FIELD_TESTS = os.path.join(os.path.dirname(__file__), "test_numfield.py")
_SIM_TESTS = os.path.join(os.path.dirname(__file__), "test_sim.py")
_DIGEST_TESTS = [
    f"{__file__}::test_golden_command_digest",
    f"{__file__}::test_sheared_fixed_h_digest",
    f"{_LLL_TESTS}::test_lll_matches_numpy_oracle_on_catalog_lattices",
    f"{_LLL_TESTS}::test_lll_matches_numpy_oracle_on_random_bases",
    f"{_LLL_TESTS}::test_lll_matches_numpy_oracle_on_faded_golden",
    f"{_LLL_TESTS}::test_lll_matches_numpy_oracle_at_its_guards",
    f"{_FIELD_TESTS}::test_field_lattice_blocks_match_per_element_embedding_bit_for_bit",
    f"{_FIELD_TESTS}::test_roots_match_numpy_scalar_choice_bit_for_bit",
    f"{_FIELD_TESTS}::test_basis_values_match_fraction_horner_bit_for_bit",
    f"{_SIM_TESTS}::test_grid_search_decides_as_each_point_alone",
]
_PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", *_DIGEST_TESTS]
_RUN_DIGESTS = f"import sys, pytest\nsys.exit(pytest.main({_PYTEST_ARGS}))\n"
_X86 = platform.machine().lower() in {"x86_64", "amd64", "i386", "i686"}


def _openblas_core():
    """The core name OpenBLAS runs under in this process, read from the
    OpenBLAS library it maps (Linux only); None without one."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        for name in ("openblas_get_corename", "openblas_get_corename64_",
                     "scipy_openblas_get_corename64_"):
            try:
                corename = getattr(ctypes.CDLL(lib), name)
            except (OSError, AttributeError):
                continue
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _run_digests(env, check):
    proc = subprocess.run([sys.executable, "-c", check + _RUN_DIGESTS],
                          env=dict(os.environ, **env), cwd=REPO,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout and "failed" not in proc.stdout


def test_digests_hold_under_the_openblas_prescott_kernel():
    core = _openblas_core()
    if not _X86 or core is None:
        pytest.skip("needs an x86 OpenBLAS whose core name can be read")
    # the child's OpenBLAS must run another core than this process's
    check = ("import numpy\n" + inspect.getsource(_openblas_core)
             + f"assert _openblas_core() not in (None, {core!r})\n")
    _run_digests({"OPENBLAS_CORETYPE": "Prescott"}, check)


def test_digests_hold_without_avx2_and_avx512_loops():
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    if "X86_V3" not in umath.__cpu_features__:
        pytest.skip("this numpy names no X86_V3 dispatch target")
    check = ("from numpy._core._multiarray_umath import __cpu_features__\n"
             "assert __cpu_features__['X86_V3'] is False\n")
    _run_digests({"NPY_DISABLE_CPU_FEATURES":
                  "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}, check)


def test_catalog_verify_ok(tmp_path):
    code, text = run_cli(["catalog-verify", "--budget", "2000000"], tmp_path)
    assert code == 0
    assert "FAIL" not in text


def test_catalog_verify_divisibility_is_exact(tmp_path, monkeypatch):
    # zeta20's discriminant + 1 over disc(cyclo5)^4 = 125^4 is about 1.4e13,
    # where a double cannot hold the remainder 1/125^4: only an integer
    # test refuses it
    true_zdisc = NaturalOrder.z_discriminant
    monkeypatch.setattr(
        NaturalOrder, "z_discriminant",
        lambda self: (3429742096000000000001 if self.algebra.name == "zeta20"
                      else true_zdisc(self)))
    code, text = run_cli(["catalog-verify", "--budget", "2000000"], tmp_path)
    assert code == 2
    rows = text.splitlines()
    assert "zeta20,algebra,zdisc=3429742096000000000001,FAIL" in rows
    assert "golden,algebra,zdisc=160000,ok" in rows
    assert sum(row.endswith(",FAIL") for row in rows) == 1


@pytest.mark.parametrize("rate", ["100", "1e300"])
def test_carve_beyond_budget_exits_3_before_searching(capsys, rate):
    # 2^floor(R n k) codewords take more nodes than the default budget: no
    # shift is searched, and no huge power is formed
    assert main(CARVE_Q_I[:5] + ["--rate", rate, "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "numerical failure: ")


def test_simulate_carve_beyond_budget_flagged(tmp_path):
    code, text = run_cli(["simulate", "--field", "q_i", "--model",
                          "iid_rayleigh", "--nr", "1", "--snr-db", "10",
                          "--rate", "100", "--trials", "5", "--seed", "1"],
                         tmp_path)
    assert code == 0
    [row] = parse_csv(text)
    assert row["flag"] == "carve_budget_exceeded"


GOLDEN_GRID = ["simulate", "--algebra", "golden", "--model", "iid_rayleigh",
               "--nr", "2", "--snr-db", "8,12,16", "--rate", "1", "--trials",
               "20", "--seed", "7"]


def test_failed_carve_keeps_its_row_between_the_simulated_points(
        tmp_path, monkeypatch):
    # one shift search serves the grid, and each point's power filter is its
    # own: a point whose filter leaves too few codewords (here the middle
    # one, its alpha inflated so that few scaled points meet its power) is
    # flagged in SNR order, and the other points simulate as in a run where
    # every carve succeeds
    from multiblock import codebook
    code, text = run_cli(GOLDEN_GRID, tmp_path, "full.csv")
    assert code == 0
    full = parse_csv(text)
    scaling = codebook.scaling_alpha

    def inflated_in_the_middle(P, *args):
        return scaling(P, *args) * (2.0 if P == 10.0 ** 1.2 else 1.0)

    monkeypatch.setattr(codebook, "scaling_alpha", inflated_in_the_middle)
    code, text = run_cli(GOLDEN_GRID, tmp_path)
    assert code == 0
    rows = parse_csv(text)
    assert [(r["snr_db"], r["decoder"]) for r in rows] == [
        ("8", "ml"), ("8", "lattice"), ("12", "both"), ("16", "ml"),
        ("16", "lattice")]
    assert rows[2]["flag"] == "carve_failed:0"
    assert rows[2]["word_errors"] == rows[2]["wer"] == ""
    assert rows[:2] + rows[3:] == full[:2] + full[4:]


def test_grid_carve_searches_the_shifts_once(monkeypatch):
    # the scaled ball radius sqrt(P n k) / alpha depends on the rate alone,
    # so the three points share one search of --carve-trials (16) shifts
    # drawn from one stream
    from multiblock import codebook
    balls, streams = [], []
    count, philox = codebook.count_points_in_ball, codebook.philox
    monkeypatch.setattr(codebook, "count_points_in_ball",
                        lambda *args: balls.append(args) or count(*args))
    monkeypatch.setattr(codebook, "philox",
                        lambda seed, *stream: streams.append(stream)
                        or philox(seed, *stream))
    assert main(GOLDEN_GRID) == 0
    assert len(balls) == 16
    assert streams == [(0xCA,)]


def test_fading_grid_factors_each_chunk_once(monkeypatch, capsys):
    # the faded bases H_t (U B) do not depend on alpha, so one stacked QR
    # per search batch serves the uncertified trials of all three points:
    # in chunks and batches of 7 trials, ceil(12 / 7) = 2 stacks holding
    # the 12 trials that 8 dB searches (a point at a higher SNR searches a
    # subset of them), gathered across chunks, where one stack per chunk
    # held them in 3 and one per chunk and point 20 bases in 9
    from multiblock import lattice, sim
    stack, sizes = lattice.PreparedCVP.stack, []
    monkeypatch.setattr(lattice.PreparedCVP, "stack", classmethod(
        lambda cls, bases: sizes.append(len(bases)) or stack(bases)))
    assert main(GOLDEN_GRID) == 0
    whole = capsys.readouterr().out
    assert len(sizes) == 1 and sum(sizes) == 12
    sizes.clear()
    monkeypatch.setattr(sim, "_chunk_trials", lambda *args: 7)
    assert main(GOLDEN_GRID) == 0
    assert capsys.readouterr().out == whole
    assert sizes == [7, 5]


def test_every_carve_failing_runs_no_trial(tmp_path):
    # with no codebook there is no trial, so a singular fixed H is never
    # rank-checked: the run exits 0 with one flag row per point
    hfile = tmp_path / "h.txt"
    hfile.write_text("0\n")
    code, text = run_cli(["simulate", "--field", "q_i", "--model", "constant",
                          "--fixed-h-file", str(hfile), "--snr-db", "10,12",
                          "--rate", "30", "--trials", "5", "--seed", "1"],
                         tmp_path)
    assert code == 0
    rows = parse_csv(text)
    assert [(r["snr_db"], r["flag"]) for r in rows] == [
        ("10", "carve_budget_exceeded"), ("12", "carve_budget_exceeded")]


def test_a_carve_too_large_to_hold_is_refused_before_its_search(
        tmp_path, capsys, monkeypatch):
    # 2^floor(3 * 8) = 2^24 codewords of 8 * 16 + 16 * 8 = 256 bytes each is
    # 4 GiB, beyond CARVE_BYTES, though 24 bits is within the default node
    # budget: the carve refuses before it searches a ball
    from multiblock import codebook
    monkeypatch.setattr(codebook, "count_points_in_ball", None)
    code, text = run_cli(["simulate", "--field", "cyclo32", "--model",
                          "iid_rayleigh", "--snr-db", "0,30", "--rate", "3",
                          "--trials", "50", "--seed", "1"], tmp_path)
    assert code == 0
    assert [(r["snr_db"], r["flag"]) for r in parse_csv(text)] == [
        ("0", "carve_budget_exceeded"), ("30", "carve_budget_exceeded")]
    assert main(["carve", "--field", "cyclo32", "--snr-db", "0", "--rate",
                 "3", "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: rate 3.0 asks for") and (
        err.count("\n") == 1)


def test_budget_exhaustion_exits_3(tmp_path, capsys):
    code = main(["invariants", "--field", "cyclo5", "--budget", "3"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical failure" in err


def test_simulate_budget_hits_flagged_not_fatal(tmp_path):
    code, text = run_cli(["simulate", "--algebra", "golden", "--model",
                          "iid_rayleigh", "--nr", "2", "--snr-db", "12",
                          "--rate", "1", "--trials", "20", "--seed", "7",
                          "--decoder", "lattice", "--infinite",
                          "--budget", "5"], tmp_path)
    assert code == 0
    [row] = parse_csv(text)
    hits = int(row["flag"].removeprefix("budget_hits="))
    assert 0 < hits <= int(row["word_errors"])


@pytest.mark.parametrize("entry", [0.0, float("nan")])
def test_simulate_degenerate_fade_exits_3(tmp_path, capsys, monkeypatch,
                                          entry):
    # a hand-built fade (all zero, or not finite) among a run's i.i.d. fades
    # ends the run with exit 3, one line on stderr and no CSV
    from multiblock import channel
    fades_and_noise = channel.fades_and_noise

    def degenerate(*args):
        H, W = fades_and_noise(*args)
        H[len(H) // 2] = entry
        return H, W

    monkeypatch.setattr(channel, "fades_and_noise", degenerate)
    code, text = run_cli(["simulate", "--algebra", "golden", "--model",
                          "iid_rayleigh", "--nr", "2", "--snr-db", "12",
                          "--rate", "1", "--trials", "20", "--seed", "7",
                          "--decoder", "lattice", "--infinite"], tmp_path)
    out, err = capsys.readouterr()
    assert code == 3 and text == "" and out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def test_simulate_carve_budget_flagged_not_fatal(tmp_path):
    # the codebook path: the carve's ball searches run out of --budget
    code, text = run_cli(["simulate", "--algebra", "golden", "--model",
                          "iid_rayleigh", "--nr", "2", "--snr-db", "12",
                          "--rate", "1", "--trials", "20", "--seed", "7",
                          "--budget", "5"], tmp_path)
    assert code == 0
    [row] = parse_csv(text)
    assert row["flag"] == "carve_budget_exceeded"
    assert row["word_errors"] == row["wer"] == row["avg_nodes"] == ""


def test_catalog_env_override(tmp_path, monkeypatch):
    import shutil
    from importlib import resources
    for name in ("fields.txt", "algebras.txt"):
        src = resources.files("multiblock").joinpath("catalog", name)
        (tmp_path / name).write_text(src.read_text("utf-8"))
    monkeypatch.setenv("MULTIBLOCK_CATALOG", str(tmp_path))
    code, text = run_cli(["invariants", "--field", "q_omega"], tmp_path)
    assert code == 0
    assert parse_csv(text)[0]["name"] == "q_omega"


def test_console_entrypoint_help():
    proc = subprocess.run([sys.executable, "-m", "multiblock.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "invariants" in proc.stdout and "catalog-verify" in proc.stdout


QI_CONSTANT = ["simulate", "--field", "q_i", "--model", "constant",
               "--snr-db", "10", "--rate", "1", "--trials", "5", "--seed", "1",
               "--decoder", "lattice", "--infinite"]


def assert_one_line(err, prefix):
    assert err.startswith(prefix)
    assert len(err.splitlines()) == 1


def test_singular_fixed_h_exits_3(tmp_path, capsys):
    hfile = tmp_path / "h.txt"
    hfile.write_text("0\n")
    code = main(QI_CONSTANT + ["--fixed-h-file", str(hfile)])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "numerical failure: ")


def test_tiny_well_conditioned_fixed_h_is_full_rank(tmp_path):
    # the rank rule reads a fade's conditioning, not its scale: a 1 x 1
    # fade of 1e-13 has condition number 1.  At that gain every trial is a
    # word error, but the run completes
    hfile = tmp_path / "h.txt"
    hfile.write_text("1e-13\n")
    code, text = run_cli(QI_CONSTANT + ["--fixed-h-file", str(hfile)], tmp_path)
    assert code == 0
    [row] = parse_csv(text)
    assert (row["decoder"], row["trials"], row["word_errors"]) == ("lattice", "5", "5")


def test_failed_run_leaves_output_file_unchanged(tmp_path, capsys):
    hfile = tmp_path / "h.txt"
    hfile.write_text("0\n")
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier result\n")
    missing = tmp_path / "missing.csv"
    for path in (kept, missing):
        code = main(QI_CONSTANT + ["--fixed-h-file", str(hfile),
                                   "--output", str(path)])
        assert code == 3
    assert kept.read_text() == "earlier result\n"
    assert not missing.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 2


def test_linalg_error_exits_3(monkeypatch, capsys):
    # LinAlgError subclasses ValueError, which would otherwise exit 2
    import numpy as np
    from multiblock import sim

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(sim, "simulate_infinite_wer", fail)
    code = main(QI_CONSTANT)
    assert code == 3
    assert_one_line(capsys.readouterr().err, "numerical failure: SVD did not converge")


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: out of memory"),
    (MemoryError("Unable to allocate 8.00 GiB"),
     "error: Unable to allocate 8.00 GiB")])
def test_memory_error_exits_2_with_one_line(monkeypatch, capsys, exc, line):
    # a list that outgrows memory raises MemoryError with no text, which
    # still names its cause; numpy's names the array it could not allocate
    from multiblock import sim

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(sim, "simulate_infinite_wer", fail)
    code = main(QI_CONSTANT)
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == line + "\n"


@pytest.mark.parametrize("extra", [["--infinite"], []])
def test_lattice_decoding_needs_nr_at_least_n_before_any_trial(capsys, extra):
    # noiseless, every trial would pass the certificate: the antenna guard
    # comes first
    code = main(["simulate", "--algebra", "golden", "--model", "iid_rayleigh",
                 "--nr", "1", "--snr-db", "20", "--rate", "1", "--trials", "5",
                 "--seed", "1", "--decoder", "lattice", "--noiseless"] + extra)
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "error: lattice decoding requires n_r >= n")


def test_near_singular_fade_exits_3_even_when_certified(monkeypatch, capsys):
    # one trial's fade is numerically rank deficient; noiseless, its
    # received word is the sent one, yet the run must stop, not certify it
    from multiblock import channel
    fades_and_noise = channel.fades_and_noise

    def near_singular(model, k, seed, streams, noiseless):
        H, W = fades_and_noise(model, k, seed, streams, noiseless)
        for t in np.flatnonzero(np.all(streams == (3,), axis=1)):
            H[t, 0, :, 1] = H[t, 0, :, 0] * (1 + 1e-14)
        return H, W

    monkeypatch.setattr(channel, "fades_and_noise", near_singular)
    code = main(["simulate", "--algebra", "golden", "--model", "iid_rayleigh",
                 "--nr", "2", "--snr-db", "20", "--rate", "1", "--trials", "5",
                 "--seed", "1", "--decoder", "lattice", "--infinite",
                 "--noiseless"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "numerical failure: fading block numerically rank "
                         "deficient")


@pytest.mark.parametrize("content, needle", [
    ("1 0\n0 1\n", "(2, 2)"),
    ("1 0\n", "(1, 2)"),
    ("1 0\n1\n", "differ in length"),
    ("inf\n", "finite"),
    ("nan\n", "finite"),
])
def test_bad_fixed_h_exits_2_before_output(tmp_path, capsys, content, needle):
    hfile = tmp_path / "h.txt"
    hfile.write_text(content)
    code = main(QI_CONSTANT + ["--fixed-h-file", str(hfile)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "error: ")
    assert needle in err
    if needle.startswith("("):
        # a shape case: the message also names the shape the channel needs
        assert "needs (n_r, n) = (1, 1)" in err


@pytest.mark.parametrize("argv", [
    ["chernoff", "--n", "1", "--nr", "1", "--delta", "0.5"],
    QI_CONSTANT,
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    # the line names the path given, not a temporary file beside it, so it
    # is the same on every run
    path = str(tmp_path / "missing" / "x.csv")
    lines = []
    for _ in range(2):
        assert main(argv + ["--output", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_line(err, f"error: [Errno 2] No such file or directory: {path!r}")
        lines.append(err)
    assert lines[1] == lines[0]


def test_missing_fixed_h_file_exits_2(tmp_path, capsys):
    code = main(QI_CONSTANT + ["--fixed-h-file", str(tmp_path / "nope.txt")])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "error: ")


QI_IID = ["simulate", "--field", "q_i", "--model", "iid_rayleigh",
          "--snr-db", "10", "--rate", "1", "--trials", "5", "--seed", "1"]


@pytest.mark.parametrize("argv, needle", [
    (QI_IID + ["--fixed-h-file", "{h}"],
     "a fixed H applies only to the constant model, not iid_rayleigh"),
    (QI_IID + ["--rho", "0.5"],
     "rho applies only to the gauss_markov model, not iid_rayleigh"),
    (["rates", "--n", "1", "--nr", "1", "--model", "constant", "--rho", "0.3",
      "--snr-db", "10", "--cl", "46", "--samples", "100"],
     "rho applies only to the gauss_markov model, not constant"),
    # the infinite lattice has no codebook for ML to search
    (QI_CONSTANT[:-3] + ["--decoder", "ml", "--infinite"],
     "ML decoding needs a carved codebook, not --infinite"),
])
def test_unread_model_parameter_exits_2(tmp_path, capsys, argv, needle):
    # a model refuses a parameter its kind would not read, so no run
    # prints a configuration it ignored
    hfile = tmp_path / "h.txt"
    hfile.write_text("1\n")
    code = main([str(hfile) if a == "{h}" else a for a in argv])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "error: " + needle)


# the exit code of every exception class the package defines: 3 for a
# numerical failure, 2 for a configuration error
EXIT_CODES = {
    "PrecisionFailure": 3, "DegenerateLattice": 3, "SingularChannel": 3,
    "EmptyBall": 3, "BudgetExceeded": 3,
    "CatalogError": 2, "NotTotallyComplex": 2, "CatalogInconsistent": 2,
    "CarveFailed": 2, "DomainError": 2,
}


def test_every_package_error_has_its_exit_code(monkeypatch, capsys):
    # a class added to multiblock.errors without an exit code in main fails
    # here, instead of ending some command in a traceback
    from multiblock import errors, ratecalc
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and cls.__module__ == errors.__name__}
    assert sorted(classes) == sorted(EXIT_CODES)
    for name, cls in sorted(classes.items()):
        def fail(*args, cls=cls):
            raise cls("injected")
        monkeypatch.setattr(ratecalc, "chernoff", fail)
        code = main(["chernoff", "--n", "1", "--nr", "1", "--delta", "0.5"])
        out, err = capsys.readouterr()
        assert code == EXIT_CODES[name], name
        assert out == "", name
        prefix = "numerical failure: " if code == 3 else "error: "
        assert err == prefix + "injected\n", name


def test_carve_export_not_written_when_output_fails(tmp_path, capsys):
    export = tmp_path / "book.txt"
    code = main(["carve", "--field", "q_i", "--snr-db", "10", "--rate", "2",
                 "--trials", "16", "--seed", "1", "--export", str(export),
                 "--output", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    assert_one_line(capsys.readouterr().err, "error: ")
    assert not export.exists()


CARVE_Q_I = ["carve", "--field", "q_i", "--snr-db", "10", "--rate", "2",
             "--trials", "16", "--seed", "1"]


def test_carve_export_and_csv_commit_together(tmp_path):
    export, csv_path = tmp_path / "book.txt", tmp_path / "ok.csv"
    export.write_text("old export\n")
    os.chmod(export, 0o640)
    code = main(CARVE_Q_I + ["--export", str(export), "--output", str(csv_path)])
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, "carve_q_i_export.txt")) as fh:
        assert export.read_text() == fh.read()
    assert os.stat(export).st_mode & 0o777 == 0o640
    assert parse_csv(csv_path.read_text())[0]["codewords"] == "5"
    assert sorted(os.listdir(tmp_path)) == ["book.txt", "ok.csv"]


def test_carve_export_failure_leaves_csv_unwritten(tmp_path, capsys):
    export = str(tmp_path / "missing" / "E")
    fresh, kept = tmp_path / "ok.csv", tmp_path / "kept.csv"
    kept.write_text("earlier result\n")
    for path in (fresh, kept):
        code = main(CARVE_Q_I + ["--export", export, "--output", str(path)])
        assert code == 2
        assert_one_line(capsys.readouterr().err, "error: ")
    assert not fresh.exists()
    assert kept.read_text() == "earlier result\n"
    assert sorted(os.listdir(tmp_path)) == ["kept.csv"]
    # without --output the CSV would go to stdout: nothing reaches it
    assert main(CARVE_Q_I + ["--export", export]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "error: ")


def test_carve_refuses_one_file_for_the_csv_and_the_export(tmp_path, capsys,
                                                           monkeypatch):
    # the codebook text would replace the CSV: refused before any work,
    # whether the two paths are spelled alike, differ, or meet by a link
    from multiblock import cli
    monkeypatch.chdir(tmp_path)
    (tmp_path / "same.txt").write_text("earlier result\n")
    os.symlink("same.txt", "link.txt")
    loaded = []
    monkeypatch.setattr(cli, "load_catalog", lambda: loaded.append(1))
    for output, export in [("same.txt", "same.txt"),
                           ("same.txt", "./same.txt"),
                           ("link.txt", str(tmp_path / "same.txt"))]:
        assert main(CARVE_Q_I + ["--output", output, "--export", export]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_line(err, "error: --output and --export name one file")
    assert not loaded
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "same.txt"]
    assert (tmp_path / "same.txt").read_text() == "earlier result\n"


@pytest.mark.parametrize("target", ["/dev/full", "directory"])
def test_in_place_output_failing_leaves_export_unwritten(tmp_path, capsys,
                                                         target):
    # a device or directory target is written in place before any staged
    # file is renamed into place: when that write fails, no export changes
    if target == "directory":
        target = str(tmp_path)
    elif not os.path.exists(target):
        pytest.skip(f"{target} is absent")
    exports = tmp_path / "exports"
    exports.mkdir()
    fresh, kept = exports / "fresh.txt", exports / "kept.txt"
    kept.write_text("old export\n")
    for export in (fresh, kept):
        assert main(CARVE_Q_I + ["--export", str(export), "--output", target]) == 2
        assert_one_line(capsys.readouterr().err, "error: ")
    assert os.listdir(exports) == ["kept.txt"]
    assert kept.read_text() == "old export\n"


def test_second_file_failing_keeps_both_targets(tmp_path, monkeypatch, capsys):
    # the CSV's temporary file is written, the export's fails: neither
    # target changes and no temporary file is left
    import multiblock.cli as cli
    export, kept = tmp_path / "book.txt", tmp_path / "kept.csv"
    export.write_text("old export\n")
    kept.write_text("earlier result\n")
    real_fdopen = os.fdopen
    opened = []

    def fdopen(*args, **kwargs):
        opened.append(args[0])
        if len(opened) == 2:
            os.close(args[0])
            raise OSError(28, "No space left on device")
        return real_fdopen(*args, **kwargs)

    monkeypatch.setattr(cli.os, "fdopen", fdopen)
    code = main(CARVE_Q_I + ["--export", str(export), "--output", str(kept)])
    assert code == 2
    assert_one_line(capsys.readouterr().err, "error: ")
    assert len(opened) == 2
    assert export.read_text() == "old export\n"
    assert kept.read_text() == "earlier result\n"
    assert sorted(os.listdir(tmp_path)) == ["book.txt", "kept.csv"]


@pytest.mark.parametrize("argv", [
    CARVE_Q_I[:5] + ["--rate", "-5", "--seed", "1"],
    CARVE_Q_I[:5] + ["--rate", "inf", "--seed", "1"],
    ["simulate", "--field", "q_i", "--snr-db", "10", "--rate", "-5",
     "--trials", "5", "--seed", "1"],
    ["simulate", "--field", "q_i", "--snr-db", "10", "--rate", "-5",
     "--trials", "5", "--seed", "1", "--infinite"],
    ["simulate", "--field", "q_i", "--snr-db", "10", "--rate", "nan",
     "--trials", "5", "--seed", "1", "--infinite"],
    ["chernoff", "--n", "1", "--nr", "1", "--delta", "nan"],
    ["chernoff", "--n", "1", "--nr", "1", "--delta", "0.5,nan"],
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "10", "--cl", "46",
     "--delta", "nan"],
    # a Chernoff delta, which needs nr >= n and i.i.d. Rayleigh blocks
    ["rates", "--n", "2", "--nr", "1", "--snr-db", "10", "--cl", "4",
     "--delta", "0.3"],
    ["rates", "--model", "constant", "--n", "1", "--nr", "1", "--snr-db",
     "10", "--cl", "1", "--delta", "0.3"],
    ["rates", "--model", "gauss_markov", "--rho", "0.9", "--n", "1", "--nr",
     "1", "--snr-db", "10", "--cl", "1", "--delta", "0.3"],
    # a Chernoff delta below the solver's resolution
    ["chernoff", "--n", "1", "--nr", "1", "--delta", "1e-8"],
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "10", "--cl", "46",
     "--samples", "0"],
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "10", "--cl", "46",
     "--samples", "1"],
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "nan", "--cl", "46",
     "--samples", "100"],
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "inf", "--cl", "46",
     "--samples", "100"],
    ["carve", "--field", "q_i", "--snr-db", "nan", "--rate", "1", "--seed", "1"],
    ["carve", "--field", "q_i", "--snr-db", "inf", "--rate", "1", "--seed", "1"],
    ["simulate", "--field", "q_i", "--snr-db", "nan", "--rate", "1",
     "--trials", "5", "--seed", "1", "--infinite"],
    ["simulate", "--field", "q_i", "--snr-db", "10,inf", "--rate", "1",
     "--trials", "5", "--seed", "1", "--infinite"],
    ["simulate", "--field", "q_i", "--model", "iid_rayleigh", "--nr", "0",
     "--snr-db", "10", "--rate", "1", "--trials", "5", "--seed", "1",
     "--decoder", "ml"],
    ["simulate", "--field", "q_i", "--model", "iid_rayleigh", "--nr", "-1",
     "--snr-db", "10", "--rate", "1", "--trials", "5", "--seed", "1",
     "--decoder", "ml"],
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "10", "--cl", "nan",
     "--samples", "100"],
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "10", "--cl", "inf",
     "--samples", "100"],
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "10", "--cl", "0",
     "--samples", "100"],
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "10", "--cl", "-1",
     "--samples", "100"],
    ["simulate", "--field", "q_i", "--model", "constant", "--nr", "-1",
     "--snr-db", "10", "--rate", "1", "--trials", "5", "--seed", "1"],
    ["rates", "--model", "constant", "--n", "1", "--nr", "-1", "--snr-db",
     "10", "--cl", "46"],
    ["rates", "--model", "constant", "--n", "-1", "--nr", "1", "--snr-db",
     "10", "--cl", "46"],
    # exactly one lattice: one of --field/--algebra (invariants: or --all)
    CARVE_Q_I + ["--algebra", "golden"],
    ["simulate", "--snr-db", "10", "--rate", "1", "--trials", "5", "--seed",
     "1", "--infinite"],
    ["simulate", "--field", "q_i", "--algebra", "golden", "--snr-db", "10",
     "--rate", "1", "--trials", "5", "--seed", "1", "--infinite"],
    ["invariants"],
    ["invariants", "--field", "q_i", "--all"],
    ["invariants", "--field", "q_i", "--algebra", "golden"],
    # a search budget below one node
    ["invariants", "--field", "q_i", "--budget", "0"],
    CARVE_Q_I + ["--budget", "-1"],
    ["simulate", "--field", "q_i", "--snr-db", "10", "--rate", "1",
     "--trials", "5", "--seed", "1", "--budget", "0", "--infinite"],
    ["catalog-verify", "--budget", "0"],
    # a ball radius that is not finite and positive
    ["invariants", "--field", "q_i", "--radius", "-2"],
    ["invariants", "--field", "q_i", "--radius", "0"],
    ["invariants", "--field", "q_i", "--radius", "nan"],
    ["invariants", "--all", "--radius", "inf"],
    # a seed outside [0, 2^64), which the Philox key would alias
    ["simulate", "--field", "q_i", "--model", "iid_rayleigh", "--snr-db",
     "10", "--rate", "1", "--trials", "5", "--seed", "-1"],
    ["simulate", "--field", "q_i", "--model", "iid_rayleigh", "--snr-db",
     "10", "--rate", "1", "--trials", "5", "--seed", str(2 ** 64)],
    CARVE_Q_I[:-2] + ["--seed", "-1"],
    CARVE_Q_I[:-2] + ["--seed", str(2 ** 64)],
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "10", "--cl", "46",
     "--seed", "-1"],
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "10", "--cl", "46",
     "--seed", str(2 ** 64)],
    # an SNR whose power 10^(dB/10) overflows a double
    ["rates", "--n", "1", "--nr", "1", "--snr-db", "4000", "--cl", "1"],
    ["simulate", "--field", "q_i", "--snr-db", "10,4000", "--rate", "1",
     "--trials", "5", "--seed", "1"],
    CARVE_Q_I[:3] + ["--snr-db", "4000"] + CARVE_Q_I[5:],
    # a scaling alpha that overflows or underflows a double
    ["carve", "--field", "q_i", "--snr-db", "3080", "--rate", "0",
     "--trials", "1", "--seed", "1"],
    ["simulate", "--field", "q_i", "--snr-db", "3080", "--rate", "0",
     "--trials", "1", "--seed", "1", "--infinite"],
    ["simulate", "--field", "q_i", "--model", "constant", "--snr-db", "10",
     "--rate", "1e308", "--trials", "5", "--seed", "1", "--decoder",
     "lattice", "--infinite"],
    # a codeword energy P n k that overflows a double, though P does not:
    # the search ball's radius would be inf
    ["carve", "--algebra", "golden", "--snr-db", "3080", "--rate", "0.5",
     "--seed", "1"],
    ["simulate", "--algebra", "golden", "--model", "iid_rayleigh", "--nr",
     "2", "--snr-db", "10,3080", "--rate", "1", "--trials", "5", "--seed",
     "1"],
    # a standard error needs two fades, whatever the sampled law
    ["rates", "--model", "gauss_markov", "--rho", "0.5", "--n", "1", "--nr",
     "1", "--snr-db", "10", "--cl", "4", "--samples", "1"],
    # more fades than any address space holds: refused at allocation
    ["rates", "--n", "2", "--nr", "2", "--snr-db", "10", "--cl", "4",
     "--samples", str(10 ** 17)],
    ["rates", "--model", "gauss_markov", "--rho", "0.7", "--n", "2", "--nr",
     "2", "--snr-db", "10", "--cl", "4", "--samples", str(10 ** 17)],
])
def test_out_of_range_value_exits_2(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "error: ")


EXTREME_SNR = {
    # a far-below-noise point whose W / alpha overflows t.t on the lattice
    # path, and a far-above-noise one whose far ML metrics overflow
    "--field q_i --model constant --snr-db=-3200,10 --rate 1 --trials 50 "
    "--seed 1 --decoder lattice --infinite":
        "c4bd338f2c8414443853c95a53c3c2a3b85b17260a75212e8096dd1171f4e37d",
    "--field q_i --model constant --snr-db 10,3080 --rate 1 --trials 5 "
    "--seed 1":
        "5e4bd940937927eb34d61809a33bb69493a97971518cb5e6549d5b9706db3ee7",
    # far-below-noise points whose squares are finite but whose ||y||^2
    # overflows: the search threshold is inf, as when a square overflows,
    # on the infinite, codebook and fading algebra paths
    "--field q_i --model constant --snr-db=-3082 --rate 1 --trials 50 "
    "--seed 1 --decoder lattice --infinite":
        "0fc6a6c46ff33a1497f1e609b968aed30e0cc98877c448e02fe9877e0b357364",
    "--field q_i --model constant --snr-db=-3090 --rate 0 --trials 50 "
    "--seed 1 --decoder lattice":
        "c3de579cc319bfcb435bb7214e6bed518c8bf539c1d85eeecc2bcd08a72d8e94",
    "--algebra golden --model gauss_markov --rho 0.5 --nr 3 --snr-db=-3082 "
    "--rate 1 --trials 50 --seed 1 --decoder lattice --infinite":
        "67ac9859c1e2f45d2b15e5008d53b3b924e95c2f8be3e991c93d29c3ab7ca307",
    # far above noise at n k = 2, where the certificate's bound overflows
    "--algebra golden --model iid_rayleigh --nr 2 --snr-db 10,3080 --rate 1 "
    "--trials 5 --seed 1 --decoder lattice --infinite":
        "c41812bd3f03b87c165e84c245b68e23b941d8892b7d47dc9b083a57006153d1",
}


@pytest.mark.parametrize("args", EXTREME_SNR)
def test_extreme_snr_runs_warn_nothing(args):
    # a run that exits 0 prints nothing on stderr, numpy warnings included
    proc = subprocess.run([sys.executable, "-m", "multiblock.cli", "simulate"]
                          + args.split(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == EXTREME_SNR[args]


def test_non_finite_capacity_exits_3(capsys):
    # at 3080 dB, P |h|^2 overflows for some fades: the estimate is inf and
    # its standard error nan, which no CSV row may carry
    assert main(["rates", "--n", "1", "--nr", "1", "--snr-db", "3080",
                 "--cl", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "numerical failure: capacity estimate")


@pytest.mark.parametrize("args", [
    "--n 2 --nr 2 --snr-db 3080 --cl 4",
    # n_r < n: the 2 x 2 Gram H H^dag, whose elimination overflows too
    "--n 3 --nr 2 --snr-db 3080 --cl 4",
])
def test_capacity_elimination_failure_exits_3_without_a_warning(capsys, args):
    # the elimination's overflow, invalid and zero-pivot steps are refused
    # as one line; a numpy warning would be an error under this suite's
    # filter
    assert main(["rates"] + args.split()) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "numerical failure: capacity estimate")


def test_capacity_with_fewer_receive_antennas_holds_at_160_db(capsys):
    # n_r = 1 < n = 2: the estimate reads the 1 x 1 Gram |h|^2, not the
    # rank-one 2 x 2 H^dag H, whose elimination cancels to a zero pivot.
    # At P = 1e16, C = E log2(1 + (P/2) |h|^2) = log2(P/2) + psi(2)/ln 2 up
    # to 1e-15, |h|^2 being Gamma(2, 1) and psi(2) = 1 - Euler's gamma
    assert main(["rates", "--n", "2", "--nr", "1", "--snr-db", "160",
                 "--cl", "4"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    row = parse_csv(out)[0]
    exact = math.log2(1e16 / 2) + (1 - 0.5772156649015329) / math.log(2)
    assert exact == pytest.approx(52.760798, abs=1e-6)
    assert abs(float(row["C_est"]) - exact) <= 4 * float(row["C_stderr"])


def test_output_write_failing_partway_keeps_old_file(tmp_path, monkeypatch,
                                                     capsys):
    import multiblock.cli as cli
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier result\n")
    real_fdopen = os.fdopen

    class DiskFull:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def fileno(self):
            return self.fh.fileno()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "fdopen",
                        lambda *a, **kw: DiskFull(real_fdopen(*a, **kw)))
    code = main(["chernoff", "--n", "1", "--nr", "1", "--delta", "0.5",
                 "--output", str(kept)])
    assert code == 2
    assert_one_line(capsys.readouterr().err, "error: ")
    assert kept.read_text() == "earlier result\n"
    assert sorted(os.listdir(tmp_path)) == ["kept.csv"]


def test_output_file_mode_matches_plain_open(tmp_path):
    plain = tmp_path / "plain.csv"
    with open(plain, "w"):
        pass
    fresh = tmp_path / "fresh.csv"
    code = main(["chernoff", "--n", "1", "--nr", "1", "--delta", "0.5",
                 "--output", str(fresh)])
    assert code == 0
    assert os.stat(fresh).st_mode == os.stat(plain).st_mode
    os.chmod(fresh, 0o640)
    assert main(["chernoff", "--n", "1", "--nr", "1", "--delta", "1.0",
                 "--output", str(fresh)]) == 0
    assert os.stat(fresh).st_mode & 0o777 == 0o640
    assert "1," in fresh.read_text().splitlines()[-1]


def test_output_through_symlink_or_fifo_keeps_the_path(tmp_path):
    # like open(path, "w"): a symlink is followed, a FIFO is written in place
    import stat
    import threading
    argv = ["chernoff", "--n", "1", "--nr", "1", "--delta", "0.5", "--output"]
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink() and real.read_text().startswith("# delta")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    assert main(argv + [str(fifo)]) == 0
    reader.join(timeout=10)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert got == [real.read_text()]
