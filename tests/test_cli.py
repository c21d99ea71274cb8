import argparse
import importlib.util
import json
import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import selberg_delange
from selberg_delange import cli, euler, exact, sieve, stats
from selberg_delange.cli import main
from selberg_delange.funcs import parse_additive, parse_multiplicative, theta_omega

SAMPLE_ARGS = ["sample", "--spec", "unit", "--x", "10", "--seed", "7", "--count", "5"]
SAMPLE_GOLDEN = "9\n3\n5\n5\n1\n"
SMALL_REPORT_ARGS = [
    "report", "--spec", "unit", "--g", "omega", "--x-grid", "1e3,1e4", "--z-grid", "circle:4",
    "--y-grid", "0,1", "--cutoff", "2000",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_command(argv):
    """(record, text) of the command argv names, as main receives them."""
    args = cli.build_parser().parse_args(argv)
    args.alpha = parse_multiplicative(args.spec)
    args.additive = parse_additive(args.g) if "g" in args else None
    return args.func(args)


# ---------------------------------------------------------------------------
# golden outputs (byte-exact, 15 significant digits)


def test_lambda0_golden(capsys):
    # the completed product: 6/pi^2 = 0.6079271018540266... (mpmath) is
    # within its tail_estimate, which bounds the series truncation of the
    # whole head, tol = 1e-14, and the rounding
    code, out, _ = run_cli(capsys, ["lambda0", "--spec", "theta_omega:2"])
    assert code == 0
    assert out == (
        "lambda0 = 0.607927101854027\n"
        "tail_estimate = 1.87217185311953e-13\n"
        "prime_cutoff = 1000000\n"
        "k_cutoff = 64\n"
    )


def test_perturbed_keeps_the_plain_product(capsys):
    # perturbed declares no local series, so its lambda0 and psi print the
    # bits of the plain product over p <= 2000; only tail_estimate gains
    # the head term
    _, out, _ = run_cli(capsys, ["lambda0", "--spec", "perturbed:a=1,eps=0.5", "--cutoff", "2000"])
    assert out.splitlines()[0] == "lambda0 = 1.93807758704323"
    assert out.splitlines()[1] == "tail_estimate = 0.0118204848404157"
    _, out, _ = run_cli(capsys, ["psi", "--spec", "perturbed:a=1,eps=0.5", "--z", "0.5", "--cutoff", "2000"])
    assert out == "psi = 1.06500991931636\n"


def test_psi_golden(capsys):
    code, out, _ = run_cli(capsys, ["psi", "--spec", "unit", "--z", "0"])
    assert code == 0
    assert out == "psi = 1\n"


def test_mgf_golden(capsys):
    code, out, _ = run_cli(
        capsys, ["mgf", "--spec", "unit", "--g", "omega", "--x", "10", "--y", "2"]
    )
    assert code == 0
    assert out == "mgf = 2.3\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["psi", "--spec", "unit", "--z", "0.3+0.4j", "--cutoff", "2000"],
         (0, "psi = 1.23195806420886-0.162588471700832j\n", "")),
        (["mgf", "--spec", "theta_omega:2", "--x", "1000", "--y", "0.5+0.5j"],
         (0, "mgf = -0.0898335672749148+0.352717064367355j\n", "")),
        (["lambda0", "--spec", "cplx", "--cutoff", "2000"],
         (0, "lambda0 = 7.41050111866589+4.25427512249569j\ntail_estimate = 1.20444282510255e-13\n"
          "prime_cutoff = 2000\nk_cutoff = 56\n", "")),
        # the exact tables take real values only
        (["sum", "--spec", "cplx", "--x-grid", "10,100,1e4"],
         (2, "", "error: theta_omega:0.5+1.5j: tables require real values, got (0.5+1.5j) at (2,1)\n")),
    ],
    ids=["psi", "mgf", "lambda0", "sum-grid"],
)
def test_complex_text_goldens(capsys, monkeypatch, argv, want):
    # complex values print as re+imj in a key = value line; the spec
    # grammar takes real parameters only, so "cplx" stands for
    # theta_omega(0.5+1.5j) here
    parse = cli.parse_multiplicative
    monkeypatch.setattr(cli, "parse_multiplicative", lambda text: theta_omega(0.5 + 1.5j) if text == "cplx" else parse(text))
    assert run_cli(capsys, argv) == want


def test_pmf_golden_csv(capsys):
    code, out, _ = run_cli(capsys, ["pmf", "--spec", "unit", "--g", "omega", "--x", "10"])
    assert code == 0
    assert out == "value,probability\n0,0.1\n1,0.7\n2,0.2\n"


def test_sample_golden(capsys):
    code, out, _ = run_cli(capsys, SAMPLE_ARGS)
    assert code == 0
    assert out == SAMPLE_GOLDEN


def test_sample_draws_written_in_chunks(capsys, monkeypatch):
    # the draws are formatted and written a chunk at a time; the bytes
    # on stdout are those of one write
    monkeypatch.setattr(cli, "_DRAWS_PER_WRITE", 2)
    assert run_cli(capsys, SAMPLE_ARGS) == (0, SAMPLE_GOLDEN, "")


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 100000])
def test_sample_bytes_are_those_of_one_join(capsys, count):
    # each chunk is formatted by one %-format; the bytes are those of a
    # join of the draws' str over all of them
    code, out, _ = run_cli(capsys, ["sample", "--x", "1000", "--count", str(count)])
    draws = exact.sample(parse_multiplicative("unit"), 1000, 0, count).tolist()
    assert (code, out) == (0, "\n".join(map(str, draws)) + "\n")


def test_sum_golden_single_and_grid(capsys):
    code, out, _ = run_cli(capsys, ["sum", "--spec", "theta_omega:2", "--x", "10"])
    assert code == 0
    assert out == "sum = 23\n"
    code, out, _ = run_cli(capsys, ["sum", "--spec", "unit", "--x-grid", "10,100"])
    assert code == 0
    assert out == "x,sum_re,sum_im\n10,10,0\n100,100,0\n"


CHECK_WITNESS_REASON = "growth ratio r = 1.9 >= 2^(1-c0): the bound at p = 2 does not decay"
CHECK_UNIT_REASON = "|f(p)| -> 1 > 0 and c0 < 1/2: sum_p p^(-2(1-c0)) converges"


def test_check_golden(capsys):
    code, out, _ = run_cli(capsys, ["check", "--spec", "geometric_B:1.9,c0=0.1"])
    assert code == 0
    assert out == (
        "verdict = inconsistent\n"
        "c0 = 0.1\n"
        "witness = 2\n"
        "abscissa_estimate = 1\n"
        f"reason = {CHECK_WITNESS_REASON}\n"
    )


def test_check_golden_consistent(capsys):
    assert run_cli(capsys, ["check", "--spec", "unit"]) == (
        0,
        "verdict = consistent\n"
        "c0 = 0.25\n"
        "witness = none\n"
        "abscissa_estimate = 1\n"
        f"reason = {CHECK_UNIT_REASON}\n",
        "",
    )


def test_check_keeps_its_verdict_when_the_evidence_overflows(capsys):
    # at c0 = 0.4 the inner series at p = 2 needs 1.5^k past k = 1751, which
    # overflows a float; the verdict and its reason read the spec alone
    code, out, err = run_cli(capsys, ["check", "--spec", "geometric_B:1.5,c0=0.4", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"c0": 0.4, "verdict": "consistent", "witness": None, "abscissa_estimate": 1.0,
                               "reason": "|f(p)| -> 1.5 > 0 and c0 < 1/2: sum_p p^(-2(1-c0)) converges"}


CLT_ARGS = ["clt", "--spec", "unit", "--x", "1000", "--y-grid", "0,1"]
LDP_ARGS = ["ldp", "--spec", "unit", "--x", "1000", "--cutoff", "2000"]
LDP_GRID_ARGS = ["ldp", "--spec", "unit", "--x-grid", "100,1000", "--cutoff", "2000"]


@pytest.mark.parametrize(
    "argv, golden",
    [
        (CLT_ARGS, "# x=1000 kolmogorov_distance=0.325321272365513\n"
                   "y,exact,gaussian\n0,0.806,0.5\n1,0.023,0.158655253931457\n"),
        (LDP_ARGS, "s = 2\nh = 0.693147180559945\nrate = 0.386294361119891\n"
                   "predicted_tail = 0.576302325875934\nexact_tail = 0.023\nratio = 0.0399096081471505\n"),
        (LDP_GRID_ARGS, "x,exact_tail,predicted_tail,ratio\n100,0,0.674021007756365,0\n"
                        "1000,0.023,0.576302325875934,0.0399096081471505\n"),
    ],
    ids=["clt", "ldp", "ldp-grid"],
)
def test_csv_goldens(capsys, argv, golden):
    # the default format and an explicit --format csv print the same bytes
    assert run_cli(capsys, argv) == (0, golden, "")
    assert run_cli(capsys, argv + ["--format", "csv"]) == (0, golden, "")


def _ldp_record(predicted_tail, exact_tail, ratio):
    return {"s": 2.0, "h": 0.6931471805599453, "rate": 0.3862943611198906,
            "predicted_tail": predicted_tail, "exact_tail": exact_tail, "ratio": ratio}


# byte-exact: each record's repr-exact floats and key order, as json.dumps(indent=2) prints them
@pytest.mark.parametrize(
    "argv, golden",
    [
        (["lambda0", "--spec", "theta_omega:2", "--cutoff", "2000"],
         {"lambda0_re": 0.6079271018540261, "lambda0_im": 0.0, "tail_estimate": 1.4625615077852213e-13,
          "prime_cutoff": 2000, "k_cutoff": 56}),
        (["psi", "--spec", "theta_omega:2", "--z", "0.5", "--cutoff", "2000"],
         {"z_re": 0.5, "z_im": 0.0, "psi_re": 0.13621721259412628, "psi_im": 0.0}),
        (["mgf", "--spec", "unit", "--g", "omega", "--x", "10", "--y", "2"],
         {"x": 10, "y_re": 2.0, "y_im": 0.0, "mgf_re": 2.3, "mgf_im": 0.0}),
        (["check", "--spec", "geometric_B:1.9,c0=0.1"],
         {"c0": 0.1, "verdict": "inconsistent", "witness": 2, "abscissa_estimate": 1.0,
          "reason": CHECK_WITNESS_REASON}),
        (["check", "--spec", "unit"],
         {"c0": 0.25, "verdict": "consistent", "witness": None, "abscissa_estimate": 1.0,
          "reason": CHECK_UNIT_REASON}),
        (["pmf", "--spec", "unit", "--g", "omega", "--x", "10"],
         {"x": 10, "pmf": {"0": 0.1, "1": 0.7, "2": 0.2}, "mean": 1.1, "variance": 0.29000000000000004}),
        (["sum", "--spec", "theta_omega:2", "--x", "10"], {"x": 10, "sum_re": 23.0, "sum_im": 0.0}),
        (["sum", "--spec", "unit", "--x-grid", "10,100"],
         {"rows": [{"x": 10, "sum_re": 10.0, "sum_im": 0.0}, {"x": 100, "sum_re": 100.0, "sum_im": 0.0}]}),
        (CLT_ARGS, {"x": 1000, "kolmogorov_distance": 0.3253212723655125,
                    "tail_pairs": [[0.0, 0.806, 0.5], [1.0, 0.023, 0.15865525393145707]]}),
        (LDP_ARGS, _ldp_record(0.5763023258759344, 0.023, 0.03990960814715054)),
        (LDP_GRID_ARGS, {"rows": [dict(_ldp_record(0.6740210077563652, 0.0, 0.0), x=100),
                                  dict(_ldp_record(0.5763023258759344, 0.023, 0.03990960814715054), x=1000)]}),
        (SAMPLE_ARGS, {"x": 10, "seed": 7, "stream": 0, "draws": [9, 3, 5, 5, 1]}),
    ],
    ids=["lambda0", "psi", "mgf", "check", "check-unit", "pmf", "sum", "sum-grid", "clt", "ldp", "ldp-grid", "sample"],
)
def test_json_goldens(capsys, argv, golden):
    assert run_cli(capsys, argv + ["--format", "json"]) == (0, json.dumps(golden, indent=2) + "\n", "")


def test_small_report_golden(capsys):
    golden = (Path(__file__).parent / "report_golden.json").read_text(encoding="utf-8")
    assert run_cli(capsys, SMALL_REPORT_ARGS) == (0, golden, "")
    assert run_cli(capsys, SMALL_REPORT_ARGS + ["--format", "json"]) == (0, golden, "")


BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["euler", "tables"])
def test_report_config_matches_the_bench_golden(workload, monkeypatch):
    # bench/checks.py compares the config of each quick report with its
    # golden output, so a changed printed default (tol, say) would fail
    # every bench run; the invocation is read from bench/run.py, which
    # this test only reads
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # run.py imports checks
    loader = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
    run = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, "bench_run", run)
    loader.loader.exec_module(run)
    [report] = [inv for inv in run.WORKLOADS[workload].quick if inv.kind == "report"]
    record, _ = run_command(list(report.args))
    golden = json.loads((BENCH_DIR / "golden" / "quick" / f"{workload}.0.out").read_text(encoding="utf-8"))
    assert record["config"] == golden["config"]


def test_commands_return_record_and_text_and_write_nothing(capsys):
    # every command hands its rendering to main, which alone writes
    argvs = [
        ["lambda0", "--cutoff", "100"], ["psi", "--cutoff", "100"], ["sum", "--x", "10"],
        ["mgf", "--x", "10", "--y", "2"], ["pmf", "--x", "10"], SAMPLE_ARGS, CLT_ARGS,
        LDP_ARGS, ["check"], SMALL_REPORT_ARGS,
    ]
    assert sorted(argv[0] for argv in argvs) == sorted(name for name, *_ in cli._COMMANDS)
    for argv in argvs:
        record, text = run_command(argv)
        assert capsys.readouterr() == ("", "")
        if argv[0] in cli._JSON_ONLY:
            assert text is None
        elif argv[0] == "sample":
            # the draws' list is built only when the record is asked for
            assert callable(record) and record()["draws"] == [9, 3, 5, 5, 1]
            assert "".join(text) == SAMPLE_GOLDEN
        else:
            assert isinstance(record, dict) and isinstance(text, str)


def test_repeat_runs_are_byte_identical(capsys):
    argv = ["psi", "--spec", "theta_omega:2", "--z", "0.5", "--cutoff", "2000"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    assert first.startswith("psi = ")


# ---------------------------------------------------------------------------
# the two writers and the records


def test_csv_writer_pmf():
    dist = exact.pmf(parse_multiplicative("unit"), parse_additive("omega"), 10)
    pairs = zip(dist.values.tolist(), dist.probabilities.tolist())
    assert cli._csv("value,probability", pairs) == "value,probability\n0,0.1\n1,0.7\n2,0.2\n"


def test_csv_writer_sums():
    rows = [(10, complex(23.0, 0.0)), (100, complex(1.5, -2.25))]
    want = "x,sum_re,sum_im\n10,23,0\n100,1.5,-2.25\n"
    assert cli._csv("x,sum_re,sum_im", ((x, v.real, v.imag) for x, v in rows)) == want


def test_csv_writer_tail_pairs():
    pairs = [(0.0, 0.5, 0.5), (1.0, 0.125, 0.158655253931457)]
    assert cli._csv("y,exact,gaussian", pairs) == "y,exact,gaussian\n0,0.5,0.5\n1,0.125,0.158655253931457\n"


def test_lines_writer():
    text = cli._lines(verdict="consistent", witness=None, k_cutoff=48, c0=0.25, value=complex(1.5, -2.25), psi=1 + 0j)
    assert text == "verdict = consistent\nwitness = none\nk_cutoff = 48\nc0 = 0.25\nvalue = 1.5-2.25j\npsi = 1\n"


def test_pmf_record():
    record, _ = run_command(["pmf", "--spec", "unit", "--g", "omega", "--x", "10"])
    assert record["pmf"] == pytest.approx({"0": 0.1, "1": 0.7, "2": 0.2})


def test_clt_record():
    record, _ = run_command(["clt", "--spec", "unit", "--x", "1000", "--y-grid", "0,1"])
    assert set(record) == {"x", "kolmogorov_distance", "tail_pairs"}
    assert record["x"] == 10**3
    assert len(record["tail_pairs"]) == 2
    assert record["tail_pairs"][0][0] == 0.0


def test_ldp_record():
    record, _ = run_command(["ldp", "--spec", "unit", "--x", "1e4", "--s", "2"])
    assert set(record) == {"s", "h", "rate", "predicted_tail", "exact_tail", "ratio"}
    assert record["s"] == 2.0


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_bad_spec(capsys):
    code, out, err = run_cli(capsys, ["lambda0", "--spec", "nope"])
    assert code == 2
    assert out == ""
    assert "unknown spec name" in err


def test_exit_code_numeric_failure(capsys):
    # f(2) = -4 puts the local factor at p = 2 on the log branch cut
    code, _, err = run_cli(capsys, ["lambda0", "--spec", "tabulated:2^1=-4"])
    assert code == 3
    assert err == "numeric error: local factor 1 + F_p(1) = -0.5 hits the log branch cut at p=2\n"


def test_exit_code_strip_violation(capsys):
    code, _, err = run_cli(
        capsys,
        ["ldp", "--spec", "unit", "--g", "big_omega", "--x", "1000", "--s", "1.5"],
    )
    assert code == 2
    assert "need 1 <= s < 1.41421" in err


def test_exit_code_missing_x(capsys):
    code, _, err = run_cli(capsys, ["mgf", "--spec", "unit", "--g", "omega", "--y", "2"])
    assert code == 2
    assert "--x" in err


def test_exit_code_report_rejects_csv(capsys):
    code, _, err = run_cli(capsys, ["report", "--spec", "unit", "--format", "csv"])
    assert code == 2
    assert "json" in err


def test_report_csv_fails_before_any_table(work_counts, capsys):
    argv = ["report", "--x-grid", "1000,3000", "--cutoff", "2000", "--format", "csv"]
    assert run_cli(capsys, argv) == (2, "", "error: report emits json only; use --format json\n")
    assert work_counts == Counter()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sum", "--spec", "theta_omega:1,", "--x", "10"], "error: bad spec 'theta_omega:1,' at column 15: empty parameter"),
        (["sum", "--spec", "tabulated:1^1=2", "--x", "10"],
         "error: bad spec 'tabulated:1^1=2' at column 1: table key (1,1) is not a (prime, k>=1) pair"),
        (["lambda0", "--spec", "tabulated:9223372036854775837^1=2"],
         "error: bad spec 'tabulated:9223372036854775837^1=2' at column 1: table entry 9223372036854775837^1: "
         "tabled primes must lie below 2^53"),
        (["pmf", "--g", "table:{table}", "--x", "10"], "error: {table}:1: expected 'p k value', got '2 x 1'"),
        (["psi", "--z", "abc"], "sd psi: error: argument --z: expected a number like 0.3 or 0.1+0.2j, got 'abc'"),
        (["report", "--z-grid", "circle:0"], "sd report: error: argument --z-grid: circle:N needs N >= 1"),
        (["sample", "--x", "10", "--count", "0"], "error: --count must be >= 1, got 0"),
        (["report", "--x-grid", "10"], "error: report x grid needs x >= 16, got 10"),
        (["sum", "--x", "0"], "error: --x must be >= 1, got 0"),
        (["sum", "--x", "1e3", "--x-grid", "1e4"], "error: give --x or --x-grid, not both"),
        (["ldp", "--x", "1e3", "--x-grid", "1e4"], "error: give --x or --x-grid, not both"),
    ],
    ids=["empty-parameter", "non-prime-key", "huge-prime-key", "table-row", "psi-z", "circle-0", "count-0", "report-x-grid", "sum-x-0",
         "sum-x-and-x-grid", "ldp-x-and-x-grid"],
)
def test_guards_exit_two(tmp_path, capsys, argv, message):
    table = tmp_path / "g.txt"
    table.write_text("2 x 1\n")
    argv = [arg.format(table=table) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    assert code == 2
    assert [line for line in capsys.readouterr().err.splitlines() if "error" in line] == [message.format(table=table)]


def test_a_spec_value_beyond_float_range_names_the_spec_and_prime_power(capsys):
    # geometric_B's coefficient 1.99**k overflows at k = 1032 of p = 2
    argv = ["lambda0", "--spec", "geometric_B:1.99", "--cutoff", "100"]
    assert run_cli(capsys, argv) == (3, "", "numeric error: geometric_B:1.99: value at (2,1032) overflows float64\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["psi", "--z", "nan+1j"], "--z", "nan+1j"),
        (["mgf", "--x", "10", "--y", "1+infj"], "--y", "1+infj"),
        (["report", "--z-grid", "1,inf"], "--z-grid", "inf"),
    ],
    ids=["psi-z", "mgf-y", "report-z-grid"],
)
def test_non_finite_complex_flags_exit_two(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    # argparse's usage block, then one error line
    assert [line for line in err.splitlines() if "error" in line] == [
        f"sd {argv[0]}: error: argument {flag}: expected a finite number like 0.3 or 0.1+0.2j, got {value!r}"
    ]
    assert "Warning" not in err and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rho_overflowing_the_mean_scale_exits_two(capsys):
    # rho is the spec's: theta for theta_omega
    code, out, err = run_cli(capsys, ["clt", "--spec", "theta_omega:1e308", "--x", "1000"])
    assert (code, out) == (2, "")
    assert err == "error: tail comparisons need a real rho with rho ln ln x finite, got rho = 1e+308 at x = 1000\n"


@pytest.mark.parametrize(
    "rho, overflows",
    [("200", "Gamma(rho)"), ("1e+150", "Gamma(rho)"), ("1e+200", "Gamma(rho)"), ("1e+308", "the log product")],
)
def test_a_product_out_of_float_range_names_rho_and_what_overflowed(capsys, rho, overflows):
    # Gamma(rho) overflows past rho = 171.62.  log(1 + F_2) stays finite
    # where |1 + F_2|^2 overflows (past about 1e154), so at 1e+200 it is
    # still Gamma; at 1e+308 the terms rho log(1 - 1/p) are finite, but
    # their sum is not
    message = f"{overflows} of theta_omega:{rho} overflows float64, with rho = {rho}"
    for command in ("lambda0", "psi"):
        argv = [command, "--spec", f"theta_omega:{rho}", "--cutoff", "1000"]
        assert run_cli(capsys, argv) == (3, "", f"numeric error: {message}\n")


def test_a_table_value_whose_square_overflows_keeps_a_finite_log(capsys):
    # 1 + F_2 = 1 + 1e200/2 + 1/4 + 1/8 + ... and every other factor is 1,
    # so lambda0 = (1 - 1/2)(1 + F_2) = 2.5e199 + 0.75; |1 + F_2|^2
    # overflowed, and this exited 3 with "the log product overflows"
    code, out, err = run_cli(capsys, ["lambda0", "--spec", "tabulated:default=1,2^1=1e200", "--cutoff", "1000"])
    assert (code, err) == (0, "")
    assert out.startswith("lambda0 = ")
    assert float(out.splitlines()[0].split(" = ")[1]) == pytest.approx(2.5e199 + 0.75, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", ["200", "1000", "1e300"])
def test_ldp_slope_underflowing_the_prediction_exits_two(capsys, s):
    # exp(-ln ln 1000 eta*(s)) is 0 in float64: rejected before any product
    code, out, err = run_cli(capsys, ["ldp", "--x", "1000", "--cutoff", "100", "--s", s])
    assert (code, out) == (2, "")
    assert err == f"error: s = {float(s):g} underflows exp(-rho ln ln x eta*(s)) to 0 at x = 1000\n"
    # at s = 100 the factor is still a normal float
    code, out, _ = run_cli(capsys, ["ldp", "--x", "1000", "--cutoff", "100", "--s", "100"])
    assert code == 0 and "predicted_tail = 0\n" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ldp_slope_overflowing_gamma_exits_two(capsys):
    # at x = 16 the factor exp(-ln ln x eta*(s)) is still positive past
    # s = 171.624, where Gamma(s) of the omega twist in psi(ln s) overflows
    for s in ("175", "171.82"):
        code, out, err = run_cli(capsys, ["ldp", "--x", "16", "--cutoff", "100", "--s", s])
        assert (code, out) == (2, "")
        assert err == (f"error: s = {s} overflows Gamma(rho s^c) in psi(ln s), with c = 1 for omega; "
                       "need s < 171.624\n")
    # just below the limit the printed values are what they were
    code, out, _ = run_cli(capsys, ["ldp", "--x", "16", "--cutoff", "100", "--s", "170"])
    assert (code, out) == (
        0, "s = 170\nh = 5.13579843705026\nrate = 704.085734298545\npredicted_tail = 0\nexact_tail = 0\nratio = inf\n"
    )
    assert run_cli(capsys, ["ldp", "--x", "16", "--cutoff", "100", "--s", "171.62"])[0] == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--x", "1000", "--s", "inf"], "s = inf puts ln s = inf outside the strip of omega; need 1 <= s < 105.19"),
        (["--x", "16", "--s", "inf"], "s = inf puts ln s = inf outside the strip of omega; need 1 <= s < 171.624"),
        (["--x", "10000", "--g", "big_omega", "--s", "1.5"],
         "s = 1.5 puts ln s = 0.405465 outside the strip of big_omega; need 1 <= s < 1.41421"),
    ],
    ids=["underflow-limit", "overflow-limit", "strip-limit"],
)
def test_ldp_strip_message_states_the_usable_range(capsys, argv, message):
    # the upper end is the least of the strip's, the underflow limit at
    # this x and the Gamma overflow limit
    code, out, err = run_cli(capsys, ["ldp", "--cutoff", "100"] + argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_ldp_usable_range_ends_where_the_message_says(capsys):
    # 105.19 is the underflow limit at x = 1000
    assert run_cli(capsys, ["ldp", "--x", "1000", "--cutoff", "100", "--s", "105.19"])[0] == 0
    code, _, err = run_cli(capsys, ["ldp", "--x", "1000", "--cutoff", "100", "--s", "105.2"])
    assert code == 2 and "underflows" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ldp", "--s", "1", "--x-grid", "1e4,1e5", "--cutoff", "1000"],
        ["report", "--s", "1", "--x-grid", "1e3,1e4", "--cutoff", "1000", "--z-grid", "circle:2"],
    ],
    ids=["ldp", "report"],
)
def test_s_one_warning_is_logged_once_per_command(capsys, caplog, argv):
    for _ in range(2):  # and again for the next command
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="selberg_delange.stats"):
            assert run_cli(capsys, argv)[0] == 0
        assert [record.message.startswith("s = 1:") for record in caplog.records] == [True]


def test_ldp_with_a_nonpositive_rho_exits_two(capsys):
    code, out, err = run_cli(capsys, ["ldp", "--spec", "theta_omega:0", "--x", "1000"])
    assert (code, out) == (2, "")
    assert err == "error: tail comparisons need rho > 0, got rho = 0.0 at x = 1000\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["clt", "ldp"])
@pytest.mark.parametrize(
    "spec, message",
    [
        ("theta_omega:-1", "tail comparisons need rho > 0, got rho = -1.0 at x = 1000"),
        ("theta_omega:1e308", "tail comparisons need a real rho with rho ln ln x finite, got rho = 1e+308 at x = 1000"),
    ],
    ids=["negative-rho", "overflowing-scale"],
)
def test_tail_comparisons_check_the_mean_scale_before_the_distribution(capsys, command, spec, message):
    # the distribution would fail too (a negative weight, an overflowing
    # total); clt and ldp name the mean scale alike
    assert run_cli(capsys, [command, "--spec", spec, "--x", "1000"]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["clt", "--spec", "theta_omega:-1", "--x", "1e7"], "tail comparisons need rho > 0, got rho = -1.0 at x = 10000000"),
        (["clt", "--x", "10"], "x must be >= 16 so ln ln x >= 1, got 10"),
        (["ldp", "--spec", "theta_omega:-1", "--x-grid", "1e6,1e7", "--s", "1.5"],
         "tail comparisons need rho > 0, got rho = -1.0 at x = 1000000"),
        (["ldp", "--x-grid", "1e3,1e7", "--s", "200"], "s = 200 underflows exp(-rho ln ln x eta*(s)) to 0 at x = 1000"),
        (["ldp", "--g", "big_omega", "--x-grid", "1e3,1e7", "--s", "1.5"],
         "s = 1.5 puts ln s = 0.405465 outside the strip of big_omega; need 1 <= s < 1.41421"),
        (["ldp", "--x", "1e7", "--s", "0.5"], "ldp compares the upper tail and needs s >= 1, got 0.5"),
    ],
    ids=["clt-rho", "clt-small-x", "ldp-rho", "ldp-underflow", "ldp-strip", "ldp-lower-tail"],
)
def test_tail_checks_come_before_the_table_pass(monkeypatch, capsys, argv, message):
    # clt and ldp fail in start-up time, with the messages clt_report and
    # ldp_predict give, before any value table is built
    def no_tables(*args):
        raise AssertionError("a value table was built")

    for name in ("__init__", "__iter__"):
        monkeypatch.setattr(exact._ValueBlocks, name, no_tables)
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("s", ["0.5", "0.999", "0", "-1"])
def test_ldp_rejects_a_lower_tail_slope_before_any_product(monkeypatch, capsys, s):
    # psi(ln s)/(1 - 1/s) is the upper tail's prefactor: at s = 0.5 it
    # printed predicted_tail = -0.413678169390149
    def no_product(*args):
        raise AssertionError("an Euler product was computed")

    for name in ("_local_factors", "_factors_at_one"):
        monkeypatch.setattr(euler, name, no_product)
    argv = ["ldp", "--x", "1e6", "--s", s, "--cutoff", "1000"]
    message = f"ldp compares the upper tail and needs s >= 1, got {float(s):g}"
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


def test_report_computes_every_clt_row_before_the_ldp_rows(capsys):
    # alpha(1009) = -500 fails the distribution at x = 1e4 only, and puts a
    # negative local factor in the twist y = s = 3 of ldp's prefactor
    # psi(ln 3), which passes ldp's checks made before any work: the clt
    # row at 1e4 comes first, and without it ldp's row fails
    argv = ["report", "--spec", "tabulated:1009^1=-500", "--cutoff", "2000", "--s", "3", "--z-grid", "0"]
    assert run_cli(capsys, argv + ["--x-grid", "1e3,1e4"]) == (
        2, "", "error: tabulated: negative weight alpha(1009) = -500\n")
    code, _, err = run_cli(capsys, argv + ["--x-grid", "1e3"])
    assert (code, err) == (3, "numeric error: local factor 1 + F_p(1) = -0.486617 hits the log branch cut at p=1009\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "spec, column, message",
    [
        ("tau_rho:nan", 9, "tau_rho needs a finite rho, got nan"),
        ("tau_rho:inf", 9, "tau_rho needs a finite rho, got inf"),
        ("tau_rho:1e4", 9, "tau_rho: rho = 10000 overflows C(rho+k-1, k) at k = 135"),
        # a tabulated spec's rho is its default, which must be finite like its entries
        ("tabulated:default=nan", 1, "default = nan is not finite"),
        ("tabulated:default=inf", 1, "default = inf is not finite"),
        ("theta_omega:inf", 13, "growth constant C must be finite and >= 0, got inf"),
    ],
    ids=["tau_rho-nan", "tau_rho-inf", "tau_rho-1e4", "tabulated-rho-nan", "tabulated-rho-inf", "theta_omega-inf"],
)
def test_non_finite_or_overflowing_spec_parameters_exit_two(capsys, spec, column, message):
    code, out, err = run_cli(capsys, ["lambda0", "--spec", spec, "--cutoff", "100"])
    assert (code, out) == (2, "")
    assert err == f"error: bad spec {spec!r} at column {column}: {message}\n"


@pytest.mark.parametrize(
    "spec, key",
    [
        ("tabulated:rho=1", "rho"),
        ("tabulated:C=1", "C"),
        ("tabulated:r=1", "r"),
        ("tabulated:C=-1,r=1", "C"),
        # an envelope below f(2^k) = 5 would cut the series at p = 2 too early
        ("tabulated:2^1=5,2^2=5,2^3=5,2^4=5,2^5=5,C=1e-3,r=0.01", "C"),
    ],
    ids=["rho", "C", "r", "C-r", "C-r-too-small"],
)
def test_deleted_tabulated_keys_exit_two(capsys, spec, key):
    # a tabulated spec's rho and growth envelope are read off its values
    code, out, err = run_cli(capsys, ["lambda0", "--spec", spec, "--cutoff", "1000"])
    assert (code, out) == (2, "")
    assert err == f"error: bad spec {spec!r} at column 1: unexpected key {key!r} for tabulated\n"


def test_exit_code_x_beyond_memory(capsys):
    # checked before anything is allocated
    for argv in (["pmf", "--spec", "unit", "--x", "1e13"], ["lambda0", "--cutoff", "1e13"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "GiB of physical memory" in err


def test_x_one_is_the_empty_product(capsys):
    assert run_cli(capsys, ["sum", "--spec", "unit", "--x", "1"]) == (0, "sum = 1\n", "")
    assert run_cli(capsys, ["pmf", "--spec", "unit", "--x", "1"]) == (0, "value,probability\n0,1\n", "")
    assert run_cli(capsys, ["sample", "--spec", "unit", "--x", "1", "--count", "3"]) == (0, "1\n1\n1\n", "")


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_psi_with_one_row_additive_table(tmp_path, capsys):
    # g = 1 at p = 2 only: psi(ln 2) = 1 + 1/4, where the table used to
    # be refused for varying at primes
    table = tmp_path / "g.txt"
    table.write_text("2 1 1\n")
    argv = ["psi", "--spec", "unit", "--g", f"table:{table}", "--z", "0.6931471805599453",
            "--cutoff", "10000"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out.startswith("psi = ")
    assert float(out.split("=")[1]) == pytest.approx(1.25, abs=1e-9)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--spec", "tabulated:2^1=nan"],
         "bad spec 'tabulated:2^1=nan' at column 1: table entry 2^1 = nan is not finite"),
        (["lambda0", "--spec", "tabulated:3^2=-inf", "--cutoff", "100"],
         "bad spec 'tabulated:3^2=-inf' at column 1: table entry 3^2 = -inf is not finite"),
        (["ldp", "--g", "table:{table}", "--x", "100", "--cutoff", "100"], "{table}:2: value inf is not finite"),
        (["mgf", "--g", "table:{table}", "--x", "100", "--y", "2"], "{table}:2: value inf is not finite"),
    ],
    ids=["check-entry", "lambda0-entry", "ldp-table-row", "mgf-table-row"],
)
def test_non_finite_table_values_exit_two(tmp_path, capsys, argv, message):
    # refused where the table is read, not met later as a verdict, a kernel
    # error or a failed int conversion
    table = tmp_path / "g.txt"
    table.write_text("2 1 1\n3 1 inf\n")
    argv = [arg.format(table=table) for arg in argv]
    assert run_cli(capsys, argv) == (2, "", f"error: {message.format(table=table)}\n")


def test_a_repeated_table_row_exits_two(tmp_path, capsys):
    # the last of two rows for one (p, k) used to win silently
    table = tmp_path / "g.txt"
    table.write_text("2 1 0.5\n3 1 1.5\n2 1 0.7\n")
    argv = ["mgf", "--spec", "unit", "--g", f"table:{table}", "--x", "100", "--y", "2"]
    assert run_cli(capsys, argv) == (2, "", f"error: {table}:3: repeats the row for p = 2, k = 1 of line 1\n")


def fractional_run(capsys, tmp_path, command, *args):
    """sd <command> of unit weights with g = 0.5 at 2 || n, plus 1.5 at 3 || n."""
    table = tmp_path / "g.txt"
    table.write_text("2 1 0.5\n3 1 1.5\n", encoding="utf-8")
    return run_cli(capsys, [command, "--spec", "unit", "--g", f"table:{table}", *args]), f"table:{table}"


@pytest.mark.parametrize(
    "argv, want",
    [
        # n <= 100: 5 with 6 || n and not 9 | n, 20 more with n = 2 mod 4, 17 more with 3 || n
        (["pmf", "--x", "100"], (0, "value,probability\n0,0.58\n0.5,0.2\n1.5,0.17\n2,0.05\n", "")),
        (["clt", "--x", "1000", "--y-grid", "0,1"],
         (0, "# x=1000 kolmogorov_distance=0.626620393989616\ny,exact,gaussian\n0,0.055,0.5\n1,0,0.158655253931457\n",
          "")),
        (["mgf", "--x", "1000", "--y", "2"], (0, "mgf = 1.55111897449537\n", "")),
        (["mgf", "--x", "1000", "--y", "-2"],
         (2, "", "error: y = (-2+0j) is on the branch cut for non-integer additive values\n")),
    ],
    ids=["pmf", "clt", "mgf", "mgf-branch-cut"],
)
def test_fractional_table_goldens(tmp_path, capsys, argv, want):
    assert fractional_run(capsys, tmp_path, *argv)[0] == want


def test_fractional_table_report_golden(tmp_path, capsys):
    # a table's generic prime value is 0, so its residual is its mgf
    # against psi, which falls tenfold per decade of x
    (code, out, err), g = fractional_run(capsys, tmp_path, "report", "--x-grid", "1e3,1e4", "--z-grid", "0.5",
                                         "--y-grid", "0,1", "--cutoff", "1000")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc.pop("config")["g"] == g
    ldp = {"s": 2.0, "h": 0.6931471805599453, "rate": 0.3862943611198906, "exact_tail": 0.0, "ratio": 0.0}
    assert doc == {
        "lambda0": {"value_re": 0.9999999999999983, "value_im": 0.0, "tail_estimate": 7.556149060448636e-14,
                    "prime_cutoff": 1000, "k_cutoff": 54},
        "psi_grid": [{"z_re": 0.5, "z_im": 0.0, "psi_re": 1.336853935372455, "psi_im": 0.0}],
        "residual_table": [{"x": 1000, "max_abs_residual": 0.00042447577878124143},
                           {"x": 10000, "max_abs_residual": 4.244757787930098e-05}],
        "clt": [{"x": 1000, "kolmogorov_distance": 0.6266203939896158,
                 "tail_pairs": [[0.0, 0.055, 0.5], [1.0, 0.0, 0.15865525393145707]]},
                {"x": 10000, "kolmogorov_distance": 0.6536570471050656,
                 "tail_pairs": [[0.0, 0.0, 0.5], [1.0, 0.0, 0.15865525393145707]]}],
        "ldp": [dict(ldp, predicted_tail=1.4712127715342154, x=1000),
                dict(ldp, predicted_tail=1.3164742139204564, x=10000)],
    }


# ---------------------------------------------------------------------------
# output formats


def test_pmf_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["pmf", "--spec", "unit", "--g", "omega", "--x", "10", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == 10
    assert doc["pmf"] == {"0": 0.1, "1": 0.7, "2": 0.2}
    assert doc["mean"] == pytest.approx(1.1)


def test_report_schema(capsys):
    argv = [
        "report", "--spec", "unit", "--g", "omega",
        "--x-grid", "1000,10000", "--z-grid", "circle:4",
        "--cutoff", "2000", "--y-grid", "0,1", "--s", "2",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["clt", "config", "lambda0", "ldp", "psi_grid", "residual_table"]
    assert doc["config"]["spec"] == "unit"
    assert doc["config"]["x_grid"] == [1000, 10000]
    assert len(doc["config"]["z_grid"]) == 4
    assert len(doc["psi_grid"]) == 4
    assert set(doc["psi_grid"][0]) == {"z_re", "z_im", "psi_re", "psi_im"}
    assert [row["x"] for row in doc["residual_table"]] == [1000, 10000]
    assert all(row["max_abs_residual"] > 0 for row in doc["residual_table"])
    assert [row["x"] for row in doc["clt"]] == [1000, 10000]
    assert set(doc["ldp"][0]) == {"s", "h", "rate", "predicted_tail", "exact_tail", "ratio", "x"}
    assert doc["lambda0"]["value_re"] == pytest.approx(1.0, abs=1e-3)
    assert doc["lambda0"]["value_im"] == 0.0
    assert doc["lambda0"]["prime_cutoff"] == 2000


# ---------------------------------------------------------------------------
# no files, no cache options


def test_cli_writes_no_files(tmp_path):
    src = Path(selberg_delange.__file__).resolve().parents[1]
    env = dict(os.environ, HOME=str(tmp_path), PYTHONPATH=str(src))
    for argv in (
        ["sum", "--spec", "unit", "--x", "1000"],
        ["pmf", "--spec", "unit", "--x", "1000"],
        ["report", "--x-grid", "1000,3000", "--cutoff", "2000", "--z-grid", "circle:4"],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "selberg_delange.cli"] + argv,
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []


def test_no_cache_flag(capsys):
    # the sieve cache and its options are gone, so argparse rejects them
    for extra in (["--no-cache"], ["--cache-dir", "somewhere"]):
        with pytest.raises(SystemExit) as exc_info:
            main(["sum", "--spec", "unit", "--x", "10"] + extra)
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["pmf", "--x", "10", "--cutoff", "1000"],
        ["sample", "--x", "10", "--g", "big_omega"],
        ["sum", "--x", "10", "--tol", "1e-12"],
        ["lambda0", "--g", "table:missing"],
        ["check", "--cutoff", "1000"],
        ["ldp", "--x", "1000", "--no-s1-substitution"],
    ],
    ids=["pmf-cutoff", "sample-g", "sum-tol", "lambda0-g", "check-cutoff", "ldp-no-s1"],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["lambda0", "--tol", "1e-12"], "--tol"),
        (["clt", "--x", "100", "--rho", "1"], "--rho"),
        (["check", "--c0", "0.2"], "--c0"),
        (["report", "--x", "1000"], "--x"),
        (["lambda0", "--spec", "theta_omega:2", "--tol", "nan"], "--tol"),
        (["psi", "--spec", "theta_omega:2", "--tol", "nan"], "--tol"),
        (["check", "--spec", "theta_omega:2", "--tol", "nan"], "--tol"),
        (["clt", "--x", "100", "--rho", "inf"], "--rho"),
        (["report", "--x-grid", "100,1000", "--rho", "inf", "--cutoff", "100"], "--rho"),
        (["ldp", "--x", "1000", "--rho", "inf", "--s", "2"], "--rho"),
        (["clt", "--x", "100", "--rho", "nan"], "--rho"),
        (["ldp", "--x", "1000", "--rho", "nan", "--s", "2"], "--rho"),
        (["report", "--x-g", "1000"], "--x-g"),
        (["report", "--seed", "1"], "--seed"),
        (["pmf", "--x", "10", "--output", "out.csv"], "--output"),
    ],
    ids=["lambda0-tol-1e-12", "clt-rho-1", "check-c0", "report-x", "lambda0-tol", "psi-tol", "check-tol",
         "clt-rho-inf", "report-rho-inf", "ldp-rho-inf", "clt-rho-nan", "ldp-rho-nan", "report-x-g", "report-seed",
         "pmf-output"],
)
def test_deleted_flags_exit_two(capsys, argv, flag):
    # the tolerance is a constant, rho and c0 come from the spec, report
    # reads --x-grid only and draws nothing; flags are spelled in full, so
    # none of these reaches a command as another flag
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    value = argv[argv.index(flag) + 1]
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        f"sd: error: unrecognized arguments: {flag} {value}"
    ]


# every flag slot each command registers, --spec and --format included
COMMAND_FLAGS = {
    "lambda0": ["--spec", "--cutoff", "--format"],
    "psi": ["--spec", "--g", "--cutoff", "--z", "--format"],
    "sum": ["--spec", "--x", "--x-grid", "--format"],
    "mgf": ["--spec", "--g", "--x", "--y", "--z", "--format"],
    "pmf": ["--spec", "--g", "--x", "--format"],
    "sample": ["--spec", "--x", "--seed", "--stream", "--count", "--format"],
    "clt": ["--spec", "--g", "--x", "--y-grid", "--format"],
    "ldp": ["--spec", "--g", "--cutoff", "--x", "--x-grid", "--s", "--format"],
    "check": ["--spec", "--format"],
    "report": ["--spec", "--g", "--cutoff", "--x-grid", "--z-grid", "--s", "--y-grid", "--format"],
}


def test_each_command_registers_exactly_its_flags():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    registered = {
        name: [opt for a in parser._actions if not isinstance(a, argparse._HelpAction) for opt in a.option_strings]
        for name, parser in sub.choices.items()
    }
    assert registered == COMMAND_FLAGS
    assert sum(map(len, COMMAND_FLAGS.values())) == 50


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["clt", "--x", "100", "--y-grid", ""], "y"),
        (["report", "--z-grid", ""], "z"),
    ],
    ids=["clt-y-grid", "report-z-grid"],
)
def test_empty_grid_exits_two(capsys, argv, flag):
    # as an empty --x-grid does
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert f"empty {flag} grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "--x", "1e400"],
        ["lambda0", "--cutoff", "1e400"],
        ["sample", "--x", "100", "--count", "1e400"],
        ["sum", "--x-grid", "1e3,1e400"],
    ],
    ids=["sum-x", "lambda0-cutoff", "sample-count", "sum-x-grid"],
)
def test_overflowing_integer_flags_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "expected an integer, got '1e400'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_y_grid_exits_two(capsys, value):
    with pytest.raises(SystemExit) as exc_info:
        main(["clt", "--x", "100", "--y-grid", f"0,{value}"])
    assert exc_info.value.code == 2
    assert f"expected a finite number, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("stream", ["-1", str(2**64)])
def test_sample_stream_out_of_range_exits_two(capsys, stream):
    code, out, err = run_cli(capsys, ["sample", "--x", "100", "--count", "3", "--stream", stream])
    assert (code, out) == (2, "")
    assert err == f"error: stream must lie in [0, 2**64), got {stream}\n"


def test_sample_count_beyond_memory_exits_two(capsys, monkeypatch):
    # 24 bytes a draw: 10**5 draws need 2.4 MB, more than the 1 MiB here;
    # the guard acts before anything is drawn
    monkeypatch.setattr(sieve, "_physical_memory", lambda: 2**20)
    code, out, err = run_cli(capsys, ["sample", "--x", "100", "--count", "100000"])
    assert (code, out) == (2, "")
    assert err.startswith("error: 100000 draws: need about")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "selberg_delange.cli"] + SAMPLE_ARGS,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout == SAMPLE_GOLDEN


def test_s_one_note_is_one_stderr_line_in_a_process():
    # the CLI configures no logging: logging's last-resort handler writes
    # the s = 1 note as its bare message, the one line on stderr
    result = subprocess.run(
        [sys.executable, "-m", "selberg_delange.cli", "ldp", "--x", "1000", "--s", "1", "--cutoff", "1000"],
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.startswith(b"s = 1\n")
    assert result.stderr == b"s = 1: replacing the divergent prefactor psi(0)/(1 - 1/s) by psi'(0)\n"


# ---------------------------------------------------------------------------
# work counts: each command streams its value tables in as few passes as
# it needs


@pytest.fixture
def work_counts(monkeypatch):
    counts = Counter()
    one_pass = exact._ValueBlocks.__iter__

    def counted_pass(self):
        counts["passes"] += 1
        return one_pass(self)

    monkeypatch.setattr(exact._ValueBlocks, "__iter__", counted_pass)
    return counts


@pytest.mark.parametrize(
    "argv, passes",
    [
        (["mgf", "--spec", "theta_omega:2", "--x", "1000", "--y", "0.5+0.5j"], 1),
        (["mgf", "--spec", "theta_omega:2", "--x", "1000", "--z", "0.3"], 1),
        (["pmf", "--spec", "geometric_B:1.5", "--g", "big_omega", "--x", "1000"], 1),
        (["report", "--x-grid", "1000,3000,20000", "--cutoff", "2000", "--z-grid", "circle:4"], 1),
        (["sample", "--spec", "geometric_B:1.5", "--x", "1000", "--count", "50"], 2),
        (["sum", "--spec", "theta_omega:2", "--x-grid", "10,1000,70000"], 1),
        (["ldp", "--spec", "unit", "--x-grid", "100,1000", "--cutoff", "2000"], 1),
    ],
    ids=["mgf-y", "mgf-z", "pmf", "report", "sample", "sum-grid", "ldp-grid"],
)
def test_each_command_builds_its_tables_once(work_counts, capsys, argv, passes):
    code, _, err = run_cli(capsys, argv)
    assert code == 0, err
    assert work_counts == Counter(passes=passes)


def test_mgf_zero_normalizing_sum_exits_two(capsys):
    code, out, err = run_cli(
        capsys, ["mgf", "--spec", "tabulated:2^1=-1", "--x", "2", "--y", "2"]
    )
    assert code == 2
    assert out == ""
    assert "zero normalizing sum on [1, 2]" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--y", "1e200"], "--y = 1e+200: e^z or E[y^g(N)] overflows float64"),
        (["--z", "700"], "--z = 700: e^z or E[y^g(N)] overflows float64"),
        (["--z", "1000"], "--z = 1000: e^z or E[y^g(N)] overflows float64"),
        (["--z", "-1000"], "--z = -1000: e^z underflows float64 to 0"),
    ],
    ids=["y-1e200", "z-700", "z-1000", "z-minus-1000"],
)
def test_mgf_out_of_float_range_exits_two(capsys, argv, message):
    # the flag given is named; at --z -700 and --y 1e-200 the mean is still 0.1
    assert run_cli(capsys, ["mgf", "--x", "10"] + argv) == (2, "", f"error: {message}\n")
    assert run_cli(capsys, ["mgf", "--x", "10", "--z", "-700"]) == (0, "mgf = 0.1\n", "")
    assert run_cli(capsys, ["mgf", "--x", "10", "--y", "1e-200"]) == (0, "mgf = 0.1\n", "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, z",
    [
        (["psi", "--z", "6"], "6+0j"),
        (["psi", "--z", "400"], "400+0j"),
        (["psi", "--z", "-1000"], "-1000+0j"),
        (["report", "--z-grid", "0.5,6,7", "--x-grid", "100"], "6+0j"),
        (["psi", "--z", "6.5+1.5j"], "6.5+1.5j"),
        (["report", "--z-grid", "0.5,6.5+1.5j", "--x-grid", "100"], "6.5+1.5j"),
    ],
    ids=["psi-6", "psi-400", "psi-minus-1000", "report-grid", "psi-gamma-subnormal", "report-gamma-subnormal"],
)
def test_psi_twist_out_of_float_range_exits_two(capsys, argv, z):
    # Gamma(e^z) of the omega twist of unit overflows past z = 5.14, e^z
    # itself past 709.78, and it underflows to 0 below -745; the first such
    # z of a grid is named.  At z = 6.5+1.5j, Gamma(47.05+663.5i) is the
    # subnormal 1.1e-321-9.3e-322j, and psi printed nan+nanj
    message = (f"z = {z} takes the twist out of float64 range: e^z underflows to 0 or overflows, "
               "or |Gamma(rho e^(c z))| overflows or falls below the least normal float, with c = 1 for omega")
    assert run_cli(capsys, argv + ["--cutoff", "100"]) == (2, "", f"error: {message}\n")
    # below the limit the printed value is what it was
    assert run_cli(capsys, ["psi", "--z", "5", "--cutoff", "100"]) == (0, "psi = 0\n", "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [["pmf"], ["sample", "--count", "5"], ["mgf", "--y", "2"], ["sum"]],
    ids=["pmf", "sample", "mgf", "sum"],
)
def test_overflowing_total_weight_exits_two(capsys, argv):
    # alpha(6) = 1e400 overflows: no empty pmf, no draw outside [1, x], no nan
    spec = ["--spec", "tabulated:2^1=1e200,3^1=1e200", "--x", "10"]
    code, out, err = run_cli(capsys, argv[:1] + spec + argv[1:])
    assert code == 2
    assert out == ""
    assert "tabulated: total weight on [1, 10] overflows float64" in err


def test_pmf_with_a_subnormal_prime_power_value(capsys):
    # f(4)/f(2) overflows; alpha(4) = 1 all the same
    code, out, err = run_cli(capsys, ["pmf", "--spec", "tabulated:2^1=2.2250738585e-313", "--x", "10"])
    assert (code, err) == (0, "")
    assert out == "value,probability\n0,0.142857142857143\n1,0.857142857142857\n2,6.35735388156138e-314\n"


def test_report_grid_products_share_one_kernel_pass(rows_per_pass, capsys):
    # lambda0(alpha), the report's lambda0 block, and the 16 twists of
    # circle:16 are the rows of one pass of the power loop; ldp's
    # psi(ln 2) at s = 2 makes the only other, of two rows
    argv = ["report", "--spec", "theta_omega:2", "--x-grid", "1e3,1e4", "--z-grid", "circle:16", "--cutoff", "3000"]
    code, _, err = run_cli(capsys, argv)
    assert code == 0, err
    assert rows_per_pass == [17, 2]


@pytest.mark.parametrize(
    "argv, passes",
    [
        (["lambda0"], [1]),
        (["psi", "--z", "0.5"], [2]),
        (["ldp", "--x", "1e3", "--s", "2"], [2]),
        (["ldp", "--x", "1e3", "--s", "1"], [2]),
        (["report", "--x-grid", "1e3", "--s", "1"], [17, 2]),
    ],
    ids=["lambda0", "psi", "ldp-s2", "ldp-s1", "report-s1"],
)
def test_each_command_computes_its_products_in_its_own_passes(rows_per_pass, capsys, argv, passes):
    # psi(z) is a pass of the twist and its denominator, and psi'(0) one
    # of F_p and G_p; sd report at s = 1 adds psi'(0) to its grid pass
    code, _, err = run_cli(capsys, argv[:1] + ["--spec", "theta_omega:2", "--cutoff", "3000"] + argv[1:])
    assert code == 0, err
    assert rows_per_pass == passes


def table_g_run(capsys, tmp_path, rows, command="report", *args):
    """sd report (or another command) of theta_omega:2 at cutoff 3e4, with a table g of these rows."""
    table = tmp_path / "g.txt"
    table.write_text(rows, encoding="utf-8")
    args = args or ("--x-grid", "1e3")
    argv = [command, "--spec", "theta_omega:2", "--g", f"table:{table}", "--cutoff", "3e4", *args]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def assert_table_g_report_bits(doc, last_psi_im):
    # psi on the grid, the lambda0 block and ldp's prefactor from
    # psi(ln 2), as the plain products gave them; the last twist's
    # imaginary part, 4.1056618702905333 (mpmath), rounds apart in its
    # last bit when the twists close
    assert [(row["psi_re"], row["psi_im"]) for row in doc["psi_grid"][:2]] == [
        (6.6879267113104115, 0.0), (2.8277884730035145, 4.105661870290538)]
    assert (doc["psi_grid"][-1]["psi_re"], doc["psi_grid"][-1]["psi_im"]) == (2.827788473003507, last_psi_im)
    assert doc["lambda0"]["value_re"] == 0.6079271018540262
    assert doc["ldp"][0]["predicted_tail"] == 1.437863692037476


def test_report_with_a_table_g_divides_plain_twists_by_alpha_s_head(rows_per_pass, capsys, tmp_path):
    # a tabled prime above the cutoff keeps each twist's product plain,
    # so its ratio's denominator is alpha's head, the product over the
    # primes up to the cutoff, which the pass computed before completing
    # it: no pass beyond the grid's and ldp's psi(ln 2)
    doc = table_g_run(capsys, tmp_path, "2 1 1\n3 1 1\n5 1 2\n30011 1 1\n")
    assert rows_per_pass == [17, 2]
    assert_table_g_report_bits(doc, -4.105661870290539)


def test_psi_with_a_table_g_above_the_cutoff_is_one_pass(rows_per_pass, capsys, tmp_path):
    # the plain twist divided by alpha's head in the one pass of two
    # rows: the ratio of the plain products, bit for bit
    doc = table_g_run(capsys, tmp_path, "2 1 1\n3 1 1\n5 1 2\n30011 1 1\n", "psi", "--z", "0.5", "--format", "json")
    assert rows_per_pass == [2]
    assert (doc["psi_re"], doc["psi_im"]) == (2.1570414429654208, 0.0)


def test_report_with_a_table_g_closes_its_twists_in_two_passes(rows_per_pass, capsys, tmp_path):
    # with every tabled prime below the cutoff each twist keeps alpha's
    # series and completes, as alpha does
    doc = table_g_run(capsys, tmp_path, "2 1 1\n3 1 1\n5 1 2\n")
    assert rows_per_pass == [17, 2]
    assert_table_g_report_bits(doc, -4.10566187029054)


def test_lambda0_of_a_huge_table_value_above_the_cutoff_has_an_infinite_tail(capsys):
    # f(1009) = 1e200 lies above the cutoff, so the plain product's tail
    # bound, which needs |F_p| < 1 above the cutoff, is infinite: the
    # envelope allows |F_p| up to about C r/P = 1e197
    code, out, err = run_cli(capsys, ["lambda0", "--spec", "tabulated:default=1,1009^1=1e200", "--cutoff", "1000"])
    assert (code, err) == (0, "")
    assert out == "lambda0 = 1\ntail_estimate = inf\nprime_cutoff = 1000\nk_cutoff = 719\n"


def test_ldp_grid_at_s_one_computes_psi_prime_once(rows_per_pass, monkeypatch, capsys):
    # psi'(0) does not depend on x: one closed form, one kernel pass with
    # the two rows F_p and G_p, for the whole grid
    derivatives = []
    log_derivative = stats._log_derivative

    def counted_derivative(*args):
        derivatives.append(args)
        return log_derivative(*args)

    monkeypatch.setattr(stats, "_log_derivative", counted_derivative)
    code, _, err = run_cli(capsys, ["ldp", "--s", "1", "--x-grid", "1e3,1e4,1e5", "--cutoff", "1000"])
    assert code == 0, err
    assert (len(derivatives), rows_per_pass) == (1, [2])


def count_report_work(monkeypatch):
    """The list each value-table pass and each Euler kernel pass appends to."""
    calls = []
    bucket_sums_grid, local_factors = exact.bucket_sums_grid, euler._local_factors
    monkeypatch.setattr(exact, "bucket_sums_grid", lambda *args: calls.append("tables") or bucket_sums_grid(*args))
    monkeypatch.setattr(euler, "_local_factors", lambda *args: calls.append("euler") or local_factors(*args))
    return calls


@pytest.mark.parametrize("s", ["0", "0.5", "nan"])
def test_report_checks_s_before_any_work(monkeypatch, capsys, s):
    # ldp's refusal of s < 1 comes before the value tables and the grid pass
    calls = count_report_work(monkeypatch)
    code, out, err = run_cli(capsys, ["report", "--spec", "theta_omega:2", "--s", s])
    assert (code, out) == (2, "")
    assert err == f"error: ldp compares the upper tail and needs s >= 1, got {float(s):g}\n"
    assert calls == []


def ldp_twin(argv, message):
    """A report's argv, sd ldp's at x = 1000 for the same input, and the message of both."""
    return argv, ["ldp", "--x", "1000"] + argv, message


@pytest.mark.parametrize(
    "argv, twin, message",
    [
        ldp_twin(["--spec", "theta_omega:2", "--s", "500"],
                 "error: s = 500 underflows exp(-rho ln ln x eta*(s)) to 0 at x = 1000"),
        ldp_twin(["--spec", "theta_omega:-2"], "error: tail comparisons need rho > 0, got rho = -2.0 at x = 1000"),
        ldp_twin(["--spec", "theta_omega:0"], "error: tail comparisons need rho > 0, got rho = 0.0 at x = 1000"),
        ldp_twin(["--spec", "tau_rho:-1"], "error: tail comparisons need rho > 0, got rho = -1.0 at x = 1000"),
        ldp_twin(["--spec", "unit", "--g", "big_omega"],
                 "error: s = 2 puts ln s = 0.693147 outside the strip of big_omega; need 1 <= s < 1.41421"),
        (["--spec", "unit", "--g", "big_omega", "--s", "1.3"], ["psi", "--g", "big_omega", "--z", "1"],
         "numeric error: z = 1+0j, twist by big_omega: growth ratio r=2.71828 >= 2 diverges at p=2, s=1"),
        (["--spec", "unit", "--z-grid", "0.5,6"], ["psi", "--z", "6"],
         "error: z = 6+0j takes the twist out of float64 range: e^z underflows to 0 or overflows, or "
         "|Gamma(rho e^(c z))| overflows or falls below the least normal float, with c = 1 for omega"),
        (["--spec", "unit", "--z-grid", "0.5,6.5+1.5j"], ["psi", "--z", "6.5+1.5j"],
         "error: z = 6.5+1.5j takes the twist out of float64 range: e^z underflows to 0 or overflows, or "
         "|Gamma(rho e^(c z))| overflows or falls below the least normal float, with c = 1 for omega"),
    ],
    ids=["underflow", "theta-negative", "theta-zero", "tau-negative", "strip", "z-growth", "z-float-range",
         "z-gamma-subnormal"],
)
def test_report_makes_ldp_checks_at_each_x_before_any_work(monkeypatch, capsys, argv, twin, message):
    # the checks sd ldp makes at each x, then those psi makes at each z,
    # come before the value tables and the grid pass, and fail with the
    # message of sd ldp at that x or of sd psi at that z; before, these
    # reports built every table first (--s 500, z = 6), or failed later on
    # lambda0 = 0 (rho <= 0) or on the twist's growth ratio, without its z
    calls = count_report_work(monkeypatch)
    code = 3 if message.startswith("numeric error") else 2
    assert run_cli(capsys, ["report"] + argv) == (code, "", f"{message}\n")
    assert calls == []
    assert run_cli(capsys, twin) == (code, "", f"{message}\n")


# ---------------------------------------------------------------------------
# traced runs: bench/run.py --trace 1 fails a pass whose stdout differs from
# the untraced passes, or whose per-layer counts differ between two traced
# passes


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--spec", "theta_omega:2", "--g", "omega", "--x-grid", "1e3,1e4,1e5,2e5", "--cutoff", "3e4"],
        ["ldp", "--spec", "geometric_B:1.5", "--g", "big_omega", "--s", "1", "--x-grid", "1e4,1e5", "--cutoff", "2e5"],
    ],
    ids=["report", "ldp"],
)
def test_traced_euler_workload_repeats_its_output_and_counts(tmp_path, argv):
    # one plain run and two traced ones, side by side
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    traces = [tmp_path / "t1.json", tmp_path / "t2.json"]
    prefixes = [("-m", "selberg_delange.cli")] + [(str(root / "bench" / "trace_child.py"), str(t)) for t in traces]
    runs = [subprocess.Popen([sys.executable, *prefix, *argv], cwd=tmp_path, env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE) for prefix in prefixes]
    stdouts = []
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
        stdouts.append(out)
    assert stdouts[1] == stdouts[0] and stdouts[2] == stdouts[0]
    counts = []
    for path in traces:
        trace = json.loads(path.read_text(encoding="utf-8"))
        counts.append((trace["value_at_calls"], Counter(span[0] for span in trace["spans"])))
    assert counts[0] == counts[1]


def test_trace_child_finds_the_lazy_engines(tmp_path):
    # bench/trace_child.py indexes sys.modules for each layer right after
    # importing the CLI; the lazy engines are there, and its vars() runs them
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    trace = tmp_path / "trace.json"
    result = subprocess.run([sys.executable, str(root / "bench" / "trace_child.py"), str(trace), "pmf", "--x", "1000"],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "exact.pmf" in [span[0] for span in json.loads(trace.read_text(encoding="utf-8"))["spans"]]


# ---------------------------------------------------------------------------
# what each command loads: the package runs an engine at its first use,
# json loads for --format json alone and logging for the s = 1 warning

LOAD_PROBE = """
import contextlib, io, sys, types
from selberg_delange import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
ran = [name for name in ("euler", "exact", "stats") if type(sys.modules["selberg_delange." + name]) is types.ModuleType]
print(code, *ran, *(name for name in ("json", "logging") if name in sys.modules))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["pmf", "--x", "1000"], "exact"),
        (["sample", "--x", "1000"], "exact"),
        (["sum", "--x", "1000"], "exact"),
        (["mgf", "--x", "1000", "--y", "2"], "exact"),
        (["lambda0", "--cutoff", "1000"], "euler"),
        (["psi", "--cutoff", "1000"], "euler"),
        (["check"], "euler"),
        (["pmf", "--x", "1000", "--format", "json"], "exact json"),
        (["clt", "--x", "1000"], "euler exact stats"),
        (["ldp", "--x", "1000", "--s", "1", "--cutoff", "1000"], "euler exact stats logging"),
        (["report", "--x-grid", "1e3", "--z-grid", "circle:2", "--cutoff", "1000"], "euler exact stats json"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_command_loads_only_the_engines_it_runs(argv, loaded):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-c", LOAD_PROBE, *argv], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.stdout == f"0 {loaded}\n", result.stderr
