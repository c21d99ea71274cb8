import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import selberg_delange
from selberg_delange import cli, exact
from selberg_delange.cli import main

SAMPLE_ARGS = ["sample", "--spec", "unit", "--x", "10", "--seed", "7", "--count", "5"]
SAMPLE_GOLDEN = "9\n3\n5\n5\n1\n"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden outputs (byte-exact, 15 significant digits)


def test_lambda0_golden(capsys):
    code, out, _ = run_cli(capsys, ["lambda0", "--spec", "theta_omega:2"])
    assert code == 0
    assert out == (
        "lambda0 = 0.607927143040184\n"
        "tail_estimate = 1.15811861840867e-06\n"
        "prime_cutoff = 1000000\n"
        "k_cutoff = 48\n"
    )


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


def test_pmf_golden_csv(capsys):
    code, out, _ = run_cli(capsys, ["pmf", "--spec", "unit", "--g", "omega", "--x", "10"])
    assert code == 0
    assert out == "value,probability\n0,0.1\n1,0.7\n2,0.2\n"


def test_sample_golden(capsys):
    code, out, _ = run_cli(capsys, SAMPLE_ARGS)
    assert code == 0
    assert out == SAMPLE_GOLDEN


def test_sample_draws_written_in_chunks(tmp_path, capsys, monkeypatch):
    # the draws are formatted and written a chunk at a time; the bytes
    # are those of one write, on stdout and in one --output file
    monkeypatch.setattr(cli, "_DRAWS_PER_WRITE", 2)
    assert run_cli(capsys, SAMPLE_ARGS) == (0, SAMPLE_GOLDEN, "")
    target = tmp_path / "draws.txt"
    assert run_cli(capsys, SAMPLE_ARGS + ["--output", str(target)]) == (0, "", "")
    assert target.read_text() == SAMPLE_GOLDEN


def test_sum_golden_single_and_grid(capsys):
    code, out, _ = run_cli(capsys, ["sum", "--spec", "theta_omega:2", "--x", "10"])
    assert code == 0
    assert out == "sum = 23\n"
    code, out, _ = run_cli(capsys, ["sum", "--spec", "unit", "--x-grid", "10,100"])
    assert code == 0
    assert out == "x,sum_re,sum_im\n10,10,0\n100,100,0\n"


def test_check_golden(capsys):
    code, out, _ = run_cli(capsys, ["check", "--spec", "geometric_B:1.9,c0=0.1"])
    assert code == 0
    assert out == (
        "verdict = inconsistent\n"
        "c0 = 0.1\n"
        "witness = 2\n"
        "abscissa_estimate = 1.8\n"
        "increment_exponent = none\n"
    )


def test_repeat_runs_are_byte_identical(capsys):
    argv = ["psi", "--spec", "theta_omega:2", "--z", "0.5", "--cutoff", "2000"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    assert first.startswith("psi = ")


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_bad_spec(capsys):
    code, out, err = run_cli(capsys, ["lambda0", "--spec", "nope"])
    assert code == 2
    assert out == ""
    assert "unknown spec name" in err


def test_exit_code_numeric_failure(capsys):
    code, _, err = run_cli(capsys, ["lambda0", "--spec", "tabulated:2^1=1,C=1,r=2"])
    assert code == 3
    assert "diverges" in err


def test_exit_code_strip_violation(capsys):
    code, _, err = run_cli(
        capsys,
        ["ldp", "--spec", "unit", "--g", "big_omega", "--x", "1000", "--s", "1.5"],
    )
    assert code == 2
    assert "need 0 < s < 1.41421" in err


def test_exit_code_missing_x(capsys):
    code, _, err = run_cli(capsys, ["mgf", "--spec", "unit", "--g", "omega", "--y", "2"])
    assert code == 2
    assert "--x" in err


def test_exit_code_report_rejects_csv(capsys):
    code, _, err = run_cli(capsys, ["report", "--spec", "unit", "--format", "csv"])
    assert code == 2
    assert "json" in err


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


# ---------------------------------------------------------------------------
# output routing and formats


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    argv = [
        "pmf", "--spec", "unit", "--g", "omega", "--x", "10",
        "--output", str(target),
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == ""
    assert target.read_text() == "value,probability\n0,0.1\n1,0.7\n2,0.2\n"


def test_output_file_bad_path(capsys):
    argv = [
        "pmf", "--spec", "unit", "--g", "omega", "--x", "10",
        "--output", "/nonexistent-dir/out.csv",
    ]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err != ""


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


@pytest.mark.parametrize("command", ["lambda0", "psi", "check"])
def test_tol_must_be_finite_and_positive(capsys, command):
    for tol in ("nan", "inf", "0", "-1"):
        code, out, err = run_cli(capsys, [command, "--spec", "theta_omega:2", "--tol", tol])
        assert (code, out) == (2, "")
        assert "tol must be positive" in err


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


# ---------------------------------------------------------------------------
# work counts: each command streams its value tables in as few passes as
# it needs and never builds a whole table


@pytest.fixture
def work_counts(monkeypatch):
    counts = Counter()
    for name in ("multiplicative_value_table", "additive_value_table"):
        fn = getattr(exact, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(exact, name, counted)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, counted)
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
