"""Command-line interface: parsing, exit statuses, and output purity."""

import csv
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jumptime import cli, core, verify
from jumptime.cli import KNOT_TOLERANCE, MARTINGALE_Z_LIMIT, main, parse_args
from jumptime.compensators import SaturatingExpCompensator
from jumptime.core import _DRAW_BLOCK, RngStream
from jumptime.cox import cox_sample, write_cox_rows
from jumptime.predictable import (
    build_y_process,
    extract_strict_subsequence,
    make_announcing_sequence,
    max_geometric_m,
)
from jumptime.processes import build_model, catalog_names
from jumptime.verify import _Z_CACHE


def parse_error_code(argv):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    return exc.value.code


class TestParseArgs:
    def test_defaults(self):
        config = parse_args(["verify-exp-law", "--model", "poisson", "--param", "rate=2"])
        assert config.command == "verify-exp-law"
        assert config.model == "poisson"
        assert config.params == {"rate": 2.0}
        assert config.n == 100_000
        assert config.alpha == 0.01
        assert config.seed == 42
        assert config.format == "json"
        assert config.out is None

    def test_predictable_demo_routing(self):
        config = parse_args(
            ["predictable-demo", "--target", "2", "--m", "8", "--scheme", "geometric"]
        )
        assert config.command == "predictable-demo"
        assert (config.target, config.m, config.scheme) == (2.0, 8, "geometric")

    def test_grid_parsing(self):
        config = parse_args(
            ["verify-martingale", "--model", "flat", "--grid", "0.5,1,2"]
        )
        assert config.grid == (0.5, 1.0, 2.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-exp-law", "--model", "nosuch"],
            ["verify-exp-law", "--model", "poisson", "--param", "rate=-1"],
            ["verify-martingale", "--model", "poisson", "--param", "shape=2"],
            ["feller-check", "--model", "flat", "--param", "x=1"],
        ],
        ids=["unknown-model", "negative-rate", "unknown-param", "param-on-flat"],
    )
    def test_unknown_model_is_a_usage_error(self, capsys, argv):
        name, params = argv[2], {k: float(v) for k, v in (p.split("=") for p in argv[4::2])}
        with pytest.raises(ValueError) as rejected:
            build_model(name, params)
        assert parse_error_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: jumptime {argv[0]}"), err
        assert f"jumptime {argv[0]}: error: --model {name}: {rejected.value}\n" in err

    @pytest.mark.parametrize(
        "command", ["verify-exp-law", "verify-martingale", "feller-check", "cox-demo"]
    )
    def test_the_model_is_built_once(self, monkeypatch, capsys, command):
        calls = []

        def counted(*args):
            calls.append(args)
            return build_model(*args)

        monkeypatch.setattr(cli, "build_model", counted)
        sampling = [] if command == "feller-check" else ["--n", "100"]
        assert main([command, "--model", "poisson", "--param", "rate=2", *sampling]) == 0
        assert calls == [("poisson", {"rate": 2.0})]

    def test_hidden_model_is_accepted(self):
        config = parse_args(["verify-exp-law", "--model", "negative-control"])
        assert config.model == "negative-control"

    def test_bad_param_names_the_flag(self, capsys):
        assert parse_error_code(["verify-exp-law", "--model", "poisson", "--param", "rate"]) == 2
        assert "--param" in capsys.readouterr().err
        assert (
            parse_error_code(
                ["verify-exp-law", "--model", "poisson", "--param", "rate=fast"]
            )
            == 2
        )

    def test_out_of_range_values_rejected(self):
        assert parse_error_code(["verify-exp-law", "--model", "poisson", "--n", "0"]) == 2
        assert parse_error_code(["verify-exp-law", "--model", "poisson", "--alpha", "1.5"]) == 2
        assert parse_error_code(["verify-exp-law", "--model", "poisson", "--seed", "-1"]) == 2
        assert parse_error_code(["verify-exp-law", "--model", "poisson", "--workers", "0"]) == 2
        assert parse_error_code(["predictable-demo", "--target", "0"]) == 2
        assert parse_error_code(["predictable-demo", "--m", "0"]) == 2
        assert parse_error_code(["predictable-demo", "--scheme", "fibonacci"]) == 2
        assert parse_error_code(["verify-exp-law", "--model", "poisson", "--format", "xml"]) == 2
        assert parse_error_code(["verify-martingale", "--model", "flat", "--grid", "a,b"]) == 2

    def test_geometric_m_beyond_float_resolution_names_the_flag(self, capsys):
        assert parse_error_code(["predictable-demo", "--m", "60"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "--m 60" in errors[0] and "m must be at most 53" in errors[0]
        assert "got 60" in errors[0]
        assert main(["predictable-demo", "--m", "53"]) == 0
        assert main(["predictable-demo", "--m", "60", "--scheme", "harmonic"]) == 0

    def test_range_error_shows_the_subcommand_usage(self, capsys):
        assert parse_error_code(["predictable-demo", "--m", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: jumptime predictable-demo"), err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("jumptime predictable-demo: error: ")
        assert "--m 0" in errors[0] and "m must be a positive integer" in errors[0]

    @pytest.mark.parametrize(
        "flags",
        [["--target=0"], ["--target=-1"], ["--target=nan"], ["--target=inf"],
         ["--target=1e-320"], ["--m=0"], ["--m=60"]],
    )
    def test_refused_announcing_arguments_are_usage_errors(self, capsys, flags):
        assert parse_error_code(["predictable-demo", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: jumptime predictable-demo"), err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and flags[0].split("=")[0] in errors[0], err

    @given(
        target=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        scheme=st.sampled_from(["geometric", "harmonic"]),
        m=st.integers(min_value=1, max_value=64),
    )
    @example(target=1e308, scheme="harmonic", m=8)
    @example(target=1.7976931348623157e308, scheme="harmonic", m=64)
    @example(target=5e-324, scheme="geometric", m=8)
    @example(target=5e-324, scheme="harmonic", m=8)
    @example(target=2.2250738585072014e-308, scheme="harmonic", m=64)
    def test_predictable_demo_at_float_extremes(self, target, scheme, m):
        argv = ["predictable-demo", "--target", repr(target), "--m", str(m), "--scheme", scheme]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        if code == 0:
            assert json.loads(out.getvalue())["hitting_time"] == target
            return
        assert code == 2, err.getvalue()
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(errors) == 1, err.getvalue()
        assert "--target" in errors[0] or "--m" in errors[0], errors[0]

    def test_unknown_flag_and_missing_command(self):
        assert parse_error_code(["verify-exp-law", "--model", "poisson", "--frobnicate"]) == 2
        assert parse_error_code([]) == 2

    def test_env_seed_used_only_when_flag_absent(self, monkeypatch):
        monkeypatch.setenv("JUMPTIME_SEED", "777")
        assert parse_args(["cox-demo", "--model", "poisson"]).seed == 777
        assert parse_args(["cox-demo", "--model", "poisson", "--seed", "5"]).seed == 5
        monkeypatch.setenv("JUMPTIME_SEED", "not-a-number")
        assert parse_error_code(["cox-demo", "--model", "poisson"]) == 2
        monkeypatch.delenv("JUMPTIME_SEED")
        assert parse_args(["cox-demo", "--model", "poisson"]).seed == 42

    def test_out_of_range_env_seed_names_the_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("JUMPTIME_SEED", "-1")
        assert parse_error_code(["verify-exp-law", "--model", "poisson"]) == 2
        err = capsys.readouterr().err
        assert "JUMPTIME_SEED must lie in [0, 2**64), got -1" in err
        assert "--seed" not in err.splitlines()[-1]
        assert parse_error_code(["verify-exp-law", "--model", "poisson", "--seed", "-1"]) == 2
        assert "error: --seed must lie in [0, 2**64), got -1" in capsys.readouterr().err


class TestRunExitCodes:
    def test_exp_law_pass_is_zero(self, capsys):
        code = main(["verify-exp-law", "--model", "poisson", "--n", "3000"])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["passed"] is True

    def test_exp_law_negative_control_is_one(self, capsys):
        code = main(["verify-exp-law", "--model", "negative-control", "--n", "3000"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False

    def test_an_alpha_whose_band_overflows_is_two(self, capsys):
        # 2 / alpha is finite at the smallest alpha and inf one float below;
        # the band there, sqrt(709.8 / 2n), still fails the control at n = 20000.
        smallest = 1.112536929253601e-308
        argv = ["verify-exp-law", "--model", "negative-control", "--n", "20000"]
        assert main(argv + ["--alpha", repr(smallest)]) == 1
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert report["dkw_bound"] > 0.0 and report["passed"] is False
        for alpha in (repr(math.nextafter(smallest, 0.0)), "1e-320"):
            assert main(argv + ["--alpha", alpha, "--format", "csv"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            message = f"alpha {float(alpha)} is too small: 2 / alpha overflows a float"
            assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("time", ["-1", "nan", "inf"])
    def test_a_grid_time_refused_at_run_time_is_two(self, capsys, time):
        # The library refuses it after parsing, so no usage line comes first.
        assert main(["verify-martingale", "--model", "flat", "--n", "100", f"--grid={time}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid times must be finite and nonnegative\n"

    def test_unwritable_out_is_three(self, capsys):
        code = main(
            [
                "verify-exp-law",
                "--model",
                "poisson",
                "--n",
                "100",
                "--out",
                "/nonexistent-dir/report.json",
            ]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error",
        [MemoryError("Unable to allocate 8.00 TiB for an array"), MemoryError()],
        ids=["numpy", "bare"],
    )
    def test_an_unallocatable_n_is_three(self, monkeypatch, capsys, error):
        # Never allocated for real: a host that overcommits would start filling it.
        def refuse(seed, n):
            raise error

        monkeypatch.setattr(verify, "draw_exponentials", refuse)
        argv = ["verify-exp-law", "--model", "poisson", "--n", str(2**40)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {str(error) or 'out of memory'}\n"

    @pytest.mark.parametrize("command", ["verify-exp-law", "verify-martingale"])
    @pytest.mark.parametrize("n", [2**63 - 1, 2**64])
    def test_an_n_numpy_cannot_size_is_three(self, capsys, command, n):
        # Refused by arithmetic before any array is asked for.
        assert main([command, "--model", "poisson", "--n", str(n)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: n = {n} draws take")
        assert captured.err.count("\n") == 1

    def test_overflowing_jump_time_is_three(self):
        cmd = [sys.executable, "-m", "jumptime.cli", "cox-demo", "--model", "power",
               "--param", "exponent=0.001", "--n", "50"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "exponent 0.001" in lines[0]

    @pytest.mark.parametrize("model,param", [("poisson", "rate=1e-320"),
                                             ("ctmc", "exit_rate=1e-310")])
    def test_overflowing_linear_jump_time_is_three(self, model, param):
        # Finite levels over a tiny rate overflow; this is not an infinite tau.
        cmd = [sys.executable, "-m", "jumptime.cli", "cox-demo", "--model", model,
               "--param", param, "--n", "5"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "jump time overflows a float" in lines[0]
        assert f"rate {param.partition('=')[2]}" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["verify-exp-law", "--model", "poisson", "--param", "rate=1e-320"],
        ["verify-martingale", "--model", "ctmc", "--param", "exit_rate=1e-310"],
    ], ids=["exp-law-poisson", "martingale-ctmc"])
    def test_overflowing_linear_array_path_is_three(self, argv):
        # The array inverse names the overflow; it is not an infinite jump time.
        cmd = [sys.executable, "-m", "jumptime.cli", *argv, "--n", "1000"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "RuntimeWarning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "jump time overflows a float" in lines[0]
        assert f"rate {argv[-1].partition('=')[2]}" in lines[0]

    @pytest.mark.parametrize("command", ["verify-exp-law", "verify-martingale"])
    def test_infinite_jump_time_is_three(self, capsys, command):
        # The benchmark classifies a run as infinite_sample by this stderr text.
        argv = [command, "--model", "power", "--param", "exponent=0.002", "--n", "1000"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert "infinite jump time" in lines[0]

    def test_overflowing_stream_keeps_the_rows_before_it(self):
        cmd = [sys.executable, "-m", "jumptime.cli", "cox-demo", "--model", "power",
               "--param", "exponent=0.001", "--n", "50", "--seed", "42"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 3
        A = build_model("power", {"exponent": 0.001}).compensator
        expected = []
        for k in range(50):
            try:
                expected.append(json.dumps(cox_sample(A, RngStream(42, k)).to_json_dict()))
            except OverflowError:
                break
        assert 0 < len(expected) < 50
        assert proc.stdout == "".join(line + "\n" for line in expected)

    def test_martingale_pass_is_zero(self, capsys):
        code = main(
            ["verify-martingale", "--model", "ctmc", "--param", "exit_rate=3",
             "--n", "3000", "--grid", "0.5,1,2"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["max_abs_z"] < 4.0

    def test_martingale_negative_control_is_one(self, capsys):
        code = main(
            ["verify-martingale", "--model", "negative-control", "--n", "3000"]
        )
        assert code == 1
        capsys.readouterr()

    def test_feller_check_is_zero(self, capsys):
        code = main(["feller-check", "--model", "poisson"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["model_name", "passed", "reports"]
        assert doc["passed"] is True
        assert len(doc["reports"]) == 3
        assert {r["function_name"] for r in doc["reports"]} == {
            "gauss_bump",
            "inverse_quad",
            "tent",
        }
        for r in doc["reports"]:
            assert r["chapman_kolmogorov_max_error"] <= r["chapman_kolmogorov_tolerance"]
            assert r["e_final"] <= r["e_final_bound"]


class TestOutputPurity:
    def test_list_models_stdout_is_one_json_doc(self, capsys):
        assert main(["list-models"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"models": ["ctmc", "flat", "poisson", "power"]}
        assert captured.err == ""

    def test_json_report_has_no_diagnostics_on_stdout(self, capsys):
        main(["verify-exp-law", "--model", "flat", "--n", "2000"])
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert captured.err == ""

    def test_csv_report_table_on_stdout_summary_on_stderr(self, capsys):
        main(["verify-exp-law", "--model", "flat", "--n", "2000", "--format", "csv"])
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "t,ecdf,reference"
        assert len(lines) == 51
        assert "passed=True" in captured.err

    def test_cox_demo_one_json_object_per_line(self, capsys):
        assert main(["cox-demo", "--model", "poisson", "--n", "3", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for k, line in enumerate(lines):
            d = json.loads(line)
            assert d["stream_id"] == k
            assert d["seed"] == "7"
            assert d["a_at_tau"] == pytest.approx(d["z"], abs=1e-12)

    def test_predictable_demo_json(self, capsys):
        code = main(["predictable-demo", "--target", "2", "--m", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hitting_time"] == 2.0
        assert doc["max_knot_error"] == 0.0
        assert doc["knots"][0] == [0.0, 1.0]
        assert doc["knots"][-1] == [2.0, 0.0]

    def test_predictable_demo_csv(self, capsys):
        code = main(["predictable-demo", "--target", "1", "--m", "3",
                     "--scheme", "harmonic", "--format", "csv"])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "time,value"
        assert len(lines) == 6  # header + 5 knots
        summary = json.loads(captured.err)
        assert summary["hitting_time"] == 1.0

    def test_out_file_receives_the_data(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify-exp-law", "--model", "poisson", "--n", "2000",
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["model_name"] == "poisson(rate=1)"


#: (argv, CSV header, expected verdict) for every subcommand, each verify
#: check with a passing and a failing model.
CONTRACT_CASES = [
    pytest.param(["list-models"], "name", True, id="list-models"),
    pytest.param(["verify-exp-law", "--model", "poisson", "--n", "2000"],
                 "t,ecdf,reference", True, id="exp-law-pass"),
    pytest.param(["verify-exp-law", "--model", "negative-control", "--n", "2000"],
                 "t,ecdf,reference", False, id="exp-law-fail"),
    pytest.param(["verify-martingale", "--model", "ctmc", "--n", "2000"],
                 "t,mean,stderr", True, id="martingale-pass"),
    pytest.param(["verify-martingale", "--model", "negative-control", "--n", "2000"],
                 "t,mean,stderr", False, id="martingale-fail"),
    pytest.param(["feller-check", "--model", "flat"], "function,t,e", True, id="feller"),
    pytest.param(["cox-demo", "--model", "poisson", "--n", "4"],
                 "z,tau,a_at_tau,seed,stream_id", True, id="cox-demo"),
    pytest.param(["predictable-demo", "--target", "2", "--m", "4"],
                 "time,value", True, id="predictable-demo"),
]

#: Subcommands that print no summary line in CSV mode.
NO_SUMMARY = {"list-models", "cox-demo"}


def json_verdict(command, doc):
    if command == "verify-martingale":
        return doc["max_abs_z"] < MARTINGALE_Z_LIMIT
    if command == "predictable-demo":
        return doc["hitting_time"] == doc["target"] and doc["max_knot_error"] <= KNOT_TOLERANCE
    return doc.get("passed", True)


def summary_verdict(command, line):
    if command == "predictable-demo":
        return json_verdict(command, json.loads(line))
    assert line.endswith((" passed=True", " passed=False")), line
    return line.endswith("passed=True")


class TestOneWriterContract:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv,header,expected", CONTRACT_CASES)
    def test_status_data_and_diagnostics(self, capsys, argv, header, expected, fmt):
        command = argv[0]
        status = main(argv + ["--format", fmt])
        captured = capsys.readouterr()
        assert status == (0 if expected else 1)
        if fmt == "json":
            assert captured.err == ""
            if command == "cox-demo":
                docs = [json.loads(line) for line in captured.out.splitlines()]
                assert [d["stream_id"] for d in docs] == [0, 1, 2, 3]
            else:
                assert json_verdict(command, json.loads(captured.out)) is expected
            return
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert ",".join(rows[0]) == header
        assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
        if command in NO_SUMMARY:
            assert captured.err == ""
        else:
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert summary_verdict(command, lines[0]) is expected


def assert_same_lines(got: str, expected: str) -> None:
    """Byte equality that names the first differing line, not a diff of megabytes."""
    got_lines, expected_lines = got.splitlines(True), expected.splitlines(True)
    for k, (a, b) in enumerate(zip(got_lines, expected_lines)):
        assert a == b, f"line {k}: {a!r} != {b!r}"
    assert len(got_lines) == len(expected_lines)


def _overflows(A, stream) -> bool:
    try:
        cox_sample(A, stream)
    except OverflowError:
        return True
    return False


def reference_rows(A, seed: int, stream_ids, fmt: str) -> str:
    """``cox-demo``'s output for these streams, written the reference way."""
    rows = [cox_sample(A, RngStream(seed, k)).to_json_dict() for k in stream_ids]
    if fmt == "json":
        return "".join(json.dumps(row) + "\n" for row in rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("z", "tau", "a_at_tau", "seed", "stream_id"))
    writer.writerows(row.values() for row in rows)
    return buf.getvalue()


class TestCoxDemoBytes:
    """``cox-demo`` rows against ``cox_sample(...).to_json_dict()``, byte for byte."""

    @pytest.mark.parametrize("model", ["flat", "power", "poisson", "ctmc", "negative-control"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rows_across_a_block_boundary(self, capsys, model, fmt):
        n, seed = _DRAW_BLOCK + 5, 2**64 - 1
        assert main(["cox-demo", "--model", model, "--n", str(n), "--seed", str(seed),
                     "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        A = build_model(model).sampler
        assert_same_lines(captured.out, reference_rows(A, seed, range(n), fmt))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_infinite_rows_of_a_bounded_compensator(self, monkeypatch, fmt):
        monkeypatch.setattr(core, "_DRAW_BLOCK", 7)
        A, seed, n = SaturatingExpCompensator(0.5, 1.0), 3, 50
        buf = io.StringIO()
        write_cox_rows(buf, A, seed, n, fmt)
        expected = reference_rows(A, seed, range(n), fmt)
        assert_same_lines(buf.getvalue(), expected)
        assert 0 < expected.count("infinity") < n

    def test_overflow_mid_block_keeps_the_rows_before_it(self, monkeypatch, tmp_path, capsys):
        # Blocks of 8: the first overflowing stream, 29, is the sixth of the
        # fourth block, so the rows before it are only in a partial block.
        monkeypatch.setattr(core, "_DRAW_BLOCK", 8)
        A, seed, n = build_model("power", {"exponent": 0.001}).compensator, 2, 50
        first = 0
        while not _overflows(A, RngStream(seed, first)):
            first += 1
        assert first == 29
        path = tmp_path / "rows.json"
        assert main(["cox-demo", "--model", "power", "--param", "exponent=0.001",
                     "--n", str(n), "--seed", str(seed), "--out", str(path)]) == 3
        assert "jump time overflows a float" in capsys.readouterr().err
        assert_same_lines(path.read_text(), reference_rows(A, seed, range(first), "json"))


class TestPredictableDemoBytes:
    @given(
        target=st.floats(2.2250738585072014e-308, 1e6) | st.floats(1e300, 1.7976931348623157e308),
        m=st.integers(min_value=1, max_value=2500),
        scheme=st.sampled_from(["geometric", "harmonic"]),
    )
    # Where t * m overflows, across a write block of knots.
    @example(target=1.7976931348623157e308, m=2500, scheme="harmonic")
    @example(target=1.0, m=53, scheme="geometric")
    def test_streamed_json_is_json_dumps(self, target, m, scheme):
        if scheme == "geometric":
            m = min(m, max_geometric_m(target))
        argv = ["predictable-demo", "--target", repr(target), "--m", str(m), "--scheme", scheme]
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        y = build_y_process(extract_strict_subsequence(make_announcing_sequence(target, m, scheme)))
        doc = json.loads(out.getvalue())
        assert [doc["target"], doc["m"], doc["scheme"]] == [target, m, scheme]
        doc["knots"] = [[t, v] for t, v in zip(y.times, y.values)]
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def numpy_loaded_after(argv, tmp_path) -> bool:
    """Run one command in a fresh interpreter; whether numpy's core was loaded."""
    code = (
        "import sys\n"
        "from jumptime.cli import main\n"
        f"status = main({argv + ['--out', str(tmp_path / 'out')]!r})\n"
        "print(status, 'numpy._core' in sys.modules)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    status, loaded = run.stdout.split()
    assert status == "0", run.stderr
    return loaded == "True"


class TestImportsOnDemand:
    @pytest.mark.parametrize(
        "argv",
        [["list-models"]]
        + [["feller-check", "--model", name] for name in catalog_names()]
        + [["predictable-demo", "--scheme", scheme] for scheme in ("geometric", "harmonic")],
        ids=" ".join,
    )
    def test_commands_that_draw_nothing_leave_numpy_unloaded(self, argv, tmp_path):
        assert not numpy_loaded_after(argv, tmp_path)

    def test_a_verification_loads_numpy(self, tmp_path):
        argv = ["verify-exp-law", "--model", "poisson", "--n", "1000"]
        assert numpy_loaded_after(argv, tmp_path)


class TestDeterminism:
    def test_rerun_writes_identical_bytes(self, tmp_path):
        argv = ["verify-exp-law", "--model", "power", "--n", "3000", "--seed", "9"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        _Z_CACHE.clear()
        assert main(argv + ["--out", str(first)]) == 0
        _Z_CACHE.clear()
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        base = ["verify-martingale", "--model", "poisson", "--n", "9000", "--seed", "4"]
        one, many = tmp_path / "w1.json", tmp_path / "w4.json"
        _Z_CACHE.clear()
        assert main(base + ["--workers", "1", "--out", str(one)]) == 0
        _Z_CACHE.clear()
        assert main(base + ["--workers", "4", "--out", str(many)]) == 0
        assert one.read_bytes() == many.read_bytes()

    def test_cross_process_reruns_are_byte_identical(self):
        cmd = [
            sys.executable,
            "-m",
            "jumptime.cli",
            "verify-exp-law",
            "--model",
            "ctmc",
            "--param",
            "exit_rate=3",
            "--n",
            "2000",
            "--seed",
            "31",
        ]
        runs = [
            subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
