import errno
import json
import marshal
import os
import sys
import threading
import warnings

import pytest

import nonsieve.cli
from nonsieve import census, euler_product_partial, integers, prime_shell, residual, sigma_chain
from nonsieve.cli import COMMANDS, FORK_MIN_LIMIT, build_parser, run
from test_golden_cli import CASES, GOLDEN


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def exit_outcome(capsys, parse, argv):
    """The exit code, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


OPTIONS = ("--poly", "--powers", "--limits", "--x", "--s", "--depth", "--precision",
           "--exact", "--float", "--format", "--out", "--config")


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["bogus"],
    *([command, *rest] for command in COMMANDS for rest in (
        ["--help"],
        ["--bogus"],
        ["--exact", "--float"],
        ["--format", "xml"],
    )),
], ids=" ".join)
def test_per_command_parser_prints_what_the_full_parser_prints(capsys, argv):
    # run() prints only what the one parser prints: help and exit 0, or
    # usage, one error line and exit 2
    outcome = exit_outcome(capsys, run, argv)
    assert outcome == exit_outcome(capsys, build_parser().parse_args, argv)
    code, out, err = outcome
    if "--help" in argv:
        assert (code, err) == (0, "") and out.startswith("usage: nonsieve ")
    else:
        assert (code, out) == (2, "") and err.startswith("usage: nonsieve ")
        assert err.splitlines()[-1].startswith("nonsieve: error: ")


def test_help_names_every_command_and_option(capsys):
    code, out, err = exit_outcome(capsys, run, ["--help"])
    assert code == 0 and err == ""
    assert all(name in out for name in (*COMMANDS, *OPTIONS))
    for command in COMMANDS:
        assert exit_outcome(capsys, run, [command, "--help"]) == (0, out, "")


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_takes_every_option(command):
    argv = [command, "--poly", "shell:3", "--powers", "2,3", "--limits", "5,8", "--x", "8",
            "--s", "2", "--depth", "full", "--float", "--format", "json", "--out", "o.csv",
            "--config", "c.json"]
    args = vars(build_parser().parse_args(argv))
    assert args == {"command": command, "poly": "shell:3", "powers": "2,3", "limits": "5,8",
                    "x": 8, "s": 2.0, "depth": "full", "precision": "float",
                    "format": "json", "out": "o.csv", "config": "c.json"}
    assert type(args["x"]) is int and type(args["s"]) is float


class TestTable1:
    def test_default_run(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "label,x,prime_count,log_density_sum,m_value,mode"
        assert lines[1] == "integers,100,25,29.99144,-0.94812622482360,exact"
        assert lines[2] == "integers,200,46,50.04329,-0.97060984525939,exact"

    def test_limit_two(self, capsys):
        code, out = run_cli(capsys, "table1", "--limits", "2")
        assert code == 0
        assert "integers,2,1," in out
        assert "-0.25000000000000" in out

    def test_non_ascending_rejected(self, capsys):
        code = run(["table1", "--limits", "100,50"])
        assert code == 2


class TestTable2:
    def test_default_m_column(self, capsys):
        code, out = run_cli(capsys, "table2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        ms = {(r["label"], r["x"]): r["m_value"] for r in rows}
        assert ms[("prime-shell p=2", 100)] == "-0.70856869191073"
        assert ms[("prime-shell p=3", 100)] == "-0.05016737946525"
        assert ms[("prime-shell p=7", 200)] == "-0.00006682330851"

    def test_reference_discrepancies_are_flagged(self, capsys):
        code, out = run_cli(capsys, "table2", "--format", "json", "--limits", "100")
        rows = json.loads(out)
        by_label = {r["label"]: r for r in rows}
        p2 = by_label["prime-shell p=2"]
        assert p2["prime_count"] == 45
        assert any(f.startswith("prime_count_differs") for f in p2["flags"])
        assert any(f.startswith("log_sum_differs") for f in p2["flags"])
        p7 = by_label["prime-shell p=7"]
        assert p7["prime_count"] == 24
        assert not any(f.startswith("prime_count_differs") for f in p7["flags"])

    def test_degenerate_power_one(self, capsys):
        code, out = run_cli(capsys, "table2", "--powers", "1", "--limits", "5", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["prime_count"] == 0
        assert "empty_product" in row["flags"]

    def test_single_cell(self, capsys):
        code, out = run_cli(capsys, "table2", "--powers", "2", "--limits", "100")
        assert code == 0
        assert "-0.70856869191073" in out

    def test_empty_table_prints_table_header(self, capsys):
        code, out = run_cli(capsys, "table2", "--powers", "")
        assert code == 0
        assert out == "label,x,prime_count,log_density_sum,m_value,mode\n"


class TestFigureData:
    def test_default_grid(self, capsys):
        code, out = run_cli(capsys, "figure-data")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "label,x,m_value"
        assert len(lines) == 1 + 5 * 2  # integers + 4 shells, 2 limits each

    def test_integers_only(self, capsys):
        code, out = run_cli(capsys, "figure-data", "--powers", "")
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_trend_grid(self, capsys):
        limits = ",".join(str(x) for x in range(10, 201, 10))
        code, out = run_cli(capsys, "figure-data", "--powers", "3", "--limits", limits)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        series = [float(m) for label, x, m in rows if label == "prime-shell p=3"]
        assert len(series) == 20
        assert all(b <= a for a, b in zip(series, series[1:]))

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "figure-data", "--powers", "2,3")
        _, second = run_cli(capsys, "figure-data", "--powers", "2,3")
        assert first == second


class TestSingleShot:
    def test_residual_exact_rational(self, capsys):
        code, out = run_cli(capsys, "residual", "--poly", "shell:3", "--x", "3", "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["m_value"]["rational"] == "-517/17689"

    def test_residual_table_value(self, capsys):
        code, out = run_cli(capsys, "residual", "--poly", "integers", "--x", "100")
        payload = json.loads(out)
        assert payload["m_value"]["decimal"] == "-0.94812622482360"

    def test_mseries_depth2(self, capsys):
        code, out = run_cli(
            capsys, "mseries", "--poly", "shell:3", "--x", "3", "--depth", "2", "--exact"
        )
        payload = json.loads(out)
        assert payload["partial_sum"] == "-543/17689"

    def test_compare_finding_exits_zero(self, capsys):
        code, out = run_cli(capsys, "compare", "--poly", "shell:3", "--x", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "SYSTEMATIC_GAP"

    def test_compare_match(self, capsys):
        code, out = run_cli(capsys, "compare", "--poly", "integers", "--x", "2")
        payload = json.loads(out)
        assert payload["verdict"] == "MATCH"
        assert payload["deviation"] == "0"

    def test_missing_poly_rejected(self, capsys):
        assert run(["residual", "--x", "3"]) == 2

    def test_spec_starting_with_a_minus_sign_after_an_equals_sign(self, capsys):
        # "--poly -1,2" reads -1,2 as an option; "--poly=-1,2" is 2n - 1 = shell:2
        code, out = run_cli(capsys, "residual", "--poly=-1,2", "--x", "10")
        _, shell = run_cli(capsys, "residual", "--poly", "shell:2", "--x", "10")
        assert code == 0
        assert json.loads(out)["m_value"] == json.loads(shell)["m_value"]


class TestConfigAndEnvironment:
    def test_precision_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("NONSIEVE_PRECISION", "float")
        code, out = run_cli(capsys, "residual", "--poly", "integers", "--x", "100")
        payload = json.loads(out)
        assert payload["mode"] == "float"
        assert "rational" not in payload["m_value"]

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("NONSIEVE_PRECISION", "quadruple")
        assert run(["table1"]) == 2

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"poly": "shell:3", "limits": [3], "precision": "exact"}))
        code, out = run_cli(capsys, "residual", "--config", str(cfg))
        assert json.loads(out)["m_value"]["rational"] == "-517/17689"
        code, out = run_cli(capsys, "residual", "--config", str(cfg), "--x", "8")
        assert json.loads(out)["x"] == 8

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t1.csv"
        code = run(["table1", "--out", str(target)])
        assert code == 0
        content = target.read_bytes()
        assert b"\r" not in content
        assert content.decode().splitlines()[1].startswith("integers,100")

    def test_io_error_exit_code(self):
        assert run(["table1", "--out", "/nonexistent-dir/t.csv"]) == 1

    def test_float_and_exact_agree_on_table_cells(self, capsys):
        _, exact_out = run_cli(capsys, "table2", "--precision", "exact", "--powers", "3")
        _, float_out = run_cli(capsys, "table2", "--precision", "float", "--powers", "3")
        for e_line, f_line in zip(
            exact_out.strip().split("\n")[1:], float_out.strip().split("\n")[1:]
        ):
            e_m = float(e_line.split(",")[4])
            f_m = float(f_line.split(",")[4])
            assert abs(e_m - f_m) < 1e-13


class TestPrecisionFlags:
    @pytest.mark.parametrize("flags", [
        ("--exact", "--precision", "float"),
        ("--precision", "exact", "--float"),
        ("--exact", "--float"),
        ("--float", "--exact"),
    ])
    def test_two_precision_flags_exit_2(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            run(["residual", "--poly", "shell:3", "--x", "3", *flags])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, mode", [
        (("--exact",), "exact"),
        (("--float",), "float"),
        (("--precision", "float"), "float"),
        ((), "exact"),
    ])
    def test_one_precision_flag_sets_the_mode(self, capsys, flags, mode):
        code, out = run_cli(capsys, "residual", "--poly", "shell:3", "--x", "3", *flags)
        assert code == 0 and json.loads(out)["mode"] == mode


class TestTableScans:
    @pytest.mark.parametrize("precision", ["exact", "float"])
    def test_rows_equal_one_limit_runs(self, capsys, precision):
        # each cell comes from scans over all limits; it must equal the cell alone
        argv = ["table2", "--powers", "1,2,7", "--precision", precision, "--format", "json"]
        code, out = run_cli(capsys, *argv, "--limits", "1,2,30,200")
        assert code == 0
        rows = {(row["label"], row["x"]): row for row in json.loads(out)}
        alone = {}
        for x in ("1", "2", "30", "200"):
            for row in json.loads(run_cli(capsys, *argv, "--limits", x)[1]):
                alone[(row["label"], row["x"])] = row
        assert len(rows) == 12 and rows == alone


def outcome(capsys, argv):
    """Exit code (or the exception that escaped run), stdout and stderr;
    no child process may outlive the command."""
    try:
        code = run(list(argv))
    except Exception as exc:
        code = f"{type(exc).__name__}: {exc}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return (code, *capsys.readouterr())


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs whatever the machine has; collects the fork calls."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.fixture
def forked(monkeypatch):
    """Collects what each _forked_rows call returned in this process: its
    rows, or None where _map_rows ran them all again in one process."""
    results = []
    real = nonsieve.cli._forked_rows

    def forked_rows(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(nonsieve.cli, "_forked_rows", forked_rows)
    return results


def serial_outcome(capsys, monkeypatch, argv):
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        return outcome(capsys, argv)


def lowest_free_fd() -> int:
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


BELOW = str(FORK_MIN_LIMIT - 1)
AT = str(FORK_MIN_LIMIT)


class TestForkedRows:
    """table2 and figure-data may run their rows in forked workers; the
    result is the serial path's, byte for byte."""

    @pytest.mark.parametrize("argv", [
        ("table2", "--powers", "2,3", "--limits", f"100,{BELOW}", "--float"),
        ("table2", "--powers", "2,3", "--limits", f"100,{AT}", "--float"),
        ("table2", "--powers", "2,3", "--limits", f"100,{BELOW}", "--exact"),
        ("table2", "--powers", "2,3", "--limits", f"100,{AT}", "--format", "json"),
        ("figure-data", "--powers", "2,3", "--limits", BELOW, "--float"),
        ("figure-data", "--powers", "2,3,5,7", "--limits", f"10,{AT}", "--float"),
        ("figure-data", "--powers", "2,3", "--limits", AT, "--exact", "--format", "json"),
        CASES["table2_float_x100000"],
        CASES["figure_data_exact_x60000"],
    ], ids=" ".join)
    def test_forked_stdout_is_the_serial_stdout(self, capsys, monkeypatch, forks, forked, argv):
        result = outcome(capsys, argv)
        largest = int(argv[argv.index("--limits") + 1].split(",")[-1])
        assert bool(forks) == (largest >= FORK_MIN_LIMIT)
        assert [type(rows) for rows in forked] == [list] * bool(forks)
        assert result == serial_outcome(capsys, monkeypatch, argv)
        assert result[0] == 0 and result[2] == ""
        for name in ("table2_float_x100000", "figure_data_exact_x60000"):
            if argv == CASES[name]:
                assert result[1] == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("powers", ["2,11", "11,2", "2,13,11"])
    def test_first_failing_row_gives_the_serial_error(self, capsys, monkeypatch, forks, forked,
                                                     powers):
        # shell:11 and shell:13 reach 2**64 in their census; with two
        # processes, 2,13,11 fails in this one at shell:11 and in the child
        # at shell:13, which comes first
        argv = ("table2", "--precision", "float", "--powers", powers, "--limits", "20000")
        result = outcome(capsys, argv)
        assert forks and forked == [None]
        assert result == serial_outcome(capsys, monkeypatch, argv)
        code, out, err = result
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1

    def test_escaping_exception_is_the_serial_one(self, capsys, monkeypatch, forks, forked):
        # the float walk of shell:200 still ends in an OverflowError
        argv = ("figure-data", "--float", "--powers", "200", "--limits", "20000")
        result = outcome(capsys, argv)
        assert forks and forked == [None]
        assert result == serial_outcome(capsys, monkeypatch, argv)
        assert result[0].startswith("OverflowError: ")

    @pytest.mark.parametrize("sent", [slice(0), slice(-1)], ids=["nothing", "truncated"])
    def test_child_that_sends_no_whole_record_gives_the_serial_run(self, capsys, monkeypatch,
                                                                   forks, forked, sent):
        # only children call marshal.dump; this one sends part of its record
        def dump(value, pipe):
            pipe.write(marshal.dumps(value)[sent])
            pipe.flush()
            os._exit(1)

        argv = ("table2", "--powers", "2,3", "--limits", f"100,{AT}", "--float")
        with monkeypatch.context() as patch:
            patch.setattr("nonsieve.cli.marshal.dump", dump)
            result = outcome(capsys, argv)
        assert forks and forked == [None]
        assert result == serial_outcome(capsys, monkeypatch, argv)
        assert result[0] == 0 and result[2] == ""

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failed_fork_gives_the_serial_run_and_leaks_no_fd(self, capsys, monkeypatch, forked,
                                                              failing):
        # three CPUs, three rows: the failing fork is the first, or the
        # second with one child already running
        real_fork, calls = os.fork, []

        def fork():
            calls.append(os.getpid())
            if len(calls) == failing:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", fork)
        argv = ("figure-data", "--powers", "2,3", "--limits", f"100,{AT}", "--float")
        lowest = lowest_free_fd()
        result = outcome(capsys, argv)
        assert lowest_free_fd() == lowest
        assert len(calls) == failing and forked == [None]
        assert result == serial_outcome(capsys, monkeypatch, argv)
        assert result[0] == 0 and result[2] == ""

    @pytest.mark.parametrize("argv", [
        ("table2", "--powers", "2,3", "--limits", BELOW, "--float"),
        ("table2", "--powers", "3", "--limits", AT, "--float"),
        ("figure-data", "--powers", "", "--limits", AT),
        *(argv for name, argv in CASES.items() if name.startswith("readme_")),
    ], ids=" ".join)
    def test_no_fork_below_the_limit_with_one_row_or_for_readme_commands(self, capsys, forks,
                                                                          argv):
        assert outcome(capsys, argv)[0] == 0 and not forks

    def test_no_fork_with_one_usable_cpu(self, capsys, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert outcome(capsys, ("table2", "--powers", "2,3", "--limits", AT, "--float"))[0] == 0
        assert not forks

    def test_no_fork_with_a_second_thread_alive(self, capsys, forks):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert outcome(capsys, ("figure-data", "--powers", "2", "--limits", AT))[0] == 0
            assert not forks
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


HUGE = "9" * 30  # above sys.maxsize


class TestBadInputExitCodes:
    """Each bad input ends with its documented exit code and one error line."""

    def run_err(self, capsys, *argv):
        code = run(list(argv))
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return code

    def config(self, tmp_path, **data):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"poly": "shell:3", **data}))
        return str(path)

    def test_infinite_exponent(self, capsys):
        assert self.run_err(capsys, "residual", "--poly", "shell:3", "--x", "10", "--s", "inf") == 2

    def test_non_numeric_exponent_in_config(self, capsys, tmp_path):
        cfg = self.config(tmp_path, s="abc")
        assert self.run_err(capsys, "residual", "--config", cfg) == 2

    def test_scalar_limits_in_config(self, capsys, tmp_path):
        cfg = self.config(tmp_path, limits=5)
        assert self.run_err(capsys, "residual", "--config", cfg) == 2

    def test_non_string_poly_in_config(self, capsys, tmp_path):
        cfg = self.config(tmp_path, poly=5, limits=[3])
        assert self.run_err(capsys, "residual", "--config", cfg) == 2

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        # table2 --limits 99999999999 runs out of memory in the census's
        # sieve; a stand-in raises instead of allocating for real
        def census_scan(poly, x_list):
            raise MemoryError

        monkeypatch.setattr("nonsieve.cli.census_scan", census_scan)
        assert self.run_err(capsys, "table2", "--powers", "2", "--limits", "99999999999") == 2

    def test_exponent_too_large_for_a_float_in_config(self, capsys, tmp_path):
        # float() of a 401-digit int raises OverflowError, not ValueError
        cfg = self.config(tmp_path, limits=[3], s=10**400)
        assert run(["residual", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config 's': bad value {10**400} (") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("table1", "--precision", "float", "--limits", HUGE),  # the census's bytearray
        ("table2", "--limits", f"100,{HUGE}"),
        ("residual", "--poly", "shell:3", "--float", "--x", HUGE),  # islice
        ("figure-data", "--limits", HUGE),
        ("mseries", "--poly", "shell:3", "--x", HUGE),
        ("compare", "--poly", "shell:3", "--float", "--x", HUGE),
        ("table1", "--limits", str(sys.maxsize)),  # limit + 1 sieve flags
    ], ids=["table1", "table2", "residual", "figure-data", "mseries", "compare", "maxsize"])
    def test_limit_past_sys_maxsize(self, capsys, argv):
        limit = argv[-1].split(",")[-1]
        assert run(list(argv)) == 2
        assert capsys.readouterr() == (
            "", f"error: limit {limit} is too large; limits must be below {sys.maxsize}\n")

    def test_limit_past_sys_maxsize_in_config(self, capsys, tmp_path):
        cfg = self.config(tmp_path, limits=[int(HUGE)])
        assert self.run_err(capsys, "table1", "--precision", "float", "--config", cfg) == 2

    @pytest.mark.parametrize("command", ["mseries", "compare"])
    def test_float_reciprocal_above_the_binary64_range(self, capsys, command):
        # 1.0 / f(n) once ended in an OverflowError traceback; f(35) is the
        # first value a float cannot hold
        shell = prime_shell(200)
        float(shell(34))
        with pytest.raises(OverflowError):
            float(shell(35))
        assert run([command, "--poly", "shell:200", "--x", "50", "--float"]) == 2
        assert capsys.readouterr() == ("", "error: prime-shell p=200: f(35) is above the "
                                           "binary64 range; use --precision exact\n")

    def test_missing_config_file_is_an_io_error(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.json")
        assert self.run_err(capsys, "table1", "--config", missing) == 1

    @pytest.mark.parametrize("argv, message", [
        (("table1", "--limits", "1,a"), "--limits takes comma-separated integers, got '1,a'"),
        (("table2", "--powers", "2,x"), "--powers takes comma-separated integers, got '2,x'"),
        (("mseries", "--poly", "shell:3", "--depth", "3.0"),
         """--depth takes an integer >= 2 or "full", got '3.0'"""),
        (("mseries", "--poly", "shell:3", "--x", "3", "--depth", "0"),
         """--depth takes an integer >= 2 or "full", got '0'"""),
        (("compare", "--poly", "shell:3", "--x", "3", "--depth", "-3"),
         """--depth takes an integer >= 2 or "full", got '-3'"""),
    ], ids=["limits", "powers", "depth", "depth_zero", "depth_negative"])
    def test_bad_flag_text_names_the_flag_and_its_form(self, capsys, argv, message):
        # argparse names --x in its own errors; these flags are read after it
        assert run(list(argv)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_x_below_two_is_checked_before_the_full_depth(self, capsys):
        # full depth is x, so a depth check first would report max_depth = 1
        assert run(["mseries", "--poly", "shell:3", "--x", "1"]) == 2
        assert capsys.readouterr().err == "error: need x >= 2, got 1\n"

    def test_limit_below_one(self, capsys):
        assert self.run_err(capsys, "figure-data", "--limits", "0,5") == 2

    @pytest.mark.parametrize("x", ["2", "5"])
    def test_repeated_unit_value_rejected(self, capsys, x):
        # f = n^2 - 3n + 3 has f(1) = f(2) = 1; Z would count both units
        assert run(["residual", "--poly", "3,-3,1", "--x", x]) == 2
        assert capsys.readouterr().err == "error: 3,-3,1 is not increasing at n=1\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
    @pytest.mark.parametrize("command", ["residual", "compare"])
    def test_rational_past_the_digit_limit(self, capsys, command):
        # At x = 1000 the exact rationals of shell:3 have more digits than
        # Python will turn into a str; the advice must be one the CLI takes.
        assert run([command, "--poly", "shell:3", "--x", "1000", "--exact"]) == 2
        assert capsys.readouterr().err == (
            f"error: an exact rational has over {sys.get_int_max_str_digits()} digits in its "
            "numerator or denominator, Python's int-to-str limit; use --precision float\n"
        )

    @pytest.mark.parametrize("key, value", [("precision", "bogus"), ("precision", None),
                                            ("format", "xml"), ("max_depth", 1)])
    def test_config_choice_outside_flag_choices(self, capsys, tmp_path, key, value):
        cfg = self.config(tmp_path, limits=[3], **{key: value})
        assert self.run_err(capsys, "residual", "--config", cfg) == 2

    @pytest.mark.parametrize("command, key, value", [
        ("table2", "powers", [2.9]),
        ("residual", "limits", [100.7]),
        ("residual", "limits", [True]),
        ("compare", "max_depth", 2.5),
        ("residual", "s", True),
        ("residual", "s", "2"),
    ])
    def test_config_non_integer_rejected(self, capsys, tmp_path, command, key, value):
        cfg = self.config(tmp_path, **{"limits": [8], key: value})
        assert self.run_err(capsys, command, "--config", cfg) == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        # ignored, "limit" would leave table1 at its default limits, exit 0
        cfg = self.config(tmp_path, limit=[5], depth=3)
        assert run(["table1", "--config", cfg]) == 2
        assert capsys.readouterr() == ("", (
            "error: config has unknown keys: 'depth', 'limit'; valid keys: "
            "poly, s, precision, format, out, powers, limits, max_depth\n"))

    def test_large_integral_exponent_prints_as_a_float(self, capsys):
        # as an int, s = 1e300 would print as 301 digits
        argv = ["residual", "--poly", "shell:3", "--x", "10", "--s", "1e300", "--float"]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: prime-shell p=3: float M(10) at s=1e+300 underflows to 0.0: "
            "|M| is below the binary64 range\n")

    def test_config_integers_and_choices_accepted(self, capsys, tmp_path):
        cfg = self.config(tmp_path, limits=[8], max_depth=3, precision="float", format="json")
        code, out = run_cli(capsys, "compare", "--config", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["depth"] == 3 and payload["mode"] == "float"


def test_edge_cases_report_in_results_and_never_warn(capsys):
    """The empty product, unit outputs and depths above x each have a defined
    value, and the result carries the case; none of them warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for poly, x in ((integers(), 1), (prime_shell(1), 50)):
            assert euler_product_partial(poly, x).rational == 1
            res = residual(poly, x)
            assert res.empty_product and res.start_index is None
        assert census(prime_shell(1), 20).skipped_units == 19
        assert sigma_chain(integers(), 2, 3).rational == 0
        assert run(["table1", "--limits", "1,2"]) == 0
        assert capsys.readouterr().err == ""
