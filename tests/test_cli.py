import json
import warnings

import pytest

from nonsieve import census, euler_product_partial, integers, prime_shell, residual, sigma_chain
from nonsieve.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


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

    def test_missing_config_file_is_an_io_error(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.json")
        assert self.run_err(capsys, "table1", "--config", missing) == 1

    def test_limit_below_one(self, capsys):
        assert self.run_err(capsys, "figure-data", "--limits", "0,5") == 2

    @pytest.mark.parametrize("x", ["2", "5"])
    def test_repeated_unit_value_rejected(self, capsys, x):
        # f = n^2 - 3n + 3 has f(1) = f(2) = 1; Z would count both units
        assert run(["residual", "--poly", "3,-3,1", "--x", x]) == 2
        assert capsys.readouterr().err == "error: 3,-3,1 is not increasing at n=1\n"

    @pytest.mark.parametrize("key, value", [("precision", "bogus"), ("precision", None),
                                            ("format", "xml")])
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
