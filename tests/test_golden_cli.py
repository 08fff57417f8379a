"""CLI stdout compared byte for byte with golden files.

Each file in tests/golden/ is the stdout of one command below, taken
before the residual, census and CLI code were folded into one pass per
mode, one census loop and one command table.  A refactor that changes a
single byte of any of them fails here.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nonsieve.cli import run

GOLDEN = Path(__file__).parent / "golden"

TREND = ",".join(str(x) for x in range(10, 201, 10))

CASES = {
    # README examples
    "readme_table1": ("table1",),
    "readme_table2": ("table2", "--format", "json"),
    "readme_figure_data": ("figure-data", "--limits", TREND),
    "readme_residual": ("residual", "--poly", "shell:3", "--x", "3", "--exact"),
    "readme_mseries": ("mseries", "--poly", "shell:3", "--x", "3", "--depth", "2", "--exact"),
    "readme_compare": ("compare", "--poly", "shell:3", "--x", "8"),
    # tables and figure data, both formats and both modes
    **{
        f"{name}_{mode}_{fmt}": (cmd, *extra, "--precision", mode, "--format", fmt)
        for name, cmd, extra in (
            ("table1", "table1", ("--limits", "2,50,100")),
            ("table2", "table2", ("--powers", "1,2,3,5", "--limits", "5,60")),
            ("figure_data", "figure-data", ("--powers", "2,3", "--limits", "1,2,7,40,41")),
        )
        for mode in ("exact", "float")
        for fmt in ("csv", "json")
    },
    "table2_s2": ("table2", "--powers", "2,3", "--limits", "30,90", "--s", "2"),
    # limits past 361, where the census sieve bound leaves its floor of 37;
    # both files were written before the census sieved
    "table2_float_x5000": (
        "table2", "--precision", "float", "--powers", "2,3,5", "--limits", "100,200,5000",
    ),
    "table2_exact_x2500": ("table2", "--powers", "2,3", "--limits", "1000,2500"),
    # shell:3 to x = 100000 sieves to isqrt(f(X)) = 173204 with no
    # Miller-Rabin; the file was written while the census sieved to 632
    "table2_float_x100000": (
        "table2", "--precision", "float", "--powers", "2,3", "--limits", "1000,100000",
    ),
    # shells of degree 3, 4 and 6, whose census sieves by roots of unity to
    # 4 X; the file was written while they sieved to 67 by Horner values
    "table2_float_shells457": (
        "table2", "--precision", "float", "--powers", "4,5,7", "--limits", "1000,1150",
    ),
    # the last shell values below 2**64: f(1175) for p = 7 and f(66) for
    # p = 11, where BPSW meets the top of its range; both files were
    # written while the census ran Miller-Rabin with 7 to 12 bases
    "table2_float_shell7_x1175": (
        "table2", "--precision", "float", "--powers", "7", "--limits", "1000,1175",
    ),
    "table2_float_shell11_x66": (
        "table2", "--precision", "float", "--powers", "11", "--limits", "60,66",
    ),
    # exact cells at sizes where a binary-splitting tree per scan took most
    # of the time; all three files were written while each scan built one
    "table2_exact_x1000": ("table2", "--powers", "2,3,5,7", "--limits", "100,200,500,1000"),
    "figure_data_exact_x60000": (
        "figure-data", "--powers", "7", "--limits", "10000,60000", "--exact",
    ),
    "figure_data_exact_s3": (
        "figure-data", "--powers", "3,5", "--limits", "500,5000", "--s", "3", "--exact",
    ),
    "figure_data_float_s15": (
        "figure-data", "--powers", "2", "--limits", "10,50", "--s", "1.5", "--float",
    ),
    # exact full-depth compare: the series benchmark's command, f(1) > 1,
    # and a depth above x; all three files were written before compare
    # summed the full depth in closed form
    "compare_exact_x55": (
        "compare", "--poly", "shell:3", "--x", "55", "--depth", "full", "--exact",
    ),
    "compare_f1_above_one_exact": ("compare", "--poly", "1,1", "--x", "20", "--exact"),
    "compare_depth_above_x_exact": (
        "compare", "--poly", "integers", "--x", "30", "--depth", "40", "--exact",
    ),
    # float residuals on both sides of 2**53: f(8191) is just below it, so the
    # walk reads every f(n) from the binary64 difference table, and n**4
    # passes it at n = 9742, so all of its values stay ints; both files were
    # written while the walk took every f(n) as an int
    "residual_float_binary64_table": (
        "residual", "--poly", "1,0,1,1,2", "--x", "8191", "--float",
    ),
    "residual_float_past_2_53": ("residual", "--poly", "0,0,0,0,1", "--x", "50000", "--float"),
    # single-polynomial commands, both modes
    **{
        f"{name}_{mode}": (cmd, "--poly", poly, "--x", x, *extra, f"--{mode}")
        for name, cmd, poly, x, extra in (
            ("residual", "residual", "1,1,2", "40", ()),
            ("residual_unit", "residual", "1", "5", ()),
            ("mseries", "mseries", "shell:2", "12", ("--depth", "4")),
            ("mseries_full", "mseries", "integers", "9", ("--depth", "full")),
            ("compare", "compare", "shell:3", "12", ("--depth", "full")),
        )
        for mode in ("exact", "float")
    },
    # the series benchmark's float commands at seed 0; both files were
    # written while float mode ran sigma_chain from E_0 at every depth
    "compare_float_x2993": (
        "compare", "--poly", "shell:3", "--x", "2993", "--depth", "full", "--float",
    ),
    "mseries_full_float_x1004": (
        "mseries", "--poly", "shell:2", "--x", "1004", "--depth", "full", "--float",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, monkeypatch):
    monkeypatch.delenv("NONSIEVE_PRECISION", raising=False)
    out = io.StringIO()
    assert run(list(CASES[name]), stdout=out) == 0
    assert out.getvalue() == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


# Run in one fresh interpreter: the float commands and the exact tables read
# no Fraction, and the exact residual after them imports fractions itself.
FRESH_PROCESS = (
    "table2_float_x100000",
    "compare_float_x2993",
    "mseries_full_float_x1004",
    "residual_float_binary64_table",
    "readme_table1",
    "readme_figure_data",
)

FRESH_PROCESS_CODE = """
import io, json, sys
sys.path.insert(0, {src!r})
from nonsieve.cli import run

def loaded():
    return sorted({{"fractions", "decimal"}} & set(sys.modules))

report = {{}}
for name, argv in {cases!r}:
    out = io.StringIO()
    report[name] = (run(list(argv), stdout=out), out.getvalue(), loaded())
out = io.StringIO()
report["readme_residual"] = (run({residual!r}, stdout=out), out.getvalue(), loaded())
print(json.dumps(report))
"""


def test_float_commands_and_exact_tables_load_no_fractions():
    src = Path(__file__).resolve().parent.parent / "src"
    code = FRESH_PROCESS_CODE.format(
        src=str(src),
        cases=[(name, CASES[name]) for name in FRESH_PROCESS],
        residual=list(CASES["readme_residual"]),
    )
    env = {k: v for k, v in os.environ.items() if k != "NONSIEVE_PRECISION"}
    # -S: site may import modules itself; -I: no user site or PYTHON* variables
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, check=True, env=env,
    )
    report = json.loads(proc.stdout)
    for name in FRESH_PROCESS:
        status, stdout, loaded = report[name]
        assert status == 0, name
        assert stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), name
        assert loaded == [], name
    status, stdout, loaded = report["readme_residual"]
    assert status == 0
    assert stdout == (GOLDEN / "readme_residual.txt").read_text(encoding="utf-8")
    assert "fractions" in loaded  # the cold import inside the command
