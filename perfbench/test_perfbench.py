"""Tests of the benchmark's own checks: wrong outputs must count as failed."""

import importlib
import json
from decimal import Decimal
from fractions import Fraction

import checks
import run
import tracing
import workloads

cli = run.load_package()

from nonsieve import enumerate_oracle, prime_shell  # noqa: E402  (imported from src/ by load_package)

SMALL = workloads.Workload(
    name="small", seed=0, why="test", poly_specs=("shell:3",), grids={},
    commands=tuple(workloads.Command(a) for a in (
        ("table1",),
        ("figure-data", "--powers", "3", "--limits", "10,20", "--precision", "float"),
        ("residual", "--poly", "1,2", "--x", "30", "--exact"),
        ("mseries", "--poly", "shell:3", "--x", "9", "--exact"),
        ("compare", "--poly", "shell:2", "--x", "60", "--float"),
    )),
)


def _checked(outcomes):
    checker = run.Checker(SMALL)
    checker.first_pass(outcomes)
    return checker


def test_correct_outputs_pass():
    checker = _checked(run.run_pass(cli, SMALL))
    assert checker.failures == []
    assert (checker.attempted, checker.failed) == (len(SMALL.commands), 0)


def _corrupt(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def test_corrupted_outputs_count_as_failed():
    first = run.run_pass(cli, SMALL)
    edits = {
        0: ("-0.94812622482360", "-0.94812622482361"),  # published cell, last digit
        1: (",10,", ",11,"),  # a row at the wrong x
        2: ('"rational": "', '"rational": "1'),  # exact rational
        3: ('"magnitude": "', '"magnitude": "2'),  # one series term
    }
    for index, (old, new) in edits.items():
        outcomes = list(first)
        o = outcomes[index]
        outcomes[index] = run.Outcome(o.rc, _corrupt(o.out, old, new), o.err, o.seconds)
        checker = _checked(outcomes)
        assert checker.failed == 1, (index, checker.failures)
        assert SMALL.commands[index].argv[0] in checker.failures[0]


def test_float_value_off_by_more_than_contract_fails():
    o = run.issue(cli, ("residual", "--poly", "shell:3", "--x", "50", "--float"))
    value = o.out.split('"m_value": {\n    "decimal": "')[1].split('"')[0]
    shifted = str(Decimal(value) - Decimal("2e-13"))
    refs = checks.References()
    checks.check_output(("residual", "--poly", "shell:3", "--x", "50", "--float"), o.out, refs)
    try:
        checks.check_output(("residual", "--poly", "shell:3", "--x", "50", "--float"),
                            o.out.replace(value, shifted), refs)
    except checks.CheckFailure:
        return
    raise AssertionError("a float M 2e-13 off passed the check")


def test_shortened_float_series_fails():
    argv = ("mseries", "--poly", "shell:2", "--x", "300", "--depth", "full", "--float")
    out = json.loads(run.issue(cli, argv).out)
    refs = checks.References()
    checks.check_output(argv, json.dumps(out), refs)
    assert len(out["terms"]) > 4

    def fails(payload) -> bool:
        try:
            checks.check_output(argv, json.dumps(payload), refs)
        except checks.CheckFailure:
            return True
        return False

    # one negligible term short, every printed sum left as it was
    assert fails({**out, "terms": out["terms"][:-1]})
    # stopped after depth 3, with the sums a series cut there would print
    terms = out["terms"][:2]
    partial = sum(t["sign"] * float(t["magnitude"]) for t in terms)
    cut = {**out, "terms": terms, "partial_sum": repr(partial),
           "deviation": repr(float(out["residual"]) - partial)}
    assert fails(cut)


def test_changed_output_between_passes_fails():
    first = run.run_pass(cli, SMALL)
    second = list(first)
    second[0] = run.Outcome(0, first[0].out + "\n", "", 0.0)
    checker = run.Checker(SMALL)
    checker.repeat_pass(first, second)
    assert checker.failed == 1


def test_escaped_exception_is_a_failed_probe_not_a_crash():
    checker = run.Checker(SMALL)
    (probe,) = run.run_probes(cli, checker, [workloads.PROBES[0]])
    assert probe["rc"] is None and not probe["ok"]
    assert "OverflowError" in probe["error"]


def test_series_reference_matches_enumeration():
    for x in (3, 8, 11):
        a = [None, None] + [Fraction(1, prime_shell(3)(n)) for n in range(2, x + 1)]
        mags = checks.series_magnitudes(a, min(x, 8))
        oracle = enumerate_oracle(prime_shell(3), x, min(x, 8))
        assert mags == [t.magnitude.rational for t in oracle.terms]


def test_tracer_counts_and_restores():
    # the package re-exports functions under the module names, so fetch the modules
    polynomial = importlib.import_module("nonsieve.polynomial")
    residual = importlib.import_module("nonsieve.residual")
    before = residual.zeta_partial
    argv = ("residual", "--poly", "shell:3", "--x", "40", "--exact")
    with tracing.Tracer() as tracer:
        run.issue(cli, argv)
    with tracing.Tracer(counting=True) as counter:
        assert polynomial.IntegerPolynomial.__call__.__name__ == "traced"
        assert residual.zeta_partial is before  # span targets stay unwrapped when counting
        run.issue(cli, argv)
    assert residual.zeta_partial is before
    assert polynomial.IntegerPolynomial.__call__.__name__ == "__call__"
    metrics = tracing.layer_metrics(tracer, float_err_max=0.0)
    assert metrics["residual.bits_max"][0] > 0
    assert "polynomial.eval" not in tracer.totals  # not wrapped in span passes
    counts = tracing.count_metrics(counter, needed_outputs=40, clock_read=0.0)
    assert counts["polynomial.evals"][0] >= 5 * 40
    assert counter.spans == []
    cli_span = next(s for s in tracer.spans if s["name"] == "cli.run")
    zeta = next(s for s in tracer.spans if s["name"] == "residual.zeta_partial")
    assert zeta["x"] == 40 and zeta["mode"] == "exact"
    parent = zeta["parent"]
    while tracer.spans[parent]["parent"] is not None:
        parent = tracer.spans[parent]["parent"]
    assert parent == cli_span["id"]


def test_workloads_depend_only_on_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make(name, 3) == workloads.make(name, 3)
        assert workloads.make(name, 3).commands != workloads.make(name, 4).commands


def test_golden_values_catch_exact_changes_and_tolerate_float_noise():
    exact = ("residual", "--poly", "shell:3", "--x", "20", "--exact")
    floaty = ("residual", "--poly", "shell:3", "--x", "20", "--float")
    outs = {argv: run.issue(cli, argv).out for argv in (exact, floaty)}
    golden = {"commands": [{"argv": list(a), "values": checks.canonical(a, o)} for a, o in outs.items()]}
    checks.check_golden(golden, 0, exact, outs[exact])
    checks.check_golden(golden, 1, floaty, outs[floaty])
    m = golden["commands"][1]["values"]["m_value"]["decimal"]
    nudged = str(Decimal(m) + Decimal("1e-14"))
    checks.check_golden(golden, 1, floaty, outs[floaty].replace(m, nudged))
    digits = golden["commands"][0]["values"]["m_value"]["rational"]
    changed = outs[exact].replace(digits, digits[:-1] + str((int(digits[-1]) + 1) % 10))
    try:
        checks.check_golden(golden, 0, exact, changed)
    except checks.CheckFailure:
        return
    raise AssertionError("a changed exact rational matched the golden values")
