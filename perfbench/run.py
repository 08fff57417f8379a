#!/usr/bin/env python3
"""Benchmark of the nonsieve CLI: three workloads, checked outputs, and
end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload paper-exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # all workloads, each in a fresh process

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy.  The load is a closed loop: one
process, one thread, each command issued through ``nonsieve.cli.run`` after
the previous one returned.  One pass issues every command of the workload
once; pass 0 warms up and its outputs are checked, then the timed passes
(about --seconds in total) must reproduce them byte for byte.  With
``--trace 1`` part of the passes run under the tracer of ``tracing.py``,
and untimed counting passes follow; per-layer metrics are reported instead
of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are
those that BENCHMARK.json names for the chosen trace mode.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PER_PASS = 2  # fresh-interpreter set-ups measured after each timed pass
SETUP_MIN = 15
TRACED_SHARE = 2 / 3  # of --seconds spent in span passes when --trace 1
COUNTING_PASSES = 2  # untimed, after the span passes; two show the counts repeat

# Set-up as a user pays it in a fresh process: import the package, then
# parse and validate the workload's polynomial specs (which includes
# make_polynomial's 1000-point check).  Interpreter start-up is excluded.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import nonsieve
from nonsieve.polynomial import parse_poly_spec
for spec in {specs!r}:
    parse_poly_spec(spec)
elapsed = time.perf_counter() - t0
if not nonsieve.__file__.startswith({src!r}):
    sys.exit("imported " + nonsieve.__file__)
print(elapsed)
"""


def load_package():
    """Import nonsieve from this checkout's src/, or exit without a result."""
    if not (SRC / "nonsieve" / "__init__.py").is_file():
        sys.exit(f"error: no nonsieve package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    os.environ.pop("NONSIEVE_PRECISION", None)  # every command gets the documented default
    import nonsieve
    from nonsieve import cli

    if Path(nonsieve.__file__).resolve().parent != SRC / "nonsieve":
        sys.exit(f"error: imported nonsieve from {nonsieve.__file__}, not {SRC}")
    return cli


@dataclass
class Outcome:
    rc: int | None  # None: an exception escaped cli.run
    out: str
    err: str
    seconds: float


def issue(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.run(list(argv), stdout=out)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception fails the command, not the run
            rc = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = time.perf_counter() - t0
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds)


def run_pass(cli, workload) -> list[Outcome]:
    return [issue(cli, cmd.argv) for cmd in workload.commands]


def traced_pass(cli, workload, counting: bool = False):
    with tracing.Tracer(counting) as tracer:
        return tracer, run_pass(cli, workload)


def timed_passes(cli, workload, seconds: float, traced: bool = False, between=None) -> list:
    """Passes for about `seconds` of pass time: stop when one more would end
    further past it than stopping now ends before it; at least one.  Span
    passes come as (tracer, outcomes) pairs.  `between` runs after each pass."""
    passes = []
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(traced_pass(cli, workload) if traced else run_pass(cli, workload))
        spent += time.perf_counter() - t0
        if between is not None:
            between()
        if spent + 0.5 * spent / len(passes) >= seconds:
            return passes


def phase_times(workload, outcomes) -> dict[str, float]:
    times = {"run_s": 0.0, "table_s": 0.0, "figure_s": 0.0, "series_s": 0.0}
    for cmd, o in zip(workload.commands, outcomes):
        times["run_s"] += o.seconds
        key = f"{cmd.kind}_s"
        if key in times:
            times[key] += o.seconds
    return times


def setup_sample(code: str) -> float:
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], cwd=ROOT, capture_output=True,
        text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.strip())


def describe(samples) -> dict:
    """Median with quartiles, spread (q3 - q1) / median, extremes and
    sample count."""
    d = {"median": statistics.median(samples), "min": min(samples), "max": max(samples), "n": len(samples)}
    if len(samples) >= 2:
        q = statistics.quantiles(samples, n=4)
        d["q1"], d["q3"] = q[0], q[2]
        d["spread"] = (q[2] - q[0]) / d["median"]
    return d


def provenance(workload, args) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=False)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "nonsieve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": workload.seed,
        "why": workload.why,
        "grids": workload.grids,
        "seconds": args.seconds,
        "load": "closed loop, 1 process, 1 thread, 1 command in flight",
    }


class Checker:
    """Checks pass-0 outputs once and later passes against them."""

    def __init__(self, workload):
        self.workload = workload
        self.refs = checks.References()
        self.golden = checks.load_golden(workload.name, workload.seed)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def first_pass(self, outcomes) -> None:
        for i, (cmd, o) in enumerate(zip(self.workload.commands, outcomes)):
            self.attempted += 1
            problem = None
            if o.rc != 0:
                problem = f"exit {o.rc}: {o.err.strip()[:200]}"
            else:
                try:
                    checks.check_output(cmd.argv, o.out, self.refs)
                    if self.golden is not None:
                        checks.check_golden(self.golden, i, cmd.argv, o.out)
                except checks.CheckFailure as exc:
                    problem = str(exc)
            if problem:
                self.failed += 1
                self.failures.append(f"{' '.join(cmd.argv)[:80]}: {problem}")

    def repeat_pass(self, first, outcomes) -> None:
        for cmd, a, b in zip(self.workload.commands, first, outcomes):
            self.attempted += 1
            if (b.rc, b.out) != (a.rc, a.out):
                self.failed += 1
                self.failures.append(f"{' '.join(cmd.argv)[:80]}: output changed between passes")


def run_probes(cli, checker, probes) -> list[dict]:
    """The known-failing inputs, once each: a probe passes when it exits 0
    and its output passes the same checks as a timed command's."""
    results = []
    for argv in probes:
        o = issue(cli, argv)
        error = o.err.strip().splitlines()[-1][:200] if o.err.strip() else ""
        if o.rc == 0:
            try:
                checks.check_output(argv, o.out, checker.refs)
            except checks.CheckFailure as exc:
                error = str(exc)[:200]
        results.append({"argv": list(argv), "rc": o.rc, "ok": o.rc == 0 and not error, "error": error})
    return results


def float_error_max(tracer, refs) -> float:
    """Largest |float M - exact M| over the float results the traced pass saw."""
    worst = 0.0
    for coeffs, s, x, approx, comp in tracer.float_results():
        poly = checks.Poly(",".join(map(str, coeffs)), coeffs=tuple(coeffs))
        ref = refs.m_values(poly, s, [x])[x]
        worst = max(worst, float(abs(Decimal(approx) + Decimal(comp) - ref)))
    return worst


def needed_outputs(workload) -> int:
    """Distinct (f, n) pairs the commands need: per command and polynomial,
    n = 1..(largest limit)."""
    total = 0
    for cmd in workload.commands:
        req = checks.Request.parse(cmd.argv)
        polys = {"table2": len(req.powers), "figure-data": 1 + len(req.powers)}.get(req.command, 1)
        total += max(req.limits) * polys
    return total


def per_layer(workload, traced, counted, checker, report) -> dict:
    """Per-layer metrics: times are medians over the span passes (is_prime's
    over the counting passes); every other metric is a property of the
    inputs and must repeat exactly."""
    clock_read = tracing.clock_read_s()
    needed = needed_outputs(workload)
    per_pass = [tracing.layer_metrics(t, float_error_max(t, checker.refs)) for t, _ in traced]
    per_count = [tracing.count_metrics(t, needed, clock_read) for t, _ in counted]
    repeat = all(
        p[k] == group[0][k] for group in (per_pass, per_count) for p in group for k in p if p[k][1] != "s"
    )
    if not repeat:
        checker.failures.append("traced counts differ between identical passes")
    metrics = {}
    for group in (per_pass, per_count):
        metrics.update({
            k: (statistics.median(p[k][0] for p in group) if u == "s" else v, u)
            for k, (v, u) in group[0].items()
        })
    traced_run = statistics.median(phase_times(workload, o)["run_s"] for _, o in traced)
    untraced_run = report["end_to_end"]["run_s"]["median"]
    report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["tracing"] = {
        "span_passes": len(traced),
        "counting_passes": len(counted),
        "is_prime_clock_correction_s": clock_read * per_count[0]["primes.is_prime_calls"][0],
        "traced_run_s": traced_run,
        "untraced_run_s": untraced_run,
        "counting_run_s": statistics.median(phase_times(workload, o)["run_s"] for _, o in counted),
        "overhead_s": traced_run - untraced_run,
        "counts_repeat_across_passes": repeat,
        "waiting": tracing.WAITING,
        "spans_file": write_spans(workload, traced[0][0]),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, args.seed)

    report = {"provenance": provenance(workload, args), "trace": args.trace}
    stamps = [("start", time.perf_counter())]
    first = run_pass(cli, workload)
    stamps.append(("pass0", time.perf_counter()))
    if args.trace == 0:
        # Set-up samples are spread over the run, between passes, so that
        # their median sees the same machine as the passes do.
        code = SETUP_CODE.format(src=str(SRC), specs=list(workload.poly_specs))
        setup_sample(code)  # compiles bytecode, not counted
        setup = []
        passes = timed_passes(cli, workload, args.seconds,
                              between=lambda: setup.extend(setup_sample(code) for _ in range(SETUP_PER_PASS)))
        while len(setup) < SETUP_MIN:
            setup.append(setup_sample(code))
        traced = counted = []
    else:  # a third of the time untraced, for the overhead, the rest in span passes
        passes = timed_passes(cli, workload, args.seconds * (1 - TRACED_SHARE))
        traced = timed_passes(cli, workload, args.seconds * TRACED_SHARE, traced=True)
        counted = [traced_pass(cli, workload, counting=True) for _ in range(COUNTING_PASSES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stamps.append(("passes", time.perf_counter()))
    checker = Checker(workload)
    probes = run_probes(cli, checker, workloads.PROBES)
    stamps.append(("probes", time.perf_counter()))
    checker.first_pass(first)
    for outcomes in passes + [o for _, o in traced + counted]:
        checker.repeat_pass(first, outcomes)
    stamps.append(("checks", time.perf_counter()))
    report["harness_s"] = {b[0]: b[1] - a[1] for a, b in zip(stamps, stamps[1:])}

    phases = [phase_times(workload, o) for o in passes]
    e2e = {k: dict(describe([p[k] for p in phases]), unit="s") for k in phases[0]}
    if args.trace == 0:
        e2e["setup_s"] = dict(describe(setup), unit="s")
        e2e["peak_rss_mb"] = dict(describe([peak_rss_mb]), unit="MB")
    report["end_to_end"] = e2e
    if args.trace == 0:
        metrics = {k: (d["median"], d["unit"]) for k, d in e2e.items()}
    else:
        metrics = per_layer(workload, traced, counted, checker, report)
    report["ops"] = {
        "ops_total": checker.attempted + len(probes),
        "ops_failed": checker.failed + sum(not p["ok"] for p in probes),
        "timed_attempted": checker.attempted,
        "timed_failed": checker.failed,
        "probes": probes,
        "failures": checker.failures[:20],
    }
    report["golden_checked"] = checker.golden is not None
    print_report(report)

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        sys.exit(f"error: BENCHMARK.json names metrics this run does not produce: {missing}")
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


def print_report(report) -> None:
    prov = report["provenance"]
    print(f"# workload {prov['workload']}  seed {prov['seed']}  trace {report['trace']}")
    print(f"#   {prov['why']}")
    print(f"#   python {prov['python']} on {prov['platform']}, nproc {prov['nproc']}, "
          f"git {prov['git_rev'] or 'n/a (not a git checkout)'}, src sha256 {prov['src_sha256'][:16]}")
    print(f"#   grids {json.dumps(prov['grids'])}")
    for name, d in report["end_to_end"].items():
        print(f"  {name:<14} {d['median']:.6g} {d['unit']:<3} median of n={d['n']}"
              f" (min {d['min']:.6g}, max {d['max']:.6g})")
    ops = report["ops"]
    print(f"  ops_failed     {ops['ops_failed']} count (timed {ops['timed_failed']}, "
          f"probes {sum(not p['ok'] for p in ops['probes'])})")
    print(f"  ops_total      {ops['ops_total']} count (timed {ops['timed_attempted']}, "
          f"probes {len(ops['probes'])})")
    for p in ops["probes"]:
        state = "ok" if p["ok"] else f"FAILS (exit {p['rc']}: {p['error']})"
        print(f"  probe {' '.join(p['argv'])}: {state}")
    for f in ops["failures"]:
        print(f"  FAILED {f}")
    if "per_layer" in report:
        for name, d in report["per_layer"].items():
            print(f"  {name:<28} {d['value']:.6g} {d['unit']}")
        tr = report["tracing"]
        print(f"  tracing overhead {tr['overhead_s']:.4g} s per span pass "
              f"(traced {tr['traced_run_s']:.4g} s vs untraced {tr['untraced_run_s']:.4g} s)")
        print(f"  counts from {tr['counting_passes']} untimed counting passes ({tr['counting_run_s']:.4g} s each); "
              f"is_prime_s less {tr['is_prime_clock_correction_s']:.4g} s of clock reads")
        print(f"  waiting: {tr['waiting']}")
        print(f"  spans written to {tr['spans_file']}")
    print("# report " + json.dumps(report, default=str))


def write_spans(workload, tracer) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{workload.seed}-spans.json"
    path.write_text(json.dumps(tracer.spans, default=str))
    return str(path.relative_to(ROOT))


def run_all(args, names) -> int:
    """Each workload in a fresh process, so set-up and peak memory are its own."""
    ok = True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
