"""In-memory spans around the package's public functions, and the
per-layer metrics computed from them.

``Tracer`` replaces each target function by a wrapper in every
``nonsieve`` module that holds it by name (``cli``, ``mseries`` and
``residual`` import each other's functions directly), and restores the
originals on exit.  It has two kinds of pass:

- a span pass (``Tracer()``) wraps the span targets only and records a
  span per call with name, start, end, parent and size attributes.  A
  span's self time is its duration minus the whole time its traced
  children took, wrapper work included, so the tracer's own cost stays out
  of the caller's self time.  The frequent small calls (polynomial
  evaluation, ``is_prime``, compensated adds and multiplies) are left
  unwrapped: their time lies in the self time of the span that calls them.
- a counting pass (``Tracer(counting=True)``) wraps only those frequent
  calls, counts them and the True results, and times each call from the
  inside.  Its span targets are left alone, so no layer time is taken
  from it except ``is_prime``'s own.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("polynomial", "numerics", "residual", "mseries", "primes", "cli")


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "function" or "Class.method"
    name: str
    layer: str
    frequent: bool = False  # wrapped in counting passes, not in span passes


TARGETS = (
    Target("nonsieve.polynomial", "IntegerPolynomial.__call__", "polynomial.eval", "polynomial", True),
    Target("nonsieve.polynomial", "validate_monotone", "polynomial.validate_monotone", "polynomial"),
    Target("nonsieve.polynomial", "parse_poly_spec", "polynomial.parse_poly_spec", "polynomial"),
    Target("nonsieve.polynomial", "make_polynomial", "polynomial.make_polynomial", "polynomial"),
    Target("nonsieve.numerics", "PrecisionValue.decimal_str", "numerics.decimal_str", "numerics"),
    Target("nonsieve.numerics", "KahanSum.add", "numerics.kahan_add", "numerics", True),
    Target("nonsieve.numerics", "CompensatedProduct.multiply", "numerics.product_mult", "numerics", True),
    Target("nonsieve.residual", "zeta_partial", "residual.zeta_partial", "residual"),
    Target("nonsieve.residual", "euler_product_partial", "residual.euler_product_partial", "residual"),
    Target("nonsieve.residual", "residual", "residual.residual", "residual"),
    Target("nonsieve.residual", "residual_scan", "residual.residual_scan", "residual"),
    Target("nonsieve.primes", "census", "primes.census", "primes"),
    Target("nonsieve.primes", "is_prime", "primes.is_prime", "primes", True),
    Target("nonsieve.mseries", "sigma_chain", "mseries.sigma_chain", "mseries"),
    Target("nonsieve.mseries", "mseries_literal", "mseries.mseries_literal", "mseries"),
    Target("nonsieve.mseries", "compare_to_residual", "mseries.compare_to_residual", "mseries"),
    Target("nonsieve.cli", "run", "cli.run", "cli"),
)

# The residual() call that mseries makes to get its reference value is
# named apart from the CLI's own residual() calls.
ALIASES = {("nonsieve.mseries", "residual.residual"): "mseries.residual_ref"}

BUILD = ("polynomial.parse_poly_spec", "polynomial.make_polynomial")
WAITING = "none: one thread, no queues and no I/O inside a command, so no layer waits on another"


def _bits(pv) -> int:
    r = getattr(pv, "rational", None)
    return 0 if r is None else max(r.numerator.bit_length(), r.denominator.bit_length())


def _result_attrs(result) -> dict:
    """Size attributes of a PrecisionValue, a ResidualResult or a list of them."""
    if isinstance(result, list):
        parts = [_result_attrs(r) for r in result]
        out = {"bits": max((p.get("bits", 0) for p in parts), default=0)}
        out["float_m"] = [f for p in parts for f in p.get("float_m", [])]
        return out
    if hasattr(result, "m_value"):  # ResidualResult
        pvs = (result.zeta_partial, result.product_partial, result.m_value)
        out = {"bits": max(_bits(pv) for pv in pvs)}
        m = result.m_value
        if m.rational is None:
            out["float_m"] = [(result.x, m.approx, m.comp)]
        return out
    if hasattr(result, "rational"):  # PrecisionValue
        return {"bits": _bits(result)}
    if hasattr(result, "terms"):  # MSeriesExpansion
        return {"terms": len(result.terms)}
    if hasattr(result, "prime_count"):  # PrimeCensus
        return {"primes": result.prime_count}
    return {}


_ARG_ATTRS = ("x", "depth", "max_depth", "mode", "s", "places")


def clock_read_s(batches: int = 5, reads: int = 20000) -> float:
    """Median time between two consecutive clock reads: what a counting
    wrapper's inside timing adds to each call it times."""
    clock = time.perf_counter
    per_batch = []
    for _ in range(batches):
        gaps = 0.0
        for _ in range(reads):
            t0 = clock()
            gaps += clock() - t0
        per_batch.append(gaps / reads)
    return sorted(per_batch)[batches // 2]


class Tracer:
    """Context manager: patch the targets, collect spans and totals."""

    def __init__(self, counting: bool = False):
        self.counting = counting
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s, true_results]
        self.layer_of: dict[str, str] = {}
        self._stack: list[list] = []  # one [child_time, span_id] per active call
        self._patched: list[tuple] = []

    # -- patching

    def __enter__(self) -> "Tracer":
        for target in TARGETS:
            if target.frequent != self.counting:
                continue
            owner_name, _, attr = target.attr.rpartition(".")
            home = sys.modules[target.module]
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, attr)
            if owner_name:  # a method: patch the class once
                self._patch(owner, attr, original, target, target.name)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "nonsieve" or getattr(mod, attr, None) is not original:
                    continue
                name = ALIASES.get((mod_name, target.name), target.name)
                self._patch(mod, attr, original, target, name)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, target: Target, name: str) -> None:
        self.layer_of[name] = target.layer
        wrapper = self._count_wrapper(original, name) if self.counting else self._span_wrapper(original, name)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _count_wrapper(self, fn, name):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                totals[0] += 1
                totals[1] += dt
                totals[2] += dt
            if result is True:
                totals[3] += 1
            return result

        return traced

    def _span_wrapper(self, fn, name):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        stack, clock, spans = self._stack, time.perf_counter, self.spans
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            t_in = clock()
            parent = stack[-1][1] if stack else None
            span = {"id": len(spans), "name": name, "parent": parent}
            spans.append(span)
            frame = [0.0, span["id"]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:  # the wrapper's set-up counts as the child's, not the parent's
                    stack[-1][0] += t1 - t_in
                totals[0] += 1
                totals[1] += dt
                totals[2] += dt - frame[0]
                span.update(start=t0, end=t1, self_s=dt - frame[0])
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key in _ARG_ATTRS:
                if key in bound.arguments and isinstance(bound.arguments[key], (int, float, str)):
                    span[key] = bound.arguments[key]
            if "x_list" in bound.arguments:
                span["x"] = list(bound.arguments["x_list"])[-1]
            if "argv" in bound.arguments:
                span["command"] = bound.arguments["argv"][0]
            poly = bound.arguments.get("poly") or bound.arguments.get("self")
            if name.startswith("residual.") or name == "mseries.residual_ref":
                span["poly"] = poly.coefficients
            span.update(_result_attrs(result))
            if stack:  # and so does the attribute work after the call
                stack[-1][0] += clock() - t1
            return result

        return traced

    # -- results

    def metric_totals(self, name: str) -> tuple[int, float, float, int]:
        """(calls, inclusive seconds, self seconds, calls that returned True)."""
        return tuple(self.totals.get(name, (0, 0.0, 0.0, 0)))

    def float_results(self):
        """(poly coefficients, s, x, approx, comp) of every float-mode M the
        residual layer returned."""
        for span in self.spans:
            for x, approx, comp in span.get("float_m", ()):
                yield span["poly"], span.get("s", 1), x, approx, comp


def count_metrics(counter: Tracer, needed_outputs: int, clock_read: float) -> dict:
    """The metrics of one counting pass, as {name: (value, unit)}.  The
    inside timing of each is_prime call includes about one clock read,
    which `clock_read` takes off again."""
    t = counter.metric_totals
    evals = t("polynomial.eval")[0]
    is_prime_calls, is_prime_s, _, primes_found = t("primes.is_prime")
    return {
        "polynomial.evals": (evals, "count"),
        "polynomial.evals_per_output": (evals / needed_outputs, "ratio"),
        "numerics.kahan_adds": (t("numerics.kahan_add")[0], "count"),
        "numerics.product_mults": (t("numerics.product_mult")[0], "count"),
        "primes.is_prime_calls": (is_prime_calls, "count"),
        "primes.is_prime_s": (max(is_prime_s - is_prime_calls * clock_read, 0.0), "s"),
        "primes.prime_share": (primes_found / is_prime_calls if is_prime_calls else 0.0, "ratio"),
    }


def layer_metrics(tracer: Tracer, float_err_max: float) -> dict:
    """The metrics of one span pass, as {name: (value, unit)}."""
    t = tracer.metric_totals
    spans = tracer.spans  # a span's id is its index

    def inclusive(name):
        return t(name)[1]

    def self_time(name):
        return t(name)[2]

    build_s = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] in BUILD and (s["parent"] is None or spans[s["parent"]]["name"] not in BUILD)
    )
    sigma = [s for s in spans if s["name"] == "mseries.sigma_chain"]
    residual_bits = max(
        (s.get("bits", 0) for s in spans if s["name"].startswith("residual.") or s["name"] == "mseries.residual_ref"),
        default=0,
    )
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s, _) in tracer.totals.items():
        layer_self[tracer.layer_of[name]] += self_s

    m = {
        "polynomial.validate_s": (inclusive("polynomial.validate_monotone"), "s"),
        "polynomial.build_s": (build_s, "s"),
        "residual.zeta_s": (self_time("residual.zeta_partial"), "s"),
        "residual.product_s": (self_time("residual.euler_product_partial"), "s"),
        "residual.scan_s": (self_time("residual.residual_scan"), "s"),
        "residual.bits_max": (residual_bits, "bits"),
        "numerics.decimal_str_s": (inclusive("numerics.decimal_str"), "s"),
        "numerics.decimal_str_calls": (t("numerics.decimal_str")[0], "count"),
        "numerics.float_err_max": (float_err_max, "abs"),
        "primes.census_s": (inclusive("primes.census"), "s"),
        "primes.census_calls": (t("primes.census")[0], "count"),
        "mseries.sigma_chain_s": (inclusive("mseries.sigma_chain"), "s"),
        "mseries.sigma_chain_calls": (len(sigma), "count"),
        "mseries.depths_evaluated": (
            sum(s["terms"] for s in spans if s["name"] == "mseries.mseries_literal"), "count"),
        # computed from the call sizes, not counted inside the DP
        "mseries.dp_steps_computed": (
            sum((s["depth"] - 1) * (s["x"] - 1) for s in sigma), "count"),
        "mseries.residual_ref_s": (inclusive("mseries.residual_ref"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    return m

