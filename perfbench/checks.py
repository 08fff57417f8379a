"""Output checks for the benchmark's CLI commands.

Every value a command prints is checked against values the code under
test did not produce in the same run:

- independent references computed here: M = Z*P - 1 in 50-digit decimal
  arithmetic, exact rationals built from integer products, prime counts by
  a Miller-Rabin test with a different deterministic base set, log sums by
  ``math.fsum``, and the literal series by a generating-function sweep
  (a different algorithm from the package's depth-by-depth DP);
- the published M cells in ``nonsieve.reference.REFERENCE_M``;
- ``expansion_oracle`` and ``enumerate_oracle`` at small x;
- the golden values committed for seed 0, made at the seed commit.

Exact-mode decimal strings must be the correctly rounded 14-place value;
float-mode values must lie within FLOAT_TOL of the exact value.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

FLOAT_TOL = 1e-13  # the package's float-mode accuracy contract
LOG_SUM_TOL = 1e-5  # log sums are printed to 5 places
# Float series terms come from an uncompensated DP over positive terms:
# relative error ~ (2x + depth) * 2**-53, well inside 1e-10 for x <= 10**4.
SERIES_REL_TOL = 1e-10
MATCH_TOLERANCE = 1e-12  # compare_to_residual's default tolerance
FLOAT_TERM_CUTOFF = 1e-16  # relative to the running sum, two consecutive depths
PREC = 50
HALF_ULP_14 = Decimal("5e-15")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class CheckFailure(Exception):
    """An output disagrees with its reference."""


def _fail(msg: str):
    raise CheckFailure(msg)


# ---------------------------------------------------------------- requests


@dataclass(frozen=True)
class Request:
    """The parameters a command line asks for, parsed independently of the
    package's own argument handling."""

    command: str
    poly: str | None
    powers: tuple[int, ...]
    limits: tuple[int, ...]
    s: float
    mode: str
    depth: int | None
    fmt: str

    @staticmethod
    def parse(argv) -> "Request":
        argv = list(argv)
        opts = {}
        i = 1
        while i < len(argv):
            key = argv[i]
            if key in ("--exact", "--float"):
                opts["precision"] = key[2:]
                i += 1
            else:
                opts[key[2:]] = argv[i + 1]
                i += 2
        limits = [100, 200]
        if "limits" in opts:
            limits = [int(v) for v in opts["limits"].split(",")]
        if "x" in opts:
            limits = [int(opts["x"])]
        depth = opts.get("depth", "full")
        return Request(
            command=argv[0],
            poly=opts.get("poly"),
            powers=tuple(int(p) for p in opts.get("powers", "2,3,5,7").split(",")),
            limits=tuple(limits),
            s=float(opts.get("s", 1)),
            mode=opts.get("precision", "exact"),
            depth=None if depth == "full" else int(depth),
            fmt=opts.get("format", "csv"),
        )


# ------------------------------------------------------------- polynomials


@dataclass(frozen=True)
class Poly:
    """f(n) evaluated directly from its definition (n**p - (n-1)**p for a
    shell), not from the package's coefficient expansion."""

    key: str  # the label the package prints for this polynomial
    row_key: object = None  # the key the published tables use
    shell: int | None = None
    coeffs: tuple[int, ...] = ()

    def __call__(self, n: int) -> int:
        if self.shell is not None:
            return n**self.shell - (n - 1) ** self.shell
        return sum(c * n**k for k, c in enumerate(self.coeffs))

    @property
    def ident(self) -> tuple[int, ...]:
        """f(1..12): the same for every description of one polynomial of
        degree below 12, so references are shared between them."""
        return tuple(self(n) for n in range(1, 13))


def shell_poly(p: int) -> Poly:
    return Poly(f"prime-shell p={p}", p, shell=p)


INTEGERS = Poly("integers", "integers", coeffs=(0, 1))


def poly_from_spec(spec: str) -> Poly:
    if spec == "integers":
        return INTEGERS
    if spec.startswith("shell:"):
        return shell_poly(int(spec[6:]))
    return Poly(spec, coeffs=tuple(int(c) for c in spec.split(",")))


# -------------------------------------------------------------- references


def _term(v: int, s: float) -> Decimal:
    """1 / v**s for integer or half-integer s, in the active context."""
    d = Decimal(v)
    k = int(s)
    if s == k:
        return 1 / d**k
    if s - k == 0.5:
        return 1 / (d**k * d.sqrt())
    raise ValueError(f"reference supports integer and half-integer s, got {s}")


class References:
    """Memoized independent reference values, shared by the output checks
    and the traced run."""

    def __init__(self):
        self._zpm = {}
        self._census = {}

    def zpm(self, poly: Poly, s: float, xs) -> dict[int, tuple[Decimal, Decimal, Decimal]]:
        """(Z, P, M = Z*P - 1) to 50 significant digits at each x in xs."""
        memo = self._zpm.setdefault((poly.ident, s), {})
        missing = sorted(set(xs) - memo.keys())
        if missing:
            want = set(missing)
            with localcontext() as ctx:
                ctx.prec = PREC
                f1 = poly(1)
                z = Decimal(1 if f1 > 1 else 0)
                p = Decimal(1)
                for n in range(1, missing[-1] + 1):
                    v = f1 if n == 1 else poly(n)
                    t = _term(v, s)
                    z += t
                    if v >= 2:
                        p *= 1 - t
                    if n in want:
                        memo[n] = (+z, +p, z * p - 1)
        return {x: memo[x] for x in xs}

    def m_values(self, poly: Poly, s: float, xs) -> dict[int, Decimal]:
        return {x: zpm[2] for x, zpm in self.zpm(poly, s, xs).items()}

    def census(self, poly: Poly, xs) -> dict[int, tuple[int, float]]:
        """(prime count over n <= x, sum_{n=2}^{x} 1/ln f(n)) at each x."""
        memo = self._census.setdefault(poly.ident, {})
        missing = sorted(set(xs) - memo.keys())
        if missing:
            want = set(missing)
            count = 0
            logs = []
            for n in range(1, missing[-1] + 1):
                v = poly(n)
                count += _is_prime(v)
                if n >= 2 and v != 1:
                    logs.append(1.0 / math.log(v))
                if n in want:
                    memo[n] = (count, math.fsum(logs))
        return {x: memo[x] for x in xs}


def exact_zpm(poly: Poly, s: int, x: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact Z, P and M from integer products: P = prod(v^s - 1) / prod v^s
    and Z = [f(1) > 1] + sum 1/v^s by pairwise merging."""
    vals = [poly(n) ** s for n in range(1, x + 1)]
    fracs = [(1, v) for v in vals]
    while len(fracs) > 1:
        merged = [
            (a * d + c * b, b * d) for (a, b), (c, d) in zip(fracs[::2], fracs[1::2])
        ]
        if len(fracs) % 2:
            merged.append(fracs[-1])
        fracs = merged
    z = Fraction(*fracs[0]) + (1 if vals[0] > 1 else 0)
    factors = [v for v in vals if v >= 2]
    p = Fraction(math.prod(v - 1 for v in factors), math.prod(factors))
    return z, p, z * p - 1


def series_magnitudes(a: list, depth: int) -> list:
    """Unsigned depth-d magnitudes of the literal series for d = 2..depth.

    a[n] = 1/f(n) for n = 2..x.  The depth-d magnitude is
    sum_j a_j S_j e_{d-2}(a_{j+1..x}) with S_j = sum_{2<=i<=j} a_i and e_m
    the elementary symmetric polynomials, which one backward sweep carries
    as the coefficients of prod_{k>j} (1 + a_k t)."""
    x = len(a) - 1
    prefix = [0] * (x + 1)
    running = 0
    for j in range(2, x + 1):
        running = running + a[j]
        prefix[j] = running
    zero = a[2] * 0
    one = zero + 1
    width = depth - 1
    e = [one] + [zero] * (width - 1)
    mags = [zero] * width
    for j in range(x, 1, -1):
        w = a[j] * prefix[j]
        for m in range(width):
            mags[m] = mags[m] + w * e[m]
        for m in range(width - 1, 0, -1):
            e[m] = e[m] + a[j] * e[m - 1]
    return mags


# ------------------------------------------------------------- primality

_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)  # deterministic < 2**64
_TRIAL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _is_prime(v: int) -> bool:
    if v < 2:
        return False
    for q in _TRIAL:
        if v % q == 0:
            return v == q
    d, r = v - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _BASES:
        b = base % v
        if b == 0:
            continue
        y = pow(b, d, v)
        if y == 1 or y == v - 1:
            continue
        for _ in range(r - 1):
            y = y * y % v
            if y == v - 1:
                break
        else:
            return False
    return True


# ----------------------------------------------------------------- parsing


def _rows(req: Request, text: str) -> list[dict]:
    if req.fmt == "json":
        return json.loads(text)
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


def canonical(argv, text: str):
    """The values a command printed, in a form that ignores layout: table
    and figure rows as dicts, the JSON commands as their payload fields."""
    req = Request.parse(argv)
    if req.command in ("table1", "table2"):
        keys = ("label", "x", "prime_count", "log_density_sum", "m_value", "mode")
        return [{k: str(r[k]) for k in keys} for r in _rows(req, text)]
    if req.command == "figure-data":
        return [{k: str(r[k]) for k in ("label", "x", "m_value")} for r in _rows(req, text)]
    payload = json.loads(text)
    if req.command == "residual":
        keys = ("label", "x", "mode", "start_index", "empty_product",
                "zeta_partial", "product_partial", "m_value")
    elif req.command == "mseries":
        keys = ("label", "x", "depth", "terms", "partial_sum", "residual", "deviation")
    else:
        keys = ("label", "x", "depth", "mode", "partial_sum", "residual", "deviation",
                "verdict", "cutoff_depth")
    return {k: payload[k] for k in keys}


# ------------------------------------------------------------------ checks


def _dec(text) -> Decimal:
    return Decimal(str(text))


def _check_m(printed: str, ref: Decimal, mode: str, where: str) -> None:
    value = _dec(printed)
    if mode == "exact":
        if len(printed.split(".")[-1]) != 14 or abs(value - ref) > HALF_ULP_14:
            _fail(f"{where}: {printed} is not the rounded exact value {ref:.20f}")
    elif abs(value - ref) > Decimal(FLOAT_TOL):
        _fail(f"{where}: float value {printed} differs from exact {ref:.20f} by > {FLOAT_TOL}")


def _check_published(row: dict, poly: Poly, mode: str) -> None:
    from nonsieve.reference import REFERENCE_M

    published = REFERENCE_M.get((poly.row_key, int(row["x"])))
    if published is None:
        return
    where = f"published cell {poly.key} x={row['x']}"
    if mode == "exact" and row["m_value"] != published:
        _fail(f"{where}: {row['m_value']} != {published}")
    if abs(_dec(row["m_value"]) - _dec(published)) > Decimal(FLOAT_TOL) + HALF_ULP_14:
        _fail(f"{where}: {row['m_value']} far from {published}")


def _expect_rows(rows, polys, limits, mode) -> None:
    want = [(p.key, x) for p in polys for x in limits]
    got = [(r["label"], int(r["x"])) for r in rows]
    if got != want:
        _fail(f"rows {got[:4]}... do not match the requested grid {want[:4]}...")
    for r in rows:
        if r.get("mode", mode) != mode:
            _fail(f"row {r['label']} x={r['x']} has mode {r['mode']}, asked {mode}")


def _check_table(req: Request, rows, refs: References) -> None:
    polys = [INTEGERS] if req.command == "table1" else [shell_poly(p) for p in req.powers]
    _expect_rows(rows, polys, req.limits, req.mode)
    it = iter(rows)
    for poly in polys:
        ms = refs.m_values(poly, req.s, req.limits)
        cen = refs.census(poly, req.limits)
        for x in req.limits:
            row = next(it)
            where = f"{req.command} {poly.key} x={x}"
            _check_m(row["m_value"], ms[x], req.mode, where)
            count, log_sum = cen[x]
            if int(row["prime_count"]) != count:
                _fail(f"{where}: prime count {row['prime_count']} != {count}")
            if abs(float(row["log_density_sum"]) - log_sum) > LOG_SUM_TOL:
                _fail(f"{where}: log sum {row['log_density_sum']} != {log_sum:.7f}")
            if req.s == 1:
                _check_published(row, poly, req.mode)


def _check_figure(req: Request, rows, refs: References) -> None:
    polys = [INTEGERS] + [shell_poly(p) for p in req.powers]
    _expect_rows(rows, polys, req.limits, req.mode)
    it = iter(rows)
    for poly in polys:
        ms = refs.m_values(poly, req.s, req.limits)
        for x in req.limits:
            row = next(it)
            _check_m(row["m_value"], ms[x], req.mode, f"figure-data {poly.key} x={x}")


def _check_residual(req: Request, out: dict, refs: References) -> None:
    from nonsieve import expansion_oracle, parse_poly_spec

    poly = poly_from_spec(req.poly)
    x = req.limits[-1]
    if (out["label"], out["x"], out["mode"]) != (poly.key, x, req.mode):
        _fail(f"residual echoes {out['label']} x={out['x']} mode={out['mode']}")
    for name, ref in zip(("zeta_partial", "product_partial", "m_value"), refs.zpm(poly, req.s, [x])[x]):
        _check_m(out[name]["decimal"], ref, req.mode, f"residual {req.poly} x={x} {name}")
    if req.mode != "exact":
        return
    z, p, m = exact_zpm(poly, int(req.s), x)
    for name, val in (("zeta_partial", z), ("product_partial", p), ("m_value", m)):
        if Fraction(out[name]["rational"]) != val:
            _fail(f"residual {req.poly} x={x}: {name} rational differs from exact")
    if x <= 16 and req.s == 1:
        oracle = expansion_oracle(parse_poly_spec(req.poly), x).rational
        if oracle != m:
            _fail(f"expansion_oracle disagrees at {req.poly} x={x}")


def _series_refs(req: Request, poly: Poly, x: int, depth: int):
    """Reference magnitudes for d = 2..depth (float mode: until negligible)."""
    if req.mode == "exact":
        a = [None, None] + [Fraction(1, poly(n)) for n in range(2, x + 1)]
        return series_magnitudes(a, depth)
    with localcontext() as ctx:
        ctx.prec = PREC
        a = [None, None] + [1 / Decimal(poly(n)) for n in range(2, x + 1)]
        width = 32
        while True:
            mags = series_magnitudes(a, min(depth, width + 1))
            if len(mags) == depth - 1 or abs(mags[-1]) < Decimal("1e-40"):
                return mags
            width *= 2


def float_stop_depth(mags, max_depth: int, factor: Decimal) -> int:
    """The depth where the float stop rule ends the series, applied to the
    reference magnitudes: the second of two consecutive depths whose
    magnitude is below factor * 1e-16 of the running signed sum, else
    max_depth."""
    running = Decimal(0)
    streak = 0
    for d, mag in zip(range(2, max_depth + 1), mags):
        running += (-1) ** (d - 1) * mag
        streak = streak + 1 if mag < factor * Decimal(FLOAT_TERM_CUTOFF) * abs(running) else 0
        if streak >= 2:
            return d
    return max_depth


def _check_series(req: Request, out: dict, refs: References) -> None:
    from nonsieve import enumerate_oracle, parse_poly_spec

    poly = poly_from_spec(req.poly)
    x = req.limits[-1]
    depth = x if req.depth is None else req.depth
    where = f"{req.command} {req.poly} x={x} depth={depth} {req.mode}"
    if (out["label"], out["x"], out["depth"]) != (poly.key, x, depth):
        _fail(f"{where}: echoes {out['label']} x={out['x']} depth={out['depth']}")
    mags = _series_refs(req, poly, x, depth)
    signed = [(-1) ** (d - 1) * m for d, m in zip(range(2, depth + 1), mags)]
    if req.mode == "exact":
        _, _, m = exact_zpm(poly, 1, x)
        partial = sum(signed, Fraction(0))
        want = {"partial_sum": partial, "residual": m, "deviation": m - partial}
        for key, val in want.items():
            if Fraction(out[key]) != val:
                _fail(f"{where}: {key} differs from the exact reference")
        if req.command == "mseries":
            got = [(t["d"], t["sign"], Fraction(t["magnitude"])) for t in out["terms"]]
            exp = [(d, (-1) ** (d - 1), v) for d, v in zip(range(2, depth + 1), mags)]
            if got != exp:
                _fail(f"{where}: term magnitudes differ from the exact reference")
        else:
            verdict = "MATCH" if abs(m - partial) <= MATCH_TOLERANCE else "SYSTEMATIC_GAP"
            if out["verdict"] != verdict or out["cutoff_depth"] is not None:
                _fail(f"{where}: verdict {out['verdict']} cutoff {out['cutoff_depth']}")
        if x <= 12 and depth <= 8:
            oracle = enumerate_oracle(parse_poly_spec(req.poly), x, depth)
            if oracle.partial_sum.rational != partial:
                _fail(f"{where}: enumerate_oracle disagrees")
        return

    # float mode: the package stops once terms are negligible, so the
    # partial sum must still be the full reference sum within tolerance
    m_ref = refs.m_values(poly, 1, [x])[x]
    scale = sum(abs(v) for v in mags)
    tol = Decimal(SERIES_REL_TOL) * scale + Decimal(FLOAT_TOL)
    partial = sum(signed)
    if req.command == "mseries":
        terms = out["terms"]
        if not terms or [t["d"] for t in terms] != list(range(2, 2 + len(terms))):
            _fail(f"{where}: term depths {[t['d'] for t in terms][:5]}...")
        for t in terms:
            ref = mags[t["d"] - 2] if t["d"] - 2 < len(mags) else Decimal(0)
            if abs(_dec(t["magnitude"]) - ref) > Decimal(SERIES_REL_TOL) * ref + Decimal("1e-300"):
                _fail(f"{where}: depth {t['d']} magnitude {t['magnitude']} vs {ref:.17e}")
        # a magnitude within the float error of the threshold may go either way
        earliest = float_stop_depth(mags, depth, 1 + Decimal(SERIES_REL_TOL))
        latest = float_stop_depth(mags, depth, 1 - Decimal(SERIES_REL_TOL))
        if not earliest <= terms[-1]["d"] <= latest:
            _fail(f"{where}: series stops at depth {terms[-1]['d']}, expected {earliest}..{latest}")
    else:
        cutoff = out["cutoff_depth"]
        if cutoff is not None and not (
            mags[cutoff - 2] < Decimal(FLOAT_TERM_CUTOFF) * (1 + Decimal(SERIES_REL_TOL))
            and (cutoff == 2 or mags[cutoff - 3] >= Decimal(FLOAT_TERM_CUTOFF) * (1 - Decimal(SERIES_REL_TOL)))
        ):
            _fail(f"{where}: cutoff depth {cutoff} is not the first term below 1e-16")
        gap = abs(m_ref - partial)
        verdict = "MATCH" if gap <= Decimal(MATCH_TOLERANCE) else "SYSTEMATIC_GAP"
        # near the tolerance either verdict is right within the float error
        if out["verdict"] != verdict and abs(gap - Decimal(MATCH_TOLERANCE)) > tol:
            _fail(f"{where}: verdict {out['verdict']}, expected {verdict}")
    if abs(_dec(out["residual"]) - m_ref) > Decimal(FLOAT_TOL):
        _fail(f"{where}: residual {out['residual']} vs exact {m_ref:.20f}")
    if abs(_dec(out["partial_sum"]) - partial) > tol:
        _fail(f"{where}: partial sum {out['partial_sum']} vs {partial:.20f}")
    if abs(_dec(out["deviation"]) - (m_ref - partial)) > tol:
        _fail(f"{where}: deviation {out['deviation']} vs {m_ref - partial:.20f}")


def check_output(argv, text: str, refs: References) -> None:
    """Raise CheckFailure unless every value the command printed is right."""
    req = Request.parse(argv)
    try:
        if req.command in ("table1", "table2"):
            _check_table(req, _rows(req, text), refs)
        elif req.command == "figure-data":
            _check_figure(req, _rows(req, text), refs)
        elif req.command == "residual":
            _check_residual(req, json.loads(text), refs)
        else:
            _check_series(req, json.loads(text), refs)
    except CheckFailure:
        raise
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        _fail(f"unreadable {req.command} output: {exc!r}")


# ------------------------------------------------------------------ golden


M_FIELDS = {"m_value", "residual", "decimal"}  # M, Z and P
SERIES_FIELDS = {"magnitude", "partial_sum", "deviation"}


def _same(got, want, mode: str, key: str = "") -> bool:
    """Exact-mode values must be identical.  Float-mode values may move
    within the tolerances of the independent checks, so a more accurate
    float path still passes; log sums may flip their fifth decimal."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(_same(got.get(k), v, mode, k) for k, v in want.items())
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w, mode, key) for g, w in zip(got, want)))
    if key == "log_density_sum":
        return abs(float(got) - float(want)) <= LOG_SUM_TOL
    if mode == "float" and key in M_FIELDS:
        return abs(float(got) - float(want)) <= FLOAT_TOL
    if mode == "float" and key in SERIES_FIELDS:
        return abs(float(got) - float(want)) <= SERIES_REL_TOL * max(1.0, abs(float(want)))
    return got == want


def load_golden(workload: str, seed: int):
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return data if data["seed"] == seed else None


def check_golden(golden, index: int, argv, text: str) -> None:
    entry = golden["commands"][index]
    if entry["argv"] != list(argv):
        _fail(f"golden command {index} is {entry['argv']}, workload issued {list(argv)}")
    if not _same(canonical(argv, text), entry["values"], Request.parse(argv).mode):
        _fail(f"{' '.join(argv)[:60]}: output differs from the golden values")
