"""Command-line front end: table reproduction, figure data, comparisons.

Exit codes: 0 success (a SYSTEMATIC_GAP verdict is a finding, not a
failure), 1 I/O error, 2 invalid input, 3 internal bound violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

from . import reference
from .errors import BoundViolationError, NonsieveError
from .mseries import compare_to_residual, mseries_literal
from .numerics import EXACT, FLOAT, format_float
from .polynomial import IntegerPolynomial, integers, parse_poly_spec, prime_shell
from .primes import census
from .residual import residual, residual_scan

PRECISION_ENV = "NONSIEVE_PRECISION"

DEFAULT_LIMITS = (100, 200)
DEFAULT_POWERS = (2, 3, 5, 7)

CSV_COLUMNS = ("label", "x", "prime_count", "log_density_sum", "m_value", "mode")


@dataclass
class RunConfig:
    poly: str | None = None
    powers: list[int] = field(default_factory=lambda: list(DEFAULT_POWERS))
    limits: list[int] = field(default_factory=lambda: list(DEFAULT_LIMITS))
    s: float = 1.0
    precision: str = EXACT
    max_depth: int | None = None  # None means full depth
    format: str = "csv"
    out: str | None = None


@dataclass(frozen=True)
class TableRow:
    label: str
    x: int
    prime_count: int
    log_density_sum: float
    m_value: str
    mode: str
    flags: tuple[str, ...] = ()

    def csv_values(self):
        return (
            self.label,
            self.x,
            self.prime_count,
            format_float(self.log_density_sum, 5),
            self.m_value,
            self.mode,
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "x": self.x,
            "prime_count": self.prime_count,
            "log_density_sum": format_float(self.log_density_sum, 5),
            "m_value": self.m_value,
            "mode": self.mode,
            "flags": list(self.flags),
        }


def _s_value(cfg: RunConfig):
    # keep exact-mode friendly integer s when possible
    return int(cfg.s) if float(cfg.s) == int(cfg.s) else float(cfg.s)


def _table_row(poly: IntegerPolynomial, row_key, x: int, cfg: RunConfig) -> TableRow:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cen = census(poly, x)
        res = residual(poly, x, _s_value(cfg), cfg.precision)
    m_string = res.m_value.decimal_str(14)
    flags = []
    if cen.skipped_units:
        flags.append(f"unit_outputs_skipped:{cen.skipped_units}")
    if res.empty_product:
        flags.append("empty_product")
    for name, check in (
        ("m", reference.check_m(row_key, x, m_string)),
        ("prime_count", reference.check_prime_count(row_key, x, cen.prime_count)),
        ("log_sum", reference.check_log_sum(row_key, x, cen.log_density_sum)),
    ):
        if check is not None and not check.matches:
            flags.append(f"{name}_differs_from_reference:{check.reference}")
    return TableRow(
        label=poly.label,
        x=x,
        prime_count=cen.prime_count,
        log_density_sum=cen.log_density_sum,
        m_value=m_string,
        mode=cfg.precision,
        flags=tuple(flags),
    )


def cmd_table1(cfg: RunConfig) -> list[TableRow]:
    poly = integers()
    return [_table_row(poly, "integers", x, cfg) for x in cfg.limits]


def cmd_table2(cfg: RunConfig) -> list[TableRow]:
    rows = []
    for p in cfg.powers:
        poly = prime_shell(p)
        for x in cfg.limits:
            rows.append(_table_row(poly, p, x, cfg))
    return rows


def cmd_figure_data(cfg: RunConfig) -> list[tuple[str, int, str]]:
    """Long-format series (label, x, m) for the integer row and each
    requested shell power."""
    series = [integers()] + [prime_shell(p) for p in cfg.powers]
    points = []
    for poly in series:
        results = residual_scan(poly, cfg.limits, _s_value(cfg), cfg.precision)
        for res in results:
            points.append((poly.label, res.x, res.m_value.decimal_str(14)))
    return points


def _precision_payload(value, mode: str) -> dict:
    payload = {"decimal": value.decimal_str(14)}
    if mode == EXACT:
        payload["rational"] = str(value.rational)
    return payload


def cmd_residual(cfg: RunConfig) -> dict:
    poly = parse_poly_spec(cfg.poly)
    x = cfg.limits[-1]
    res = residual(poly, x, _s_value(cfg), cfg.precision)
    return {
        "label": res.label,
        "x": res.x,
        "s": cfg.s,
        "mode": cfg.precision,
        "start_index": res.start_index,
        "zeta_partial": _precision_payload(res.zeta_partial, cfg.precision),
        "product_partial": _precision_payload(res.product_partial, cfg.precision),
        "m_value": _precision_payload(res.m_value, cfg.precision),
        "empty_product": res.empty_product,
    }


def cmd_mseries(cfg: RunConfig) -> dict:
    poly = parse_poly_spec(cfg.poly)
    x = cfg.limits[-1]
    return mseries_literal(poly, x, cfg.max_depth, cfg.precision).to_dict()


def cmd_compare(cfg: RunConfig) -> dict:
    poly = parse_poly_spec(cfg.poly)
    x = cfg.limits[-1]
    return compare_to_residual(poly, x, cfg.max_depth, cfg.precision).to_dict()


def _emit_csv(header, rows, out) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    out.write(buf.getvalue())


def _emit(cfg: RunConfig, payload, stream) -> None:
    if isinstance(payload, dict):
        stream.write(json.dumps(payload, indent=2) + "\n")
    elif cfg.format == "json":
        if payload and isinstance(payload[0], TableRow):
            stream.write(
                json.dumps([r.to_dict() for r in payload], indent=2) + "\n"
            )
        else:
            stream.write(
                json.dumps(
                    [{"label": l, "x": x, "m_value": m} for l, x, m in payload],
                    indent=2,
                )
                + "\n"
            )
    else:
        if payload and isinstance(payload[0], TableRow):
            _emit_csv(CSV_COLUMNS, [r.csv_values() for r in payload], stream)
        else:
            _emit_csv(("label", "x", "m_value"), payload, stream)


def _parse_int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    return [int(part) for part in text.split(",")]


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a flat JSON object")
    return data


def _text(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected a string or null, got {type(value).__name__}")
    return value


def _int_list(value) -> list[int]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return [int(v) for v in value]


def _depth(value) -> int | None:
    return None if value in (None, "full") else int(value)


# How each config-file key is read; flags are parsed by argparse instead.
CONFIG_KEYS = {
    "poly": _text,
    "s": float,
    "precision": _text,
    "format": _text,
    "out": _text,
    "powers": _int_list,
    "limits": _int_list,
    "max_depth": _depth,
}


def _apply_config(cfg: RunConfig, data: dict) -> None:
    for key, convert in CONFIG_KEYS.items():
        if key in data:
            try:
                setattr(cfg, key, convert(data[key]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config {key!r}: bad value {data[key]!r} ({exc})") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonsieve",
        description=(
            "Truncated zeta sums, truncated Euler products, and the nested "
            "alternating residual series over integer-valued polynomials."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("table1", "table2", "figure-data", "residual", "mseries", "compare"):
        sp = sub.add_parser(name)
        sp.add_argument("--poly", help='polynomial spec: "integers", "shell:p", or "1,-3,3"')
        sp.add_argument("--powers", help="comma-separated shell powers")
        sp.add_argument("--limits", help="comma-separated ascending truncation limits")
        sp.add_argument("--x", type=int, help="single truncation limit (shorthand)")
        sp.add_argument("--s", type=float, help="exponent, default 1")
        sp.add_argument("--depth", help='chain depth: an integer or "full"')
        sp.add_argument("--precision", choices=(EXACT, FLOAT))
        sp.add_argument("--exact", action="store_true", help="same as --precision exact")
        sp.add_argument("--float", dest="float_mode", action="store_true",
                        help="same as --precision float")
        sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--config", help="JSON config file; flags override it")
    return parser


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    cfg.precision = os.environ.get(PRECISION_ENV, cfg.precision)
    if cfg.precision not in (EXACT, FLOAT):
        raise ValueError(f"bad {PRECISION_ENV} value {cfg.precision!r}")
    if args.config:
        _apply_config(cfg, _load_config(args.config))
    if args.poly is not None:
        cfg.poly = args.poly
    if args.powers is not None:
        cfg.powers = _parse_int_list(args.powers)
    if args.limits is not None:
        cfg.limits = _parse_int_list(args.limits)
    if args.x is not None:
        cfg.limits = [args.x]
    if args.s is not None:
        cfg.s = args.s
    if args.depth is not None:
        cfg.max_depth = _depth(args.depth)
    if args.precision is not None:
        cfg.precision = args.precision
    if args.exact:
        cfg.precision = EXACT
    if args.float_mode:
        cfg.precision = FLOAT
    if args.format is not None:
        cfg.format = args.format
    if args.out is not None:
        cfg.out = args.out

    if any(b <= a for a, b in zip(cfg.limits, cfg.limits[1:])):
        raise ValueError(f"limits must be strictly ascending: {cfg.limits}")
    if not cfg.limits:
        raise ValueError("at least one limit is required")
    if not math.isfinite(cfg.s):
        raise ValueError(f"exponent must be finite, got {cfg.s}")
    if cfg.s < 1:
        raise ValueError(f"exponent must be >= 1, got {cfg.s}")
    return cfg


def run(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        command = args.command
        if command in ("residual", "mseries", "compare") and not cfg.poly:
            raise ValueError(f"{command} requires --poly")
        if command == "table1":
            payload = cmd_table1(cfg)
        elif command == "table2":
            payload = cmd_table2(cfg)
        elif command == "figure-data":
            payload = cmd_figure_data(cfg)
        elif command == "residual":
            payload = cmd_residual(cfg)
        elif command == "mseries":
            payload = cmd_mseries(cfg)
        else:
            payload = cmd_compare(cfg)
    except BoundViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NonsieveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the config file could not be read
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                _emit(cfg, payload, fh)
        else:
            _emit(cfg, payload, stdout)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
