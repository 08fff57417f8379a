"""Command-line front end: table reproduction, figure data, comparisons.

Exit codes: 0 success (a SYSTEMATIC_GAP verdict is a finding, not a
failure), 1 I/O error, 2 invalid input, including a limit too large for
memory, 3 internal bound violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import marshal
import math
import os
import signal
import sys

from . import reference
from .errors import BoundViolationError, NonsieveError
from .mseries import compare_to_residual, mseries_literal
from .numerics import EXACT, FLOAT, format_float, rational_str
from .polynomial import IntegerPolynomial, integers, parse_poly_spec, prime_shell
from .primes import census_scan
from .residual import residual, residual_scan

PRECISION_ENV = "NONSIEVE_PRECISION"

DEFAULT_LIMITS = (100, 200)
DEFAULT_POWERS = (2, 3, 5, 7)

PRECISIONS = (EXACT, FLOAT)
FORMATS = ("csv", "json")

CSV_COLUMNS = ("label", "x", "prime_count", "log_density_sum", "m_value", "mode")
FIGURE_COLUMNS = ("label", "x", "m_value")

# Rows run in forked workers only from this largest limit on.  On a shared
# 2-vCPU x86_64 machine a fork round trip cost 1.6-1.8 ms, a float row about
# 0.5 us a value, and two processes at once each ran up to 1.6x slower, so
# two rows gain only from about 10**4 values each.  No README command forks.
FORK_MIN_LIMIT = 1 << 14


class RunConfig:
    """One command's settings, filled in from the config file and flags."""

    def __init__(self):
        self.poly: str | None = None
        self.powers: list[int] = list(DEFAULT_POWERS)
        self.limits: list[int] = list(DEFAULT_LIMITS)
        self.s: float = 1.0
        self.precision: str = EXACT
        self.max_depth: int | None = None  # None means full depth
        self.format: str = "csv"
        self.out: str | None = None


def _s_value(cfg: RunConfig):
    # exact mode reads an int; from 2**53 on its size cap refuses s anyway
    return int(cfg.s) if cfg.s.is_integer() and cfg.s < 2**53 else cfg.s


def _table_rows(poly: IntegerPolynomial, row_key, cfg: RunConfig) -> list[dict]:
    """One row per limit, from one census scan and one residual scan."""
    censuses = census_scan(poly, cfg.limits)
    results = residual_scan(poly, cfg.limits, _s_value(cfg), cfg.precision)
    return [_table_row(poly, row_key, cen, res, cfg.precision)
            for cen, res in zip(censuses, results)]


def _table_row(poly: IntegerPolynomial, row_key, cen, res, mode: str) -> dict:
    x = res.x
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
    return {
        "label": poly.label,
        "x": x,
        "prime_count": cen.prime_count,
        "log_density_sum": format_float(cen.log_density_sum, 5),
        "m_value": m_string,
        "mode": mode,
        "flags": flags,
    }


def cmd_table1(cfg: RunConfig) -> list[dict]:
    return _table_rows(integers(), "integers", cfg)


def _worker_count(rows: int, largest_limit: int) -> int:
    """How many processes share the rows: one, unless there are two rows or
    more, the largest limit reaches FORK_MIN_LIMIT, fork is available and no
    second thread could hold a lock that a forked child would inherit."""
    threading = sys.modules.get("threading")  # never imported: no second thread
    if (rows < 2 or largest_limit < FORK_MIN_LIMIT
            or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading is not None and threading.active_count() > 1):
        return 1
    return min(rows, len(os.sched_getaffinity(0)))


def _fork_share(rows_of, items, share: int, k: int):
    """Fork a child that runs rows_of on items share, share + k, ... in order
    and sends each list of rows down a pipe as it finishes; returns (pid,
    read end), or None if fork fails.  The child stops at its first failing
    item, and ends in os._exit: it never returns, flushes stdout or runs
    exit handlers.  Fork, not spawn: a spawned worker would import the
    package and rebuild the polynomials before its first row."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                for item in items[share::k]:
                    marshal.dump(rows_of(item), pipe)
        finally:
            os._exit(0)
    os.close(w)
    return pid, r


def _sent_rows(fd: int):
    """The lists of rows a child sent, up to the first incomplete one."""
    with open(fd, "rb", closefd=False) as pipe:
        while True:
            try:
                yield marshal.load(pipe)
            except EOFError:  # the end, or a child killed mid-write
                return


def _map_rows(rows_of, items, largest_limit: int) -> list[dict]:
    """[row for item in items for row in rows_of(item)], byte for byte and
    with the same first exception, with the items dealt round-robin to k
    processes (see _worker_count): this one runs share 0 and a forked child
    each other share.  Any item whose rows a child did not send, and this
    process's own from its first failure on, run again here in item order,
    so the first failing item raises its own exception.  Only this process
    writes output."""
    k = _worker_count(len(items), largest_limit)
    if k < 2:
        return [row for item in items for row in rows_of(item)]
    done, children = {}, []
    try:
        for share in range(1, k):
            child = _fork_share(rows_of, items, share, k)
            if child is None:
                break
            children.append(child)
        try:
            for i in range(0, len(items), k):
                done[i] = rows_of(items[i])
        except Exception:  # raised again below, after any earlier item's error
            pass
        for share, (_, fd) in enumerate(children, 1):
            done.update(zip(range(share, len(items), k), _sent_rows(fd)))
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)
    return [row for i, item in enumerate(items)
            for row in (done[i] if i in done else rows_of(item))]


def cmd_table2(cfg: RunConfig) -> list[dict]:
    return _map_rows(lambda p: _table_rows(prime_shell(p), p, cfg), cfg.powers, cfg.limits[-1])


def _figure_rows(poly: IntegerPolynomial, cfg: RunConfig) -> list[dict]:
    return [{"label": poly.label, "x": res.x, "m_value": res.m_value.decimal_str(14)}
            for res in residual_scan(poly, cfg.limits, _s_value(cfg), cfg.precision)]


def cmd_figure_data(cfg: RunConfig) -> list[dict]:
    """Long-format series (label, x, m) for the integer row and each
    requested shell power."""
    series = [integers()] + [prime_shell(p) for p in cfg.powers]
    return _map_rows(lambda poly: _figure_rows(poly, cfg), series, cfg.limits[-1])


def _precision_payload(value, mode: str) -> dict:
    payload = {"decimal": value.decimal_str(14)}
    if mode == EXACT:
        payload["rational"] = rational_str(value)
    return payload


def _poly_and_x(cfg: RunConfig, command: str) -> tuple[IntegerPolynomial, int]:
    """The one polynomial and the last limit of a single-polynomial command."""
    if not cfg.poly:
        raise ValueError(f"{command} requires --poly")
    return parse_poly_spec(cfg.poly), cfg.limits[-1]


def cmd_residual(cfg: RunConfig) -> dict:
    poly, x = _poly_and_x(cfg, "residual")
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
    poly, x = _poly_and_x(cfg, "mseries")
    return mseries_literal(poly, x, cfg.max_depth, cfg.precision).to_dict()


def cmd_compare(cfg: RunConfig) -> dict:
    poly, x = _poly_and_x(cfg, "compare")
    return compare_to_residual(poly, x, cfg.max_depth, cfg.precision).to_dict()


# Each command's handler and its CSV columns; None means one JSON object.
COMMANDS = {
    "table1": (cmd_table1, CSV_COLUMNS),
    "table2": (cmd_table2, CSV_COLUMNS),
    "figure-data": (cmd_figure_data, FIGURE_COLUMNS),
    "residual": (cmd_residual, None),
    "mseries": (cmd_mseries, None),
    "compare": (cmd_compare, None),
}


def _emit(payload, columns, fmt: str, stream) -> None:
    if columns is None or fmt == "json":
        stream.write(json.dumps(payload, indent=2) + "\n")
        return
    writer = csv.DictWriter(stream, columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(payload)


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")] if text.strip() else []


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


def _int(value) -> int:
    # bool is an int subclass, and int() would truncate a float
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    # float() would also take true and numeric strings such as "2"
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _int_list(value) -> list[int]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return [_int(v) for v in value]


def _depth(value) -> int | None:
    """A chain depth: an integer >= 2, or None or "full" for full depth."""
    if value in (None, "full"):
        return None
    depth = int(value) if isinstance(value, str) else _int(value)
    if depth < 2:
        raise ValueError(f"expected an integer >= 2, got {value!r}")
    return depth


def _choice(*choices):
    def convert(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return value

    return convert


# How each config-file key is read; flags are parsed by argparse instead.
CONFIG_KEYS = {
    "poly": _text,
    "s": _number,
    "precision": _choice(*PRECISIONS),
    "format": _choice(*FORMATS),
    "out": _text,
    "powers": _int_list,
    "limits": _int_list,
    "max_depth": _depth,
}


def _apply_config(cfg: RunConfig, data: dict) -> None:
    unknown = ", ".join(map(repr, sorted(set(data) - set(CONFIG_KEYS))))
    if unknown:
        raise ValueError(f"config has unknown keys: {unknown}; "
                         f"valid keys: {', '.join(CONFIG_KEYS)}")
    for key, convert in CONFIG_KEYS.items():
        if key in data:
            try:
                setattr(cfg, key, convert(data[key]))
            except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge int
                raise ValueError(f"config {key!r}: bad value {data[key]!r} ({exc})") from exc


def build_parser() -> argparse.ArgumentParser:
    """The parser: one command, then the options that every command takes."""
    parser = argparse.ArgumentParser(
        prog="nonsieve",
        description=(
            "Truncated zeta sums, truncated Euler products, and the nested "
            "alternating residual series over integer-valued polynomials."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--poly", help='polynomial spec: "integers", "shell:p", or "1,-3,3"')
    parser.add_argument("--powers", help="comma-separated shell powers")
    parser.add_argument("--limits", help="comma-separated ascending truncation limits")
    parser.add_argument("--x", type=int, help="single truncation limit (shorthand)")
    parser.add_argument("--s", type=float, help="exponent, default 1")
    parser.add_argument("--depth", help='chain depth: an integer or "full"')
    precision = parser.add_mutually_exclusive_group()
    precision.add_argument("--precision", choices=PRECISIONS)
    precision.add_argument("--exact", dest="precision", action="store_const", const=EXACT,
                           help="same as --precision exact")
    precision.add_argument("--float", dest="precision", action="store_const", const=FLOAT,
                           help="same as --precision float")
    parser.add_argument("--format", choices=FORMATS)
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--config", help="JSON config file; flags override it")
    return parser


def _flag(args, key: str, convert, form: str):
    try:  # argparse took the text as given; name the flag and its form
        return convert(getattr(args, key))
    except ValueError:
        raise ValueError(f"--{key} takes {form}, got {getattr(args, key)!r}") from None


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    cfg.precision = os.environ.get(PRECISION_ENV, cfg.precision)
    if cfg.precision not in PRECISIONS:
        raise ValueError(f"bad {PRECISION_ENV} value {cfg.precision!r}")
    if args.config:
        _apply_config(cfg, _load_config(args.config))
    for key in ("poly", "s", "precision", "format", "out"):
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    for key in ("powers", "limits"):
        if getattr(args, key) is not None:
            setattr(cfg, key, _flag(args, key, _parse_int_list, "comma-separated integers"))
    if args.x is not None:
        cfg.limits = [args.x]
    if args.depth is not None:
        cfg.max_depth = _flag(args, "depth", _depth, 'an integer >= 2 or "full"')

    if any(b <= a for a, b in zip(cfg.limits, cfg.limits[1:])):
        raise ValueError(f"limits must be strictly ascending: {cfg.limits}")
    if not cfg.limits:
        raise ValueError("at least one limit is required")
    if cfg.limits[-1] >= sys.maxsize:  # the census's sieve holds limit + 1 flags
        raise ValueError(f"limit {cfg.limits[-1]} is too large; limits must be below {sys.maxsize}")
    if not math.isfinite(cfg.s):
        raise ValueError(f"exponent must be finite, got {cfg.s}")
    if cfg.s < 1:
        raise ValueError(f"exponent must be >= 1, got {cfg.s}")
    return cfg


def run(argv=None, stdout=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        handler, columns = COMMANDS[args.command]
        payload = handler(cfg)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                _emit(payload, columns, cfg.format, fh)
        else:
            _emit(payload, columns, cfg.format, stdout or sys.stdout)
    except BoundViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NonsieveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # e.g. the census's sieve arrays for a huge limit
        print("error: out of memory; try smaller limits", file=sys.stderr)
        return 2
    except OSError as exc:  # the config file or the output could not be opened
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
