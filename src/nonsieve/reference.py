"""Published reference values the tables are reproduced against.

The M column reproduces bit-for-digit.  The published prime-count and
log-sum columns for the shell rows disagree with counts verified by two
independent primality routines and with the inferred log-sum definition;
those cells are reported per-cell rather than forced (see README).
"""

from __future__ import annotations

from collections import namedtuple

# Row keys: "integers" or the shell power as an int.
REFERENCE_M = {
    ("integers", 100): "-0.94812622482360",
    ("integers", 200): "-0.97060984525939",
    (2, 100): "-0.70856869191073",
    (2, 200): "-0.77232394108548",
    (3, 100): "-0.05016737946525",
    (3, 200): "-0.05053523893596",
    (5, 100): "-0.00129463514931",
    (5, 200): "-0.00129463735049",
    (7, 100): "-0.00006682330849",
    (7, 200): "-0.00006682330851",
}

REFERENCE_PRIME_COUNT = {
    ("integers", 100): 25,
    ("integers", 200): 46,
    (2, 100): 44,
    (2, 200): 76,
    (3, 100): 43,
    (3, 200): 72,
    (5, 100): 18,
    (5, 200): 32,
    (7, 100): 24,
    (7, 200): 40,
}

REFERENCE_LOG_SUM = {
    ("integers", 100): 29.99144,
    ("integers", 200): 50.04329,
    (2, 100): 42.75969,
    (2, 200): 78.48273,
    (3, 100): 29.01307,
    (3, 200): 53.06455,
    (5, 100): 19.71488,
    (5, 200): 35.92022,
    (7, 100): 15.71077,
    (7, 200): 28.56513,
}

LOG_SUM_TOLERANCE = 5e-4


CellCheck = namedtuple("CellCheck", "reference matches")


def check_m(row_key, x: int, m_string: str) -> CellCheck | None:
    ref = REFERENCE_M.get((row_key, x))
    if ref is None:
        return None
    return CellCheck(ref, m_string == ref)


def check_prime_count(row_key, x: int, count: int) -> CellCheck | None:
    ref = REFERENCE_PRIME_COUNT.get((row_key, x))
    if ref is None:
        return None
    return CellCheck(ref, count == ref)


def check_log_sum(row_key, x: int, value: float) -> CellCheck | None:
    ref = REFERENCE_LOG_SUM.get((row_key, x))
    if ref is None:
        return None
    return CellCheck(ref, abs(value - ref) <= LOG_SUM_TOLERANCE)
