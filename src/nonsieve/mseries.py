"""The literal nested alternating series over 1/f(n) and its oracles.

A depth-d chain is an index tuple (i, j, k1, ..., k_{d-2}) with
2 <= i <= j < k1 < ... < k_{d-2} <= x: the first two indices may
coincide, all later ones strictly increase.  The depth-d magnitude is the
sum of prod 1/f(index) over all such chains; the series signs alternate
as (-1)**(d-1), so depth 2 enters negatively.

The ranges are implemented exactly as stated, even though exact expansion
shows they do not reproduce Z*P - 1; compare_to_residual measures the gap
instead of correcting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import LimitsTooLargeError
from .numerics import EXACT, FLOAT, KahanSum, PrecisionValue
from .residual import residual

_ENUM_MAX_X = 12
_ENUM_MAX_DEPTH = 8
_EXPANSION_MAX_X = 16
_FLOAT_TERM_CUTOFF = 1e-16  # relative, two consecutive depths
MATCH_TOLERANCE = 1e-12  # largest |deviation| compare_to_residual calls a MATCH


def _number(mode: str, value: int = 0):
    """value in the mode's number type: a Fraction, or a float in float mode."""
    return Fraction(value) if mode == EXACT else float(value)


def _raw(v: PrecisionValue):
    """v in its mode's number type."""
    return v.rational if v.mode == EXACT else v.value


def _wrap(mode: str, total, comp: float = 0.0) -> PrecisionValue:
    """A total in the mode's number type, with its compensation term in
    float mode, as a PrecisionValue."""
    if mode == EXACT:
        return PrecisionValue.exact(total)
    return PrecisionValue.compensated(total, comp)


def _reciprocals(poly, x: int, mode: str) -> list:
    """1/f(n) at index n for n = 2..x; indices 0 and 1 are unused."""
    one = _number(mode, 1)
    return [None, None] + [one / v for v in poly.values(2, x)]


def sigma_chain(poly, x: int, depth: int, mode: str = EXACT) -> PrecisionValue:
    """Unsigned magnitude of the depth-d term, by backward suffix DP.

    E_m(t) counts (weighted) strictly increasing chains of length m inside
    [t, x]: E_0 = 1, E_m(t) = E_m(t+1) + a_t * E_{m-1}(t+1).  The result is
    sum_i a_i * sum_{j>=i} a_j * E_{d-2}(j+1), O(x * d) operations.
    """
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    if depth < 2:
        raise ValueError(f"need depth >= 2, got {depth}")
    zero = _number(mode)
    if depth > x:  # the deepest chain, (2, 2, 3, 4, ..., x), has depth x
        return _wrap(mode, zero)

    a = _reciprocals(poly, x, mode)
    # E[t] for the current chain length m, indices 2..x+1
    e = [_number(mode, 1)] * (x + 2)
    for _ in range(depth - 2):
        new = [zero] * (x + 2)
        for t in range(x, 1, -1):
            new[t] = new[t + 1] + a[t] * e[t + 1]
        e = new
    # suffix[i] = sum_{j=i}^{x} a_j * E_{d-2}(j+1)
    total = zero
    suffix = zero
    for i in range(x, 1, -1):
        suffix = suffix + a[i] * e[i + 1]
        total = total + a[i] * suffix
    return _wrap(mode, total)


@dataclass(frozen=True)
class MSeriesTerm:
    depth: int
    sign: int
    magnitude: PrecisionValue


@dataclass(frozen=True)
class MSeriesExpansion:
    label: str
    x: int
    max_depth: int
    terms: tuple[MSeriesTerm, ...]
    partial_sum: PrecisionValue
    residual_reference: PrecisionValue
    deviation: PrecisionValue

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "x": self.x,
            "depth": self.max_depth,
            "terms": [
                {"d": t.depth, "sign": t.sign, "magnitude": _num_str(t.magnitude)}
                for t in self.terms
            ],
            "partial_sum": _num_str(self.partial_sum),
            "residual": _num_str(self.residual_reference),
            "deviation": _num_str(self.deviation),
        }


def _num_str(v: PrecisionValue) -> str:
    if v.mode == EXACT:
        return str(v.rational)
    return repr(v.value)


def _assemble(poly, x, max_depth, mode, magnitudes) -> MSeriesExpansion:
    terms = tuple(MSeriesTerm(d, (-1) ** (d - 1), mag) for d, mag in magnitudes)
    # Over Fractions TwoSum's error term is 0, so this is the exact sum.
    acc = KahanSum(_number(mode))
    for t in terms:
        acc.add(t.sign * _raw(t.magnitude))
    partial = _wrap(mode, *acc.as_pair())
    ref = residual(poly, x, 1, mode).m_value
    return MSeriesExpansion(
        label=poly.label,
        x=x,
        max_depth=max_depth,
        terms=terms,
        partial_sum=partial,
        residual_reference=ref,
        deviation=_wrap(mode, _raw(ref) - _raw(partial)),
    )


def mseries_literal(
    poly, x: int, max_depth: int | None = None, mode: str = EXACT
) -> MSeriesExpansion:
    """Signed sum over depths 2..max_depth of the literal series.

    max_depth None means full depth, the largest depth with a nonzero
    chain for this x.  In float mode the depth loop stops early once two
    consecutive term magnitudes fall below 1e-16 of the running sum.
    """
    if max_depth is None:
        max_depth = x
    if max_depth < 2:
        raise ValueError(f"need max_depth >= 2, got {max_depth}")
    magnitudes = []
    running = 0.0
    tiny_streak = 0
    for d in range(2, max_depth + 1):
        mag = sigma_chain(poly, x, d, mode)
        magnitudes.append((d, mag))
        if mode == FLOAT:
            running += (-1) ** (d - 1) * mag.value
            if abs(mag.value) < _FLOAT_TERM_CUTOFF * abs(running):
                tiny_streak += 1
                if tiny_streak >= 2:
                    break
            else:
                tiny_streak = 0
    return _assemble(poly, x, max_depth, mode, magnitudes)


def enumerate_oracle(
    poly, x: int, max_depth: int | None = None, mode: str = EXACT
) -> MSeriesExpansion:
    """Same contract as mseries_literal, computed by explicit tuple
    enumeration.  Exponential cost, so x and depth are hard-capped."""
    if max_depth is None:
        max_depth = x
    if x > _ENUM_MAX_X or max_depth > _ENUM_MAX_DEPTH:
        raise LimitsTooLargeError(
            f"enumeration limited to x <= {_ENUM_MAX_X}, depth <= {_ENUM_MAX_DEPTH}"
        )
    a = _reciprocals(poly, x, mode)
    magnitudes = []
    for d in range(2, max_depth + 1):
        total = _number(mode)
        for i in range(2, x + 1):
            for j in range(i, x + 1):
                base = a[i] * a[j]
                if d == 2:
                    total += base
                    continue
                for rest in combinations(range(j + 1, x + 1), d - 2):
                    term = base
                    for r in rest:
                        term = term * a[r]
                    total += term
        magnitudes.append((d, _wrap(mode, total)))
    return _assemble(poly, x, max_depth, mode, magnitudes)


def expansion_oracle(poly, x: int) -> PrecisionValue:
    """Exact residual by symbolic term-by-term expansion of Z * P - 1.

    Distributes every product factor (1 - a_n) over the running term list,
    the fully eliminated form the step-by-step procedure converges to.
    Equals residual(...).m_value by construction; exact mode only.
    """
    if x > _EXPANSION_MAX_X:
        raise LimitsTooLargeError(f"expansion limited to x <= {_EXPANSION_MAX_X}")
    leading = 1 if poly(1) > 1 else 0
    terms = [Fraction(leading)] if leading else []
    for n in range(1, x + 1):
        terms.append(Fraction(1, poly(n)))
    n0 = next((n for n in range(1, x + 1) if poly(n) >= 2), None)
    if n0 is not None:
        for n in range(n0, x + 1):
            neg = -Fraction(1, poly(n))
            terms = terms + [t * neg for t in terms]
    return PrecisionValue.exact(sum(terms, Fraction(0)) - 1)


@dataclass(frozen=True)
class ComparisonReport:
    label: str
    x: int
    max_depth: int
    mode: str
    partial_sum: PrecisionValue
    residual: PrecisionValue
    deviation: PrecisionValue
    verdict: str
    cutoff_depth: int | None = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "x": self.x,
            "depth": self.max_depth,
            "mode": self.mode,
            "partial_sum": _num_str(self.partial_sum),
            "residual": _num_str(self.residual),
            "deviation": _num_str(self.deviation),
            "verdict": self.verdict,
            "tolerance": MATCH_TOLERANCE,
            "cutoff_depth": self.cutoff_depth,
        }


MATCH = "MATCH"
SYSTEMATIC_GAP = "SYSTEMATIC_GAP"


def compare_to_residual(
    poly, x: int, max_depth: int | None = None, mode: str = EXACT
) -> ComparisonReport:
    """Deviation of the literal series from the residual at the same x.

    The deviation is residual minus literal partial sum, the sign
    convention under which every observed gap is nonnegative.  A gap at
    full depth is a finding (SYSTEMATIC_GAP), not a failure.
    """
    expansion = mseries_literal(poly, x, max_depth, mode)
    cutoff = None
    if mode == FLOAT:
        for t in expansion.terms:
            if abs(t.magnitude.value) < _FLOAT_TERM_CUTOFF:
                cutoff = t.depth
                break
    verdict = MATCH if abs(expansion.deviation.value) <= MATCH_TOLERANCE else SYSTEMATIC_GAP
    return ComparisonReport(
        label=poly.label,
        x=x,
        max_depth=expansion.max_depth,
        mode=mode,
        partial_sum=expansion.partial_sum,
        residual=expansion.residual_reference,
        deviation=expansion.deviation,
        verdict=verdict,
        cutoff_depth=cutoff,
    )
