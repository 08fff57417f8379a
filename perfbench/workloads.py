"""The benchmark's workloads: lists of nonsieve CLI commands drawn from a seed.

Every workload is a closed loop of CLI commands issued one after another
through ``nonsieve.cli.run``.  The seed draws one coefficient-list
polynomial per workload (nonnegative coefficients, degree 1-4, so the
``"c0,c1,..."`` spec path is exercised) and jitters the limit grids by at
most 0.5%, so every seed costs about the same.  Where the seeded polynomial
enters an exact command, its limit is chosen so that the product of its
outputs has a fixed bit size, not a fixed x: exact cost follows bit size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from checks import poly_from_spec

JITTER = 0.005

# Each command's kind decides which end-to-end phase its time counts in.
KINDS = {
    "table1": "table",
    "table2": "table",
    "figure-data": "figure",
    "mseries": "series",
    "compare": "series",
    "residual": "residual",
}

# The README's example commands plus the float mirror of the published
# table.  Every workload runs them, so each layer and both precision modes
# are exercised (and checked against the published cells and the
# exponential oracles) on every workload, at a small share of its time.
README_COMMANDS = (
    ("table1",),
    ("table2", "--format", "json"),
    ("figure-data", "--limits", ",".join(str(x) for x in range(10, 201, 10))),
    ("residual", "--poly", "shell:3", "--x", "3", "--exact"),
    ("mseries", "--poly", "shell:3", "--x", "3", "--depth", "2", "--exact"),
    ("compare", "--poly", "shell:3", "--x", "8"),
    ("table1", "--precision", "float"),
)

# Inputs that fail at the seed commit.  They run once per workload, untimed:
# a fix that makes one succeed adds work, which must not read as a slower
# run_s, so they stay out of the timed commands.
PROBES = (
    # f(n) exceeds the float range: OverflowError escapes cli.run.
    ("residual", "--poly", "shell:200", "--x", "100", "--float"),
    # f(200) >= 2**64 in is_prime: exit 2 for the whole table.
    ("table2", "--powers", "11", "--limits", "200"),
    # str(Fraction) of M exceeds the 4300-digit int-to-str limit: exit 2.
    ("residual", "--poly", "shell:3", "--x", "1000", "--exact"),
    # Once 1/f(n) < 2**-54, the factor 1 - 1/f(n) rounds to 1.0 before the
    # compensated product sees it: float M is off by 1.6e-13 (contract 1e-13).
    ("residual", "--poly", "0,0,0,0,1", "--x", "50000", "--float"),
)

# Float mode meets its 1e-13 contract while every f(n) is below 2**53
# (the last PROBES entry shows what happens beyond), so float commands
# keep their outputs below it.
FLOAT_EXACT_VALUES = 2**53

SHELL_SPECS = ("integers", "shell:2", "shell:3", "shell:5", "shell:7")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]

    @property
    def kind(self) -> str:
        return KINDS[self.argv[0]]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    why: str
    poly_specs: tuple[str, ...]  # parsed and validated during set-up
    commands: tuple[Command, ...]
    grids: dict  # the x grids and depths, recorded as provenance


def _jitter(rng: random.Random, base: float) -> int:
    return int(round(base * (1.0 + rng.uniform(-JITTER, JITTER))))


def _limits(rng: random.Random, *bases: float) -> list[int]:
    """Jittered limits; bases more than 1% apart stay strictly ascending."""
    return [_jitter(rng, b) for b in bases]


def _grid(rng: random.Random, top: float, points: int) -> list[int]:
    """`points` evenly spaced limits ending near `top`."""
    top = _jitter(rng, top)
    return [round(top * (k + 1) / points) for k in range(points)]


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def seeded_poly(rng: random.Random) -> str:
    degree = rng.randint(1, 4)
    coeffs = [rng.randint(0, 3) for _ in range(degree)] + [rng.randint(1, 3)]
    return _csv(coeffs)


def x_for_bits(spec: str, bits: float, cap: int) -> int:
    """Largest x <= cap with sum_{n<=x} log2 f(n) <= bits."""
    f = poly_from_spec(spec)
    total = 0.0
    for n in range(1, cap + 1):
        total += math.log2(f(n))
        if total > bits:
            return max(n - 1, 2)
    return cap


def x_below(spec: str, bound: int, cap: int) -> int:
    """Largest x <= cap with f(x) < bound (f is increasing)."""
    f = poly_from_spec(spec)
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if f(mid) < bound else (lo, mid - 1)
    return lo


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def paper_exact(seed: int) -> Workload:
    rng = _rng("paper-exact", seed)
    poly = seeded_poly(rng)
    t1 = [100, 200] + _limits(rng, 1200, 2500, 5000)
    t2 = [100, 200] + _limits(rng, 500, 1000)
    t2_big = _limits(rng, 1500, 2500)
    t2_s2 = _limits(rng, 500, 1000)
    fig = _grid(rng, 2000, 80)
    x_res = x_for_bits(poly, 3000, 2000)
    commands = [
        ("table1", "--limits", _csv(t1)),
        ("table2", "--powers", "2,3,5,7", "--limits", _csv(t2)),
        ("table2", "--powers", "2,3,5", "--limits", _csv(t2_big)),
        ("table2", "--powers", "2,3", "--limits", _csv(t2_s2), "--s", "2"),
        ("figure-data", "--powers", "2,3", "--limits", _csv(fig)),
        ("residual", "--poly", poly, "--x", str(x_res), "--exact"),
    ]
    return _build(
        "paper-exact", seed,
        "exact rationals at grown x: one-shot table cells and incremental "
        "figure scans stress the residual layer two ways",
        poly, commands,
        {"table1": t1, "table2": t2, "table2_p235": t2_big, "table2_s2": t2_s2,
         "figure": fig, "residual_seeded_x": x_res},
    )


def float_large(seed: int) -> Workload:
    rng = _rng("float-large", seed)
    poly = seeded_poly(rng)
    t2 = [100, 200] + _limits(rng, 10000, 30000)
    t2_p5 = _limits(rng, 6000)  # 5 n^4 < 2**53 up to x ~ 6500
    fig = _grid(rng, 200000, 20)
    fig_s = _grid(rng, 50000, 10)
    x_res = x_below(poly, FLOAT_EXACT_VALUES, _jitter(rng, 20000))
    commands = [
        ("table2", "--precision", "float", "--powers", "2,3", "--limits", _csv(t2)),
        ("table2", "--precision", "float", "--powers", "2,3,5", "--limits", _csv(t2_p5)),
        ("figure-data", "--precision", "float", "--powers", "3", "--limits", _csv(fig)),
        ("figure-data", "--precision", "float", "--s", "1.5", "--powers", "2",
         "--limits", _csv(fig_s)),
        ("residual", "--poly", poly, "--x", str(x_res), "--float"),
    ]
    return _build(
        "float-large", seed,
        "compensated binary64 at x up to a few 1e5: polynomial evaluation, "
        "compensated sums and the prime census carry the cost, no Fractions",
        poly, commands,
        {"table2_p23": t2, "table2_p235": t2_p5, "figure": fig, "figure_s1.5": fig_s,
         "residual_seeded_x": x_res},
    )


def series(seed: int) -> Workload:
    rng = _rng("series", seed)
    poly = seeded_poly(rng)
    x_full3 = _jitter(rng, 55)
    x_full2 = _jitter(rng, 50)
    x_fixed = _jitter(rng, 200)
    x_seeded = x_for_bits(poly, 2500, 200)
    x_float3 = _jitter(rng, 3000)
    x_float2 = _jitter(rng, 1000)
    commands = [
        ("compare", "--poly", "shell:3", "--x", str(x_full3), "--depth", "full", "--exact"),
        ("mseries", "--poly", "shell:2", "--x", str(x_full2), "--depth", "full", "--exact"),
        ("mseries", "--poly", "shell:3", "--x", str(x_fixed), "--depth", "6", "--exact"),
        ("mseries", "--poly", poly, "--x", str(x_seeded), "--depth", "5", "--exact"),
        ("compare", "--poly", "shell:3", "--x", str(x_float3), "--depth", "full", "--float"),
        ("mseries", "--poly", "shell:2", "--x", str(x_float2), "--depth", "full", "--float"),
    ]
    return _build(
        "series", seed,
        "the literal nested series: the O(x*D^2) sigma_chain DP dominates, "
        "exact at full and fixed depth, float where the 1e-16 cutoff stops early",
        poly, commands,
        {"compare_full_exact_x": x_full3, "mseries_full_exact_x": x_full2, "mseries_depth6_x": x_fixed,
         "mseries_seeded_depth5_x": x_seeded, "compare_full_float_x": x_float3,
         "mseries_full_float_x": x_float2},
    )


WORKLOADS = {"paper-exact": paper_exact, "float-large": float_large, "series": series}


def _build(name, seed, why, poly, commands, grids) -> Workload:
    cmds = tuple(Command(tuple(a)) for a in README_COMMANDS + tuple(commands))
    return Workload(
        name=name,
        seed=seed,
        why=why,
        poly_specs=SHELL_SPECS + (poly,),
        commands=cmds,
        grids={"seeded_poly": poly, **grids},
    )


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
