"""The result records are immutable namedtuples, and importing the package
loads none of dataclasses, typing, fractions and decimal."""

import subprocess
import sys
from pathlib import Path

import pytest

from nonsieve import (
    compare_to_residual,
    census,
    mseries_literal,
    prime_shell,
    residual,
)
from nonsieve.reference import check_m

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_by_import(names: set[str]) -> str:
    """Those of names that a fresh interpreter has loaded after `import nonsieve`."""
    # -S: site may import typing itself; -I: no user site or PYTHON* variables
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import nonsieve; "
        f"print(*sorted({names!r} & set(sys.modules)))"
    )
    return subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout.strip()


def test_import_loads_no_dataclasses_or_typing():
    assert loaded_by_import({"dataclasses", "typing", "inspect", "ast"}) == ""


def test_import_loads_no_fractions_or_decimal():
    # fractions imports decimal and numbers; only the calls that form a
    # Fraction import it
    assert loaded_by_import({"fractions", "decimal", "numbers"}) == ""


def records():
    poly = prime_shell(3)
    expansion = mseries_literal(poly, 5, 3)
    return [
        poly,
        residual(poly, 5),
        expansion,
        expansion.terms[0],
        compare_to_residual(poly, 5),
        census(poly, 5),
        check_m(3, 100, "-0.05016737946525"),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_record_fields_are_read_only(record):
    assert isinstance(record, tuple)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # __slots__ = (): no instance dict
