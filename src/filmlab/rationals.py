"""Rationals as text, and the error of an exact comparison left undecided.

Every process parses its rational arguments and fields here, so this
module loads no radical arithmetic: filmlab.exact, which raises
UndecidableComparison, imports it from here.
"""

from __future__ import annotations

from fractions import Fraction


class UndecidableComparison(ArithmeticError):
    """Raised when a sign query survives the maximum refinement precision."""


def parse_fraction(text: str) -> Fraction:
    """Parse an integer, 'p/q' or a plain decimal into an exact Fraction.

    Exponent notation is refused: '1e1000000' would expand to a
    million-digit integer before anything could reject it.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator: {text!r}") from exc


def format_fraction(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
