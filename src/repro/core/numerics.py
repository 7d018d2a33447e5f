"""Exact rational arithmetic for the CRSharing model.

Every quantity in the paper lives in :math:`[0, 1]` (resource shares,
requirements) or is an integer (time steps, job counts).  The paper's
results are *exact* statements -- e.g. the worst-case families for
RoundRobin (Theorem 3) and GreedyBalance (Theorem 8) achieve their
ratios only in a limit, and the NP-hardness gadget (Theorem 4)
distinguishes makespan 4 from makespan 5 through sums that differ by a
single :math:`1/(A+\\delta)` unit.  Verifying these claims with floating
point would require slack everywhere and would make boundary cases
(``r == 1`` exactly) undecidable.

We therefore canonicalize every numeric input to
:class:`fractions.Fraction` and perform all scheduling arithmetic
exactly.  This module is the single place where conversions happen;
the rest of the library imports from here.

Performance note (see the HPC guide: *measure, then optimize*): exact
``Fraction`` arithmetic is fast as long as denominators stay small.
The instance generators in :mod:`repro.generators` emit rationals on a
common small grid (e.g. percent or ``1/10**4``), so additions keep a
common denominator and never blow up.  For bulk float workloads the
simulator can also run in float mode; the exact mode is the default and
is what the test-suite uses to check the theorems.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "Num",
    "Rational",
    "ZERO",
    "ONE",
    "to_frac",
    "to_frac_seq",
    "frac_ceil",
    "frac_floor",
    "frac_sum",
    "FracFold",
    "common_denominator",
    "quantize",
    "as_float",
    "format_frac",
    "parse_frac",
    "is_share",
    "clamp01",
]

#: Anything accepted as a number by the public API.
Num = Union[int, float, str, Fraction, Decimal]

#: The canonical exact type used internally.
Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def to_frac(value: Num) -> Fraction:
    """Convert *value* to an exact :class:`~fractions.Fraction`.

    Accepted inputs:

    * ``int`` -- exact.
    * ``Fraction`` -- returned unchanged.
    * ``str`` -- parsed as ``"p/q"`` or a decimal literal (``"0.35"``),
      both exact; this is the recommended way to express decimal
      requirements without binary-float artifacts.
    * ``Decimal`` -- exact.
    * ``float`` -- converted via :class:`~decimal.Decimal` using the
      float's shortest ``repr`` so that ``to_frac(0.1) == Fraction(1, 10)``
      (what the user *meant*), not the exact binary expansion
      ``3602879701896397/2**55``.

    Raises:
        TypeError: for unsupported types.
        ValueError: for non-finite floats.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("bool is not a valid numeric value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, Decimal):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot convert non-finite float {value!r} to Fraction")
        # repr(float) is the shortest decimal string that round-trips, so
        # Decimal(repr(x)) recovers the intended decimal value.
        return Fraction(Decimal(repr(value)))
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def to_frac_seq(values: Iterable[Num]) -> tuple[Fraction, ...]:
    """Convert an iterable of numbers to a tuple of exact Fractions."""
    return tuple(to_frac(v) for v in values)


def frac_ceil(x: Num) -> int:
    """Exact ceiling of a rational number as a Python int."""
    return -((-to_frac(x)).__floor__())


def frac_floor(x: Num) -> int:
    """Exact floor of a rational number as a Python int."""
    return to_frac(x).__floor__()


def frac_sum(values: Iterable[Num]) -> Fraction:
    """Exact sum of an iterable of numbers (empty sum is 0)."""
    return FracFold((to_frac(v), 1) for v in values).value()


class FracFold:
    """Exact sum of ``weight * k`` terms (rational weight, integer ``k``).

    Keeps one integer numerator sum per weight denominator, so :meth:`add`
    does no ``Fraction`` arithmetic; :meth:`value` normalises once.
    """

    __slots__ = ("_sums",)

    def __init__(self, terms: Iterable[tuple[Fraction, int]] = ()) -> None:
        self._sums: dict[int, int] = {}
        for weight, k in terms:
            self.add(weight, k)

    def add(self, weight: Fraction, k: int) -> None:
        """Fold in ``weight * k``."""
        sums = self._sums
        den = weight.denominator
        sums[den] = sums.get(den, 0) + weight.numerator * k

    def value(self) -> Fraction:
        """The exact, normalised sum (``Fraction(0)`` when empty)."""
        lcd = math.lcm(*self._sums)
        return Fraction(
            int(sum(num * (lcd // den) for den, num in self._sums.items())), lcd
        )


def common_denominator(values: Iterable[Num]) -> int:
    """Least common denominator of the given rationals (>= 1).

    Used to map an instance onto an exact integer grid (see
    :meth:`repro.core.instance.Instance.to_integer_grid`), which turns
    all scheduling arithmetic into integer arithmetic.
    """
    lcm = 1
    for v in values:
        lcm = math.lcm(lcm, to_frac(v).denominator)
    return lcm


def quantize(values: Sequence[Num], denominator: int | None = None) -> tuple[list[int], int]:
    """Scale *values* onto an integer grid.

    Returns ``(units, D)`` such that ``values[k] == units[k] / D``
    exactly.  If *denominator* is given it must be a common multiple of
    all value denominators; otherwise the least common denominator is
    used.

    Raises:
        ValueError: if *denominator* is not a common multiple.
    """
    fracs = to_frac_seq(values)
    lcd = common_denominator(fracs)
    if denominator is None:
        denominator = lcd
    elif denominator % lcd != 0:
        raise ValueError(
            f"denominator {denominator} is not a common multiple of the "
            f"value denominators (need a multiple of {lcd})"
        )
    units = [int(f * denominator) for f in fracs]
    return units, denominator


def as_float(x: Num) -> float:
    """Convert a number to float (for reporting / plotting only)."""
    return float(to_frac(x))


def format_frac(x: Num, *, max_decimal_digits: int = 6) -> str:
    """Human-friendly rendering of a rational number.

    Terminating decimals shorter than *max_decimal_digits* are printed
    as decimals (``"0.35"``); everything else as ``"p/q"``.
    """
    f = to_frac(x)
    if f.denominator == 1:
        return str(f.numerator)
    den = f.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1 and max(twos, fives) <= max_decimal_digits:
        digits = max(twos, fives)
        scaled = abs(f) * 10**digits
        text = str(scaled.numerator).rjust(digits + 1, "0")
        sign = "-" if f < 0 else ""
        return f"{sign}{text[:-digits]}.{text[-digits:]}"
    return f"{f.numerator}/{f.denominator}"


def parse_frac(text: str) -> Fraction:
    """Inverse of :func:`format_frac` (accepts ``"p/q"`` and decimals)."""
    return Fraction(text)


def is_share(x: Num) -> bool:
    """True iff ``0 <= x <= 1`` exactly (a valid resource share)."""
    f = to_frac(x)
    return ZERO <= f <= ONE


def clamp01(x: Num) -> Fraction:
    """Clamp a rational into ``[0, 1]``."""
    f = to_frac(x)
    if f < ZERO:
        return ZERO
    if f > ONE:
        return ONE
    return f
