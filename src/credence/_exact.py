"""The package's one exact-rational format: values held as int numerators
over one positive common denominator, the lcm of theirs.  Assessments,
models, the pool of a strategy game and the LP tableau all hold their
values this way, so comparisons and sums run in ints, and a
``Fraction`` is built only for a value that is reported.

``exact`` is the one door for a value given to the library: every
constructor that takes rationals reads them through it, so a binary
float, which ``Fraction`` would take as the dyadic rational it stores,
is refused there with the constructor's own error."""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def exact(value, error: type[Exception]) -> Fraction:
    """``value`` as a ``Fraction``: an int, a ``Fraction``, a ``Decimal``
    or a string as ``Fraction`` reads it.  A float raises ``error``:
    0.1 is not 1/10 but a 56-bit dyadic rational near it."""
    if isinstance(value, float):
        raise error(
            f"{value!r} is a binary float; give exact rationals "
            "(ints, Fractions or strings such as '1/10')"
        )
    return Fraction(value)


def over_one_denominator(values) -> tuple[int, list[int]]:
    """The values, ints or ``Fraction``s, as (den, numerators): int
    numerators over ``den``, the lcm of their denominators."""
    values = list(values)
    return ratios_over_one_denominator(
        [v.numerator for v in values], [v.denominator for v in values]
    )


def ratios_over_one_denominator(nums, dens) -> tuple[int, list[int]]:
    """``over_one_denominator`` of the ratios ``nums[i] / dens[i]``, each
    given by its int numerator and positive denominator."""
    den = math.lcm(*dens)
    return den, list(map(operator.mul, nums, map(den.__floordiv__, dens)))


def format_ratios(nums, den: int) -> list[str]:
    """``str(Fraction(num, den))`` of each numerator over a positive
    ``den``, with one gcd per distinct numerator."""
    text = {}
    for num in set(nums):
        g = math.gcd(num, den)
        text[num] = str(num // g) if g == den else f"{num // g}/{den // g}"
    return list(map(text.__getitem__, nums))
