"""The package's one exact-rational format: values held as int numerators
over one positive common denominator, the lcm of theirs.  Assessments,
models, the pool of a strategy game and the LP tableau all hold their
values this way, so comparisons and sums run in ints, and a
``Fraction`` is built only for a value that is reported."""

from __future__ import annotations

import math
import operator


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
