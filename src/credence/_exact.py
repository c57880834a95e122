"""The package's one exact-rational format: values held as int numerators
over one positive common denominator, the lcm of theirs.  Assessments,
models, the pool of a strategy game and the LP tableau all hold their
values this way, so comparisons and sums run in ints, and a
``Fraction`` is built only for a value that is reported.  Ratios read
from a file come as int pairs in the terms they were written in, and
``ratios_over_one_denominator`` reduces them all in one pass.

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
    return _over_lcm([v.numerator for v in values], [v.denominator for v in values])


def ratios_over_one_denominator(pairs) -> tuple[int, list[int]]:
    """``over_one_denominator`` of ratios given as (numerator, positive
    denominator) int pairs in any terms, such as (2, 4): the one
    reduction of them all, one C-level gcd per pair, and then the lcm of
    the reduced denominators, so that (2, 4) alone gives (2, [1])."""
    nums = list(map(operator.itemgetter(0), pairs))
    dens = list(map(operator.itemgetter(1), pairs))
    common = list(map(math.gcd, nums, dens))
    if common.count(1) < len(common):
        nums = list(map(operator.floordiv, nums, common))
        dens = list(map(operator.floordiv, dens, common))
    return _over_lcm(nums, dens)


def _over_lcm(nums: list[int], dens: list[int]) -> tuple[int, list[int]]:
    """The ratios ``nums[i] / dens[i]`` as int numerators over the lcm of
    the positive denominators."""
    den = math.lcm(*set(dens))
    return den, list(map(operator.mul, nums, map(den.__floordiv__, dens)))


def format_ratios(nums, den: int) -> list[str]:
    """``str(Fraction(num, den))`` of each numerator over a positive
    ``den``, with one gcd per distinct numerator."""
    text = {}
    for num in set(nums):
        g = math.gcd(num, den)
        text[num] = str(num // g) if g == den else f"{num // g}/{den // g}"
    return list(map(text.__getitem__, nums))
