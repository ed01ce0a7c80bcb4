"""Ring arithmetic on FracSeries: the tests' factor-by-factor route.

weilq expands every product in ints (``jacobi.euler_transform``) and wraps
the list into a ``FracSeries`` once, so ``FracSeries`` has no arithmetic.
The tests check those expansions against this module instead, which
multiplies FracSeries out term by term and factor by factor in Fractions.
It never calls ``jacobi`` or ``borcherds``: it stays an independent route.
Every function returns a new series and leaves its arguments alone.
"""

from fractions import Fraction
from math import lcm

from weilq.fracq import FracSeries, add_into


def monomial(exponent, coeff, trunc) -> FracSeries:
    """The single term ``coeff * q^exponent`` known below ``trunc``."""
    exponent = Fraction(exponent)
    return FracSeries(exponent.denominator, {exponent.numerator: coeff}, trunc)


def vmin(s: FracSeries) -> Fraction:
    """Smallest exponent at which s may be nonzero.

    The leading exponent of a series with stored terms; the truncation
    bound of a series that is zero below it.  The sound window of a
    product is built from it (see ``mul``).
    """
    if s.terms:
        return Fraction(min(s.terms), s.denom)
    return s.trunc


def coefficient(s: FracSeries, exponent) -> Fraction:
    """Exact coefficient at a rational exponent below the truncation."""
    exponent = Fraction(exponent)
    if exponent >= s.trunc:
        raise ValueError(f"coefficient at {exponent} is beyond the truncation {s.trunc}")
    scaled = exponent * s.denom
    if scaled.denominator != 1:
        return Fraction(0)
    return s.terms.get(scaled.numerator, Fraction(0))


def add(a: FracSeries, b: FracSeries) -> FracSeries:
    """a + b on the common lattice, known below the smaller truncation."""
    M = lcm(a.denom, b.denom)
    out = {e * (M // a.denom): c for e, c in a.terms.items()}
    for e, c in b.terms.items():
        add_into(out, e * (M // b.denom), c)
    return FracSeries(M, out, min(a.trunc, b.trunc))


def scale(s: FracSeries, factor) -> FracSeries:
    """factor * s for an int or Fraction factor; the truncation is unchanged."""
    if not isinstance(factor, (int, Fraction)):
        raise TypeError(f"scale factor must be an int or a Fraction, "
                        f"not {type(factor).__name__}")
    return FracSeries(s.denom, {e: c * factor for e, c in s.terms.items()}, s.trunc)


def sub(a: FracSeries, b: FracSeries) -> FracSeries:
    return add(a, scale(b, -1))


def mul(a: FracSeries, b: FracSeries) -> FracSeries:
    """a * b, every pair of terms multiplied out below the sound bound.

    Below min(T_a + vmin(b), T_b + vmin(a)) every coefficient of the
    product is determined by the known coefficients of both factors, so
    terms a factor stores at or past its own truncation are never read.
    """
    M = lcm(a.denom, b.denom)
    sa, sb = M // a.denom, M // b.denom
    trunc = min(a.trunc + vmin(b), b.trunc + vmin(a))
    bound = -(-trunc.numerator * M // trunc.denominator)  # ceil(trunc * M)
    bs = [(e * sb, c) for e, c in sorted(b.terms.items())]
    out = {}
    for ea, ca in sorted(a.terms.items()):
        ea *= sa
        for eb, cb in bs:
            if ea + eb >= bound:
                break
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return FracSeries(M, out, trunc)


def factor_power(n: int, c, size) -> FracSeries:
    """(1 - q^n)^c below q^size, by the binomial series.

    binom(c, j) (-1)^j at q^(n j): a finite sum for c a non-negative
    integer, the generalized binomial series for any other rational c.
    """
    terms, coeff, j = {}, Fraction(1), 0
    while n * j < size and coeff:
        terms[n * j] = coeff
        coeff = -coeff * (Fraction(c) - j) / (j + 1)
        j += 1
    return FracSeries(1, terms, size)


def euler_product(table: dict, size) -> FracSeries:
    """prod_n (1 - q^n)^table[n] below q^size, one ``mul`` per factor."""
    prod = FracSeries(1, {0: 1}, size)
    for n, c in table.items():
        prod = mul(prod, factor_power(n, c, size))
    return prod
