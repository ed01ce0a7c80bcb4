"""Integer Laurent q-series: the kernel under products and eta quotients.

A series is a list of ints c[0], c[1], ..., c[size - 1] standing for
sum c[n] q^(v + n), where the leading exponent v and the truncation
v + size are kept by the caller.  The products of the paper have
integral exponents, so they expand here in ints; Fractions enter when a
caller wraps a list into a ``FracSeries``, or inside ``euler_transform``
for a table with a rational exponent among the factors that reach the
window.  A product whose factors all sit on exponents in gZ is a series
in q^g, and ``euler_transform`` expands it as one.

The suites expand the same products many times over (the eta products of
d and N/d are one product, and the basis and U-substitution suites lift
the eta suite's inputs again), so the two expansions they call are
memoized per process: the Euler recurrence on the tuple of its entering
factors as (n / g, numerator, denominator) and its size ceil(size / g),
and the product of two pentagonal lists on {d, e} and size, each for the
last 256 inputs.  The keys are ints and the memos hold tuples, so no
caller can change a stored expansion; ``euler_transform`` still returns a
new list on every call.  The two routes share no memo, so a lift still
compares them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul


def euler_transform(table: dict, size: int) -> list:
    """Coefficients of prod_n (1 - q^n)^table[n] at q^0, ..., q^(size - 1).

    The log-derivative recurrence: with b(k) = -sum_{n | k} n * table[n],
    p(0) = 1 and m * p(m) = sum_{1 <= k <= m} b(k) * p(m - k).  Only the
    factors that enter the window count, those with table[n] != 0 and
    n < size.  When their n share a divisor g > 1 the product is F(q^g)
    with F = prod (1 - q^m)^table[g m]: the recurrence runs on F at size
    ceil(size / g), g^2 times fewer steps, and F is spread at stride g.
    When every entering table[n] is an integer, every entry is an int and
    each division by m must be exact; a rational one makes the entries at
    multiples of g Fractions, and leaves the others int zeros.

    The recurrence on F is memoized on its reduced input, the triples
    (m, numerator, denominator) of the entering factors in ascending m and
    the size ceil(size / g), for the last 256 such inputs: a table that
    differs from an earlier one only in factors outside the window, or only
    by the stride g, is expanded once.  Every call returns a new list.
    """
    entering = sorted((n, c) for n, c in table.items() if c and n < size)
    g = gcd(*(n for n, _ in entering)) or 1
    inner = -(-size // g)
    factors = tuple((n // g, c.numerator, c.denominator) for n, c in entering)
    out = [0] * size
    out[::g] = _euler_recurrence(factors, inner)
    return out


@lru_cache(maxsize=256)
def _euler_recurrence(factors: tuple, inner: int) -> tuple:
    """p(0), ..., p(inner - 1) of prod (1 - q^m)^(num/den) over (m, num, den).

    The recurrence of ``euler_transform``, on a key of ints only.  The
    ArithmeticError of an inexact integral division is raised again on every
    call, as lru_cache keeps no exception.
    """
    integral = all(den == 1 for _, _, den in factors)
    b = [0] * inner
    for m, num, den in factors:
        step = m * (num if integral else Fraction(num, den))
        for k in range(m, inner, m):
            b[k] -= step
    b1 = b[1:]
    p = [1]
    for m in range(1, inner):
        # map stops at the end of p: b(1) * p(m - 1) + ... + b(m) * p(0)
        s = sum(map(mul, b1, reversed(p)))
        if integral:
            s, rem = divmod(s, m)
            if rem:
                raise ArithmeticError(
                    f"integer exponents gave a non-integer at (q^g)^{m}")
            p.append(s)
        else:
            p.append(Fraction(s, m))
    return tuple(p[:inner])


def pentagonal(d: int, size: int) -> list:
    """Coefficients of prod_{n>=1} (1 - q^(d n)) at q^0, ..., q^(size - 1).

    Euler's pentagonal number theorem: (-1)^k at q^(d k (3k - 1)/2) for
    every integer k, and zero elsewhere; d must be positive.
    """
    if d < 1:
        raise ValueError(f"d = {d} must be a positive integer")
    out = [0] * size
    k = 0
    while (e := d * k * (3 * k - 1) // 2) < size:
        sign = -1 if k % 2 else 1
        out[e] = sign
        if k and e + d * k < size:  # the exponent of -k is that of k plus d k
            out[e + d * k] = sign
        k += 1
    return out


def mul_trunc(a: list, b: list, size: int) -> list:
    """The first size coefficients of the product of two int lists.

    Only the nonzero entries are paired, which suits sparse factors such as
    the pentagonal lists.
    """
    out = [0] * size
    right = [(j, y) for j, y in enumerate(b[:size]) if y]
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in right:
                if i + j >= size:
                    break
                out[i + j] += x * y
    return out


def eta_pair(d: int, e: int, size: int) -> tuple:
    """Coefficients of prod_{n>=1} (1 - q^(d n)) (1 - q^(e n)) below q^size.

    The tuple of mul_trunc(pentagonal(d, size), pentagonal(e, size), size),
    memoized on the unordered pair {d, e} and size for the last 256 inputs.
    """
    return _eta_pair(min(d, e), max(d, e), size)


@lru_cache(maxsize=256)
def _eta_pair(d: int, e: int, size: int) -> tuple:
    return tuple(mul_trunc(pentagonal(d, size), pentagonal(e, size), size))
