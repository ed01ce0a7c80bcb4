"""Product expansion attached to a weight 1/2 expansion with integral data.

The product q^rho * prod_{n>=1} (1 - q^n)^(t(n)) with t(n) the coefficient
at slot (n^2, n) turns additive identities between expansions into
multiplicative identities between classical eta products; everything here
stays in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from operator import mul

from .discform import divisor_classes
from .fracq import FracSeries, eta_series
from .vvforms import VVExpansion, basis_m_half, decompose


def exponent_table(f: VVExpansion, nmax: int) -> dict:
    """The exponents n -> a(n^2, n mod 2N) for 1 <= n <= nmax (empty at 0).

    Reading slot (n^2, n) requires the expansion to be reliable out to index
    nmax^2, hence the truncation precondition.
    """
    if nmax < 0:
        raise ValueError("nmax must be at least 0")
    if f.radical:
        raise ValueError("a radical shadow table has no product expansion")
    if f.trunc < nmax * nmax:
        raise ValueError(
            f"truncation {f.trunc} is insufficient for an exponent table to "
            f"{nmax} (need at least {nmax * nmax})"
        )
    two_n = 2 * f.N
    return {n: f.holo.get((n * n, n % two_n), Fraction(0)) for n in range(1, nmax + 1)}


def weyl_vector(f: VVExpansion, basis=None) -> Fraction:
    """Leading exponent of the product, from the theta-basis coordinates.

    Decomposes f as a combination of the basis elements indexed by divisor
    classes {d, N/d} and returns sum x_d * (d + N/d)/24.  Only defined for
    holomorphic f; a nonzero negative-index table needs external input.
    """
    if f.nonholo:
        raise ValueError("Weyl vector requires external input for an expansion "
                         "with a non-holomorphic part")
    if basis is None:
        basis = basis_m_half(f.N, 4 * f.N)
    coords = decompose(f, basis)
    rho = Fraction(0)
    for x, d in zip(coords, divisor_classes(f.N)):
        rho += x * Fraction(d + f.N // d, 24)
    return rho


@dataclass
class ProductResult:
    """Expanded product together with the data that produced it."""

    weight: Fraction
    weyl: Fraction
    expansion: FracSeries
    exponents: dict

    def validate(self) -> None:
        lead = self.expansion.leading_exponent
        if lead is not None:
            if lead != self.weyl:
                raise ValueError(f"leading exponent {lead} differs from the "
                                 f"stated Weyl exponent {self.weyl}")
            if self.expansion.leading_coefficient != 1:
                raise ValueError("normalized product must have leading "
                                 "coefficient 1")

    def to_json(self) -> dict:
        return {
            "weight": str(self.weight),
            "weyl": str(self.weyl),
            "expansion": self.expansion.to_json(),
            "exponents": [[n, str(self.exponents[n])] for n in sorted(self.exponents)],
        }


def _euler_transform(table: dict, size: int) -> list:
    """Coefficients of prod_n (1 - q^n)^table[n] at q^0, ..., q^(size - 1).

    The log-derivative recurrence (Euler transform): with
    b(k) = -sum_{n | k} n * table[n], p(0) = 1 and
    m * p(m) = sum_{1 <= k <= m} b(k) * p(m - k).  With integer exponents
    everything stays in ints and each division by m must be exact.
    """
    integral = all(c.denominator == 1 for c in table.values())
    b = [0] * size
    for n, c in table.items():
        if c and n < size:
            step = n * (c.numerator if integral else c)
            for k in range(n, size, n):
                b[k] -= step
    p = [1]
    for m in range(1, size):
        s = sum(map(mul, b[1:m + 1], reversed(p)))
        if integral:
            s, rem = divmod(s, m)
            if rem:
                raise ArithmeticError(f"integer exponents gave a non-integer at q^{m}")
            p.append(s)
        else:
            p.append(Fraction(s, m))
    return p


def borcherds_product(f: VVExpansion, weyl=None, prec=200) -> ProductResult:
    """Expand q^weyl * prod (1 - q^n)^(a(n^2, n)) through prec coefficients.

    The result is exact below exponent weyl + prec, which only the factors
    with n < prec reach, so f must be exact to index (ceil(prec) - 1)^2.
    When weyl is omitted it is computed from the theta-basis decomposition
    of f; the weight reported is the coefficient at slot (0, 0).  The product is expanded by the Euler
    transform, never multiplied out factor by factor.
    """
    prec = Fraction(prec)
    if prec < 1:
        raise ValueError("prec must be at least 1")
    weyl = weyl_vector(f) if weyl is None else Fraction(weyl)
    table = exponent_table(f, ceil(prec) - 1)
    prod = FracSeries(1, dict(enumerate(_euler_transform(table, ceil(prec)))), prec)
    expansion = FracSeries.monomial(weyl, 1, weyl + prec) * prod
    result = ProductResult(f.holo.get((0, 0), Fraction(0)), weyl, expansion, table)
    result.validate()
    return result


def eta_product(N: int, d: int, prec) -> FracSeries:
    """q-expansion of eta(d z) * eta((N/d) z) for a divisor d of N.

    Multiplies two pentagonal eta series: the side of the eta identities
    that does not go through the Euler transform.
    """
    if d < 1 or N % d:
        raise ValueError(f"d = {d} must be a positive integer that divides {N}")
    prec = Fraction(prec)
    return eta_series(d, prec) * eta_series(N // d, prec)
