"""Product expansion attached to a weight 1/2 expansion with integral data.

The product q^rho * prod_{n>=1} (1 - q^n)^(t(n)) with t(n) the coefficient
at slot (n^2, n) turns additive identities between expansions into
multiplicative identities between classical eta products.  Both sides are
expanded in ints by the kernel in ``jacobi`` (the Euler transform of the
exponent table, and two pentagonal lists); Fractions begin where a list is
wrapped into one ``FracSeries`` on the lattice of its leading exponent, and
only a rational exponent table makes the kernel itself leave the ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from .discform import divisor_classes
from .fracq import FracSeries, Record
from .jacobi import eta_pair, euler_transform
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
    zero = Fraction(0)
    return {n: f.holo.get((n * n, n % two_n), zero) for n in range(1, nmax + 1)}


def weyl_vector(f: VVExpansion) -> Fraction:
    """Leading exponent of the product, from the theta-basis coordinates.

    Decomposes f in basis_m_half(N, 4N), whose elements are indexed by
    divisor classes {d, N/d}, and returns sum x_d * (d + N/d)/24.  Only
    defined for holomorphic f; a nonzero negative-index table needs external
    input.
    """
    if f.nonholo:
        raise ValueError("Weyl vector requires external input for an expansion "
                         "with a non-holomorphic part")
    [coords] = decompose([f], basis_m_half(f.N, 4 * f.N))
    return _weyl_of_coordinates(f.N, coords)


def _weyl_of_coordinates(N: int, coords: list) -> Fraction:
    """sum x_d * (d + N/d)/24 for theta-basis coordinates x at level N."""
    return sum((x * Fraction(d + N // d, 24)
                for x, d in zip(coords, divisor_classes(N))), Fraction(0))


class ProductResult(Record):
    """Expanded product together with the data that produced it.

    A plain class, not a dataclass (see fracq.Record).
    """

    def __init__(self, weight: Fraction, weyl: Fraction, expansion: FracSeries,
                 exponents: dict) -> None:
        self.weight = weight
        self.weyl = weyl
        self.expansion = expansion
        self.exponents = exponents

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


def borcherds_product(f: VVExpansion, weyl=None, prec=200) -> ProductResult:
    """Expand q^weyl * prod (1 - q^n)^(a(n^2, n)) through prec coefficients.

    The result is exact below exponent weyl + prec, which only the factors
    with n < prec reach, so f must be exact to index (ceil(prec) - 1)^2.
    When weyl is omitted it is computed from the theta-basis decomposition
    of f; the weight reported is the coefficient at slot (0, 0).  The
    product is expanded in ints by the Euler transform, never multiplied out
    factor by factor, and wrapped into one FracSeries on the lattice of weyl.
    """
    prec = Fraction(prec)
    if prec < 1:
        raise ValueError("prec must be at least 1")
    weyl = weyl_vector(f) if weyl is None else Fraction(weyl)
    table = exponent_table(f, ceil(prec) - 1)
    den = weyl.denominator
    coeffs = euler_transform(table, ceil(prec))
    expansion = FracSeries(den, {weyl.numerator + den * n: c
                                 for n, c in enumerate(coeffs)}, weyl + prec)
    result = ProductResult(f.holo.get((0, 0), Fraction(0)), weyl, expansion, table)
    result.validate()
    return result


def eta_product(N: int, d: int, prec) -> FracSeries:
    """q-expansion of eta(d z) * eta((N/d) z) for a divisor d of N.

    Multiplies the pentagonal lists of prod (1 - q^(d n)) and
    prod (1 - q^((N/d) n)): the side of the eta identities that does not go
    through the Euler transform.  The result is exact below
    prec + min(d, N/d, 24 prec)/24, the window of the product of the two
    eta series known below prec, and prec must be positive.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if d < 1 or N % d:
        raise ValueError(f"d = {d} must be a positive integer that divides {N}")
    prec = Fraction(prec)
    if prec <= 0:
        raise ValueError("prec must be positive")
    e = N // d
    trunc = prec + min(Fraction(min(d, e), 24), prec)
    size = max(ceil(trunc - Fraction(d + e, 24)), 0)
    coeffs = eta_pair(d, e, size)
    return FracSeries(24, {d + e + 24 * n: c for n, c in enumerate(coeffs)}, trunc)
