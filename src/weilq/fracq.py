"""Exact q-series results with rational exponents, and the Fraction helpers.

``FracSeries`` is a finite map from lattice exponents to rational
coefficients together with a truncation bound, in a canonical form: two
series are equal exactly when they stand for the same truncated series.
There is no floating point anywhere in this package.  This is where
Fractions begin: integer expansions (Euler transforms, pentagonal
lists) are computed as int lists in ``jacobi`` and enter a series only
through its constructor, which turns each stored coefficient into a
Fraction.  An int c with 0 < |c| <= SHARED_BOUND becomes one shared Fraction
per value (``to_fraction``), made on first use, so the two sides of an
identity hold the same objects and compare by identity; bools, floats,
Fraction subclasses and larger ints get a fresh Fraction each.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd

from .jacobi import pentagonal


SHARED_BOUND = 256
_SHARED = {}    # int c with 0 < |c| <= SHARED_BOUND -> Fraction(c), filled on first use


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def to_fraction(c) -> Fraction:
    """``Fraction(c)``, one shared object per small int (see the module doc)."""
    if type(c) is not int:
        return Fraction(c)
    f = _SHARED.get(c)
    if f is None:
        f = Fraction(c)
        if c and -SHARED_BOUND <= c <= SHARED_BOUND:
            _SHARED[c] = f
    return f


class Record:
    """Field-wise == and a Class(field=value, ...) repr over vars(self).

    The value classes use this base instead of dataclasses, whose import
    loads inspect, ast and dis (about 10 ms per process);
    tests/test_stdlib_only.py checks that weilq.cli loads none of them.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


def add_into(table: dict, key, value) -> None:
    """Add a nonzero value into table[key], deleting the key if the sum is 0."""
    old = table.get(key)
    if old is None:
        table[key] = value
    elif total := old + value:
        table[key] = total
    else:
        del table[key]


def parse_fraction(value) -> Fraction:
    """``Fraction(value)`` for numbers read from outside the program.

    An ASCII string ``-?[0-9]+(/[0-9]+)?`` is split and built from two ints,
    which skips Fraction's regex; every other value goes to ``Fraction``
    unchanged, so the accepted inputs and their values are Fraction's own,
    bar bool: JSON true is not the number 1.  A bool, a zero denominator or
    an infinite float raises ValueError, like any other non-rational value.
    """
    if type(value) is bool:
        raise ValueError(f"{value!r} is not a rational number")
    try:
        if type(value) is str and value.isascii():
            num, slash, den = value.partition("/")
            if ((num[1:] if num[:1] == "-" else num).isdigit()
                    and (den.isdigit() or not slash)):
                return Fraction(int(num), int(den) if slash else 1)
        return Fraction(value)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{value!r} is not a rational number: {exc}") from None


class FracSeries:
    """Truncated series ``sum_e c_e * q^(e/M)`` with exact rational data.

    The output-only result type of ``borcherds_product`` and
    ``eta_product``, which expand in ints (``jacobi``) and wrap the list
    here once: it truncates, substitutes, compares, prints and writes JSON.

    denom
        positive integer M; exponents live on the lattice (1/M)Z.
    terms
        map e -> c_e, with integer key e meaning exponent e/M.  Zero
        coefficients are never stored, and each stored one is an exact
        ``Fraction``: the constructor converts every other number, a
        Fraction subclass included, through ``to_fraction``.
    trunc
        rational bound T.  Coefficients at exponents >= T are unspecified;
        everything below T is exact.

    On construction the pair (M, exponents) is reduced by its common gcd,
    so series that differ only by a rescaling of the lattice compare equal.
    """

    __slots__ = ("denom", "terms", "trunc")

    def __init__(self, denom: int, terms: dict, trunc) -> None:
        if denom <= 0:
            raise ValueError("lattice denominator must be positive")
        trunc = _frac(trunc)
        # ceil(trunc * denom) in ints: for an integer e, e < bound iff e/denom < trunc
        bound = -(-trunc.numerator * denom // trunc.denominator)
        kept = {e: c if type(c) is Fraction else to_fraction(c)
                for e, c in terms.items() if c and e < bound}
        g = gcd(denom, *kept)
        if g > 1:
            kept = {e // g: c for e, c in kept.items()}
            denom //= g
        self.denom = denom
        self.terms = kept
        self.trunc = trunc

    # ----- inspection ---------------------------------------------------

    @property
    def leading_exponent(self):
        if not self.terms:
            return None
        return Fraction(min(self.terms), self.denom)

    @property
    def leading_coefficient(self):
        if not self.terms:
            return None
        return self.terms[min(self.terms)]

    def items(self) -> list:
        """Sorted (exponent, coefficient) pairs."""
        return [(Fraction(e, self.denom), self.terms[e]) for e in sorted(self.terms)]

    # ----- truncation and substitution --------------------------------

    def truncate(self, trunc) -> "FracSeries":
        """Forget all coefficients at exponents >= trunc."""
        trunc = min(_frac(trunc), self.trunc)
        return FracSeries(self.denom, self.terms, trunc)

    def substitute(self, d: int) -> "FracSeries":
        """The series with q replaced by q^d (d a positive integer).

        At d = 1 this is the series itself, not a copy, as level_u(f, 1) is f.
        """
        if d < 1:
            raise ValueError("substitution power must be a positive integer")
        if d == 1:
            return self
        return FracSeries(
            self.denom, {e * d: c for e, c in self.terms.items()}, self.trunc * d
        )

    # ----- comparison and display --------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        return (
            self.denom == other.denom
            and self.terms == other.terms
            and self.trunc == other.trunc
        )

    def __repr__(self):
        parts = []
        for e, c in self.items()[:6]:
            parts.append(f"{c}*q^({e})")
        body = " + ".join(parts) if parts else "0"
        if len(self.terms) > 6:
            body += " + ..."
        return f"FracSeries({body} + O(q^({self.trunc})))"

    # ----- serialization ------------------------------------------------

    def to_json(self) -> dict:
        """The series as JSON, for output only: nothing reads it back."""
        return {
            "denom": self.denom,
            "trunc": str(self.trunc),
            "terms": [[e, str(self.terms[e])] for e in sorted(self.terms)],
        }


def eta_series(d: int, prec) -> FracSeries:
    """q-expansion of eta(d*z) = q^(d/24) * prod_{n>=1} (1 - q^(d*n)).

    Read off Euler's pentagonal number identity (``jacobi.pentagonal``), so
    the support is the sparse set d*(1 + 24*k(3k-1)/2)/24 with coefficients
    +-1.
    """
    if d < 1:
        raise ValueError("eta argument must be a positive integer")
    prec = _frac(prec)
    size = max(ceil(prec - Fraction(d, 24)), 0)
    return FracSeries(24, {d + 24 * n: c for n, c in enumerate(pentagonal(d, size))},
                      prec)
