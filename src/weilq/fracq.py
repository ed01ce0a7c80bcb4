"""Exact sparse power series in q with rational exponents.

A series is a finite map from lattice exponents to rational coefficients
together with a truncation bound.  Everything is computed with
``fractions.Fraction``: there is no floating point anywhere in this package,
so two series are equal exactly when their canonical forms coincide.  This
is where Fractions begin: integer expansions (Euler transforms, pentagonal
lists) are computed as int lists in ``jacobi`` and enter a series only
through its constructor, which turns each stored coefficient into a
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, lcm

from .jacobi import pentagonal


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Record:
    """Field-wise == and a Class(field=value, ...) repr over vars(self).

    The value classes use this base instead of dataclasses, whose import
    loads inspect, ast and dis (about 10 ms per process);
    tests/test_stdlib_only.py checks that weilq.cli loads none of them.
    """

    __hash__ = None

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
    unchanged, so the accepted inputs and their values are Fraction's own.
    A zero denominator or an infinite float raises ValueError, like any
    other value that is not a rational number.
    """
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

    denom
        positive integer M; exponents live on the lattice (1/M)Z.
    terms
        map e -> c_e, with integer key e meaning exponent e/M.  Zero
        coefficients are never stored.
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
        kept = {}
        for e, c in terms.items():
            if c and e < bound:
                kept[e] = _frac(c)
        g = denom
        for e in kept:
            g = gcd(g, e)
        if g > 1:
            kept = {e // g: c for e, c in kept.items()}
            denom //= g
        self.denom = denom
        self.terms = kept
        self.trunc = trunc

    # ----- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, exponent, coeff, trunc) -> "FracSeries":
        """The single term ``coeff * q^exponent`` known below ``trunc``."""
        exponent = _frac(exponent)
        return cls(exponent.denominator, {exponent.numerator: coeff}, trunc)

    # ----- inspection ---------------------------------------------------

    @property
    def vmin(self) -> Fraction:
        """Smallest exponent at which the series may be nonzero.

        For a series with stored terms this is the leading exponent; for a
        series that is zero below its truncation it is the truncation bound
        itself.  Used for sound truncation bookkeeping under products.
        """
        if self.terms:
            return Fraction(min(self.terms), self.denom)
        return self.trunc

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

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent) -> Fraction:
        """Exact coefficient at a rational exponent below the truncation."""
        exponent = _frac(exponent)
        if exponent >= self.trunc:
            raise ValueError(
                f"coefficient at {exponent} is beyond the truncation {self.trunc}"
            )
        scaled = exponent * self.denom
        if scaled.denominator != 1:
            return Fraction(0)
        return self.terms.get(scaled.numerator, Fraction(0))

    def items(self) -> list:
        """Sorted (exponent, coefficient) pairs."""
        return [(Fraction(e, self.denom), self.terms[e]) for e in sorted(self.terms)]

    # ----- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        M = lcm(self.denom, other.denom)
        sa, sb = M // self.denom, M // other.denom
        out = {e * sa: c for e, c in self.terms.items()}
        for e, c in other.terms.items():
            k = e * sb
            out[k] = out.get(k, Fraction(0)) + c
        return FracSeries(M, out, min(self.trunc, other.trunc))

    def __neg__(self):
        return FracSeries(self.denom, {e: -c for e, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FracSeries):
            # scalar multiple; truncation is unchanged
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return FracSeries(
                self.denom, {e: c * other for e, c in self.terms.items()}, self.trunc
            )
        M = lcm(self.denom, other.denom)
        sa, sb = M // self.denom, M // other.denom
        # Sound bound: below it every product coefficient is determined.
        trunc = min(self.trunc + other.vmin, other.trunc + self.vmin)
        bound = -(-trunc.numerator * M // trunc.denominator)
        bs = [(e * sb, c) for e, c in sorted(other.terms.items())]
        out = {}
        if bs:
            b0 = bs[0][0]
            for ea, ca in sorted(self.terms.items()):
                ea *= sa
                if ea + b0 >= bound:
                    break
                for eb, cb in bs:
                    e = ea + eb
                    if e >= bound:
                        break
                    if e in out:
                        out[e] += ca * cb
                    else:
                        out[e] = ca * cb
        return FracSeries(M, out, trunc)

    __rmul__ = __mul__

    def truncate(self, trunc) -> "FracSeries":
        """Forget all coefficients at exponents >= trunc."""
        trunc = min(_frac(trunc), self.trunc)
        return FracSeries(self.denom, self.terms, trunc)

    def substitute(self, d: int) -> "FracSeries":
        """The series with q replaced by q^d (d a positive integer)."""
        if d < 1:
            raise ValueError("substitution power must be a positive integer")
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

    __hash__ = None

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
