"""Cusp and CM-point divisor combinatorics on the modular curve of level N.

Cusps of the Hecke congruence group of level N are grouped into Galois
classes, one class per divisor c of N with phi(gcd(c, N/c)) cusps in it.
Orders of the quadratic eta products along these classes, the linear
algebra matching a prescribed cusp divisor by such products, and weighted
counts of CM points (binary quadratic forms) live here.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from ._linalg import InconsistentSystem, SingularSystem, solve_exact
from .discform import divisor_classes, divisors, euler_phi, index_gamma0
from .fracq import Record, add_into, parse_fraction


class MatchingError(ValueError):
    """The eta-product matching matrix failed to determine a solution."""


# ----- cusp classes -----------------------------------------------------


class CuspClass(namedtuple("CuspClass", "c orbit_size conductor width")):
    """Galois class of cusps a/c, keyed by the divisor c of the level.

    A read-only, hashable named tuple, not a dataclass (see fracq.Record).
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


def cusp_classes(N: int) -> list:
    """All cusp classes of level N; the class of infinity is c = N."""
    out = []
    for c in divisors(N):
        g = gcd(c, N // c)
        out.append(CuspClass(c=c, orbit_size=euler_phi(g), conductor=g,
                             width=N // gcd(N, c * c)))
    return out


@lru_cache(maxsize=256)
def _order_table(N: int) -> dict:
    """{d: {c: order}}: every eta_order(N, d, c) of level N, built once.

    Rows d and N/d are one shared dict; the table never leaves this module.
    """
    divs = divisors(N)
    table = {}
    for d in divs[:(len(divs) + 1) // 2]:
        e = N // d
        table[d] = table[e] = {
            c: Fraction(gcd(c, d) ** 2 * e + gcd(c, e) ** 2 * d,
                        24 * c * gcd(c, N // c))
            for c in divs}
    return table


def _order_row(N: int, d: int) -> dict:
    """Row d of the order table; d must be a positive divisor of N."""
    row = _order_table(N).get(d)
    if row is None:
        raise ValueError(f"d = {d!r} is not a positive divisor of N = {N}")
    return row


def eta_order(N: int, d: int, c: int) -> Fraction:
    """Vanishing order of eta(d z) eta((N/d) z) along the cusp class c.

    Ligozat's formula per eta factor delta:
    (N/24) * gcd(c, delta)^2 / (c * delta * gcd(c, N/c)), summed over the
    multiset {d, N/d}; over the common denominator 24 * c * gcd(c, N/c) the
    two terms are gcd(c, d)^2 * (N/d) and gcd(c, N/d)^2 * d.  Every order
    is positive.  Orders are per cusp; multiply by the orbit size when
    summing degrees.  One table per level holds every order for d, c | N;
    d and c must be positive divisors of N.
    """
    order = _order_row(N, d).get(c)
    if order is None:
        raise ValueError(f"c = {c!r} is not a positive divisor of N = {N}")
    return order


class CuspDivisor(Record):
    """Rational divisor supported on cusp classes: one order per c | N.

    A plain class, not a dataclass (see fracq.Record).
    """

    def __init__(self, N: int, orders: dict) -> None:
        self.N = N
        self.orders = orders

    @classmethod
    def zero(cls, N: int) -> "CuspDivisor":
        return cls(N, {})

    def order(self, c: int) -> Fraction:
        return self.orders.get(c, Fraction(0))

    def degree(self) -> Fraction:
        """Sum of orders weighted by the number of cusps in each class."""
        total = Fraction(0)
        for cl in cusp_classes(self.N):
            total += cl.orbit_size * self.order(cl.c)
        return total

    def __add__(self, other):
        if not isinstance(other, CuspDivisor):
            return NotImplemented
        if self.N != other.N:
            raise ValueError("cannot add divisors of different level")
        orders = dict(self.orders)
        for c, v in other.orders.items():
            add_into(orders, c, v)
        return CuspDivisor(self.N, orders)

    def scaled(self, factor) -> "CuspDivisor":
        if factor == 0:
            return CuspDivisor(self.N, {})
        return CuspDivisor(self.N, {c: factor * v for c, v in self.orders.items()})

    def to_json(self) -> dict:
        return {"N": self.N,
                "orders": [[c, str(self.orders[c])] for c in sorted(self.orders)]}

    @classmethod
    def from_json(cls, data: dict) -> "CuspDivisor":
        """Read the orders layout; a malformed value raises ValueError.

        N must be a positive integer and each class c a positive divisor of
        N, given at most once.
        """
        try:
            N = data["N"]
            if type(N) is not int or N < 1:
                raise ValueError(f"N must be a positive integer, got {N!r}")
            orders = {}
            for c, v in data["orders"]:
                if type(c) is not int or c < 1 or N % c:
                    raise ValueError(f"class {c!r} is not a positive divisor of N = {N}")
                if c in orders:
                    raise ValueError(f"class {c} is given twice")
                orders[c] = parse_fraction(v)
            return cls(N, {c: v for c, v in orders.items() if v})
        except KeyError as exc:
            raise ValueError(f"malformed divisor JSON: missing field {exc}") from None
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed divisor JSON: {exc}") from None


def eta_divisor(N: int, d: int) -> CuspDivisor:
    """Full cusp divisor of eta(d z) eta((N/d) z), copied from the order table."""
    return CuspDivisor(N, dict(_order_row(N, d)))


def fricke_image(div: CuspDivisor) -> CuspDivisor:
    """Pullback under the Fricke involution: class c goes to class N/c."""
    return CuspDivisor(div.N, {div.N // c: v for c, v in div.orders.items()})


def cusp_space_dimension(N: int) -> int:
    """Dimension (sigma0(N) + [N is a square]) / 2 of the matching space."""
    sigma0 = len(divisors(N))
    return (sigma0 + (1 if isqrt(N) ** 2 == N else 0)) // 2


@lru_cache(maxsize=256)
def _matching_inverse(N: int) -> tuple:
    """(rows, den): the inverse of the level-N matching matrix over den.

    The matrix has entry eta_order(N, d, c) in row c and column d, both
    running over divisor_classes(N), and is solved against the identity.  A
    singular matrix raises MatchingError, which lru_cache does not keep, so
    every call sees it.
    """
    classes = divisor_classes(N)
    table = _order_table(N)
    rows = [[table[d][c] for d in classes] for c in classes]
    identity = [[int(c == d) for d in classes] for c in classes]
    # a singular matrix leaves a zero row beside a nonzero row of I
    try:
        inv, den = solve_exact(rows, identity)
    except (SingularSystem, InconsistentSystem) as exc:
        raise MatchingError(
            f"matching matrix at level {N} is singular; this contradicts "
            f"the cusp-matching theorem ({exc})"
        )
    return tuple(map(tuple, inv)), den


def solve_cusp_matching(N: int, target: CuspDivisor):
    """Coefficients x_d with sum_d x_d * eta_divisor(N, d) = target.

    The unknowns run over divisor classes {d, N/d} and the equations over
    Fricke classes of cusps, giving a square system of size
    cusp_space_dimension(N).  The target must be Fricke-invariant; a
    singular matrix would contradict the matching theorem and is reported
    as such.  The matrix is inverted once per level, so a solve is one
    integer matrix-vector product and one Fraction per unknown.
    """
    if target.N != N:
        raise ValueError("target divisor has the wrong level")
    # d ~ N/d and c ~ N/c have the same representatives, and the smallest
    # c whose order differs from that at N/c is one of them
    classes = divisor_classes(N)
    order = target.orders.get
    for c in classes:
        if order(c, 0) != order(N // c, 0):
            raise ValueError(
                f"target is not Fricke-invariant: orders at c={c} and "
                f"c={N // c} differ"
            )
    inv, den = _matching_inverse(N)
    ratios = [order(c, 0).as_integer_ratio() for c in classes]
    scale = lcm(*[q for _, q in ratios])
    b = [p * (scale // q) for p, q in ratios]
    den *= scale
    return [Fraction(sum([a * v for a, v in zip(row, b)]), den) for row in inv]


# ----- binary quadratic forms and CM-point degrees ----------------------


def reduced_forms(disc: int) -> list:
    """All reduced positive definite forms (a, b, c) of discriminant disc.

    Standard reduction -a < b <= a <= c with b >= 0 whenever a = c or
    b = a; imprimitive forms are included.  disc must be negative and
    0 or 1 mod 4.
    """
    if disc >= 0:
        raise ValueError("discriminant must be negative")
    if disc % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4")
    forms = []
    for b in range(disc % 2, isqrt(-disc // 3) + 1, 2):
        m = (b * b - disc) // 4
        for a in divisors(m):
            if a < b or a * a > m:
                continue
            c = m // a
            forms.append((a, b, c))
            if 0 < b < a < c:
                forms.append((a, -b, c))
    return forms


def _proj_automorph_order(a: int, b: int, c: int) -> int:
    """Order of the projective automorphism group of a reduced form."""
    if a == b == c:
        return 3
    if b == 0 and a == c:
        return 2
    return 1


def _p1_reps(N: int):
    """Representatives of the projective line over Z/N, first-entry normalized.

    Every class (x : y) has exactly one representative with x a divisor of N
    (x = 0 stands for the divisor N) and y minimal among its unit multiples
    that fix x.
    """
    if N == 1:
        return ((1, 0),)
    reps = []
    for c0 in divisors(N):
        x = c0 % N
        # the units fixing x are those = 1 mod N/gcd(x, N); visiting y in
        # ascending order meets each orbit first at its minimum
        units = [u for u in range(1, N, N // gcd(x, N)) if gcd(u, N) == 1]
        seen = bytearray(N)
        for y in range(N):
            if seen[y] or gcd(gcd(x, y), N) != 1:
                continue
            reps.append((x, y))
            for u in units:
                seen[u * y % N] = 1
    return tuple(reps)


@lru_cache(maxsize=None)
def _coset_reps(N: int):
    """Matrices (a, b, c, d) representing the mu left cosets of level N.

    The coset of g is determined by the first column (a : c) mod N up to
    units, so each projective-line class is lifted to a coprime pair and
    completed to a determinant-one matrix.
    """
    reps = []
    for x, y in _p1_reps(N):
        a, c = x, y
        tries = 0
        while gcd(a, c) != 1:
            c += N
            tries += 1
            if tries > max(a, 1) + 1:
                raise RuntimeError(f"failed to lift ({x}:{y}) mod {N}")
        d = pow(a, -1, c) if c else 1
        b = (a * d - 1) // c if c else 0
        reps.append((a, b, c, d))
    if len(reps) != index_gamma0(N):
        raise RuntimeError(f"coset enumeration at level {N} has the wrong size")
    return tuple(reps)


@lru_cache(maxsize=None)
def _degrees_by_root(N: int, n: int) -> dict:
    """Degrees, in sixths, of disc n at level N for all roots gamma mod 2N."""
    bins, two_n = {}, 2 * N
    for (A, B, C) in reduced_forms(n):
        sixths = 6 // _proj_automorph_order(A, B, C)
        for a, b, c, d in _coset_reps(N):
            if (A * a * a + B * a * c + C * c * c) % N == 0:
                g = (2 * A * a * b + B * (a * d + b * c) + 2 * C * c * d) % two_n
                bins[g] = bins.get(g, 0) + sixths
    return bins


@lru_cache(maxsize=None)
def heegner_degree(N: int, n: int, gamma: int) -> Fraction:
    """Weighted number of level-N classes of forms with disc n and root gamma.

    Counts classes of positive definite forms (a, b, c) with N | a, b = gamma
    mod 2N and b^2 - 4ac = n under the level-N group, each weighted by the
    reciprocal of its projective stabilizer order.  Implemented without an
    explicit orbit partition: within one modular-group class with automorphism
    order w, the stabilizer-weighted class count equals (number of left
    cosets whose translate satisfies the two congruences) / w, by
    orbit-stabilizer.  One walk over reduced forms and cosets bins the
    translates by B mod 2N, so the degrees for all roots of n come at once.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if n >= 0:
        raise ValueError("the discriminant index n must be negative")
    if not 0 <= gamma < 2 * N:
        raise ValueError(f"gamma must be a canonical residue mod {2 * N}")
    if (n - gamma * gamma) % (4 * N):
        raise ValueError(f"n = {n} is not a square of {gamma} mod {4 * N}")
    return Fraction(_degrees_by_root(N, n).get(gamma, 0), 6)
