"""Cusp and CM-point divisor combinatorics on the modular curve of level N.

Cusps of the Hecke congruence group of level N are grouped into Galois
classes, one class per divisor c of N with phi(gcd(c, N/c)) cusps in it.
Orders of the quadratic eta products along these classes, the linear
algebra matching a prescribed cusp divisor by such products, and weighted
counts of CM points (binary quadratic forms) live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from ._linalg import SingularSystem, solve_exact
from .discform import (divisor_classes, divisors, euler_phi, index_gamma0)


class MatchingError(ValueError):
    """The eta-product matching matrix failed to determine a solution."""


# ----- cusp classes -----------------------------------------------------


@dataclass(frozen=True)
class CuspClass:
    """Galois class of cusps a/c, keyed by the divisor c of the level."""

    c: int
    orbit_size: int
    conductor: int
    width: int

    def to_json(self) -> dict:
        return {"c": self.c, "orbit_size": self.orbit_size,
                "conductor": self.conductor, "width": self.width}


def cusp_classes(N: int) -> list:
    """All cusp classes of level N; the class of infinity is c = N."""
    out = []
    for c in divisors(N):
        g = gcd(c, N // c)
        out.append(CuspClass(c=c, orbit_size=euler_phi(g), conductor=g,
                             width=N // gcd(N, c * c)))
    return out


def cusp_count(N: int) -> int:
    return sum(cl.orbit_size for cl in cusp_classes(N))


def eta_order(N: int, d: int, c: int) -> Fraction:
    """Vanishing order of eta(d z) eta((N/d) z) along the cusp class c.

    Ligozat's formula per eta factor delta:
    (N/24) * gcd(c, delta)^2 / (c * delta * gcd(c, N/c)), summed over the
    multiset {d, N/d}.  Orders are per cusp; multiply by the orbit size when
    summing degrees.
    """
    if N % d or N % c:
        raise ValueError("d and c must divide N")
    g = gcd(c, N // c)
    total = Fraction(0)
    for delta in (d, N // d):
        total += Fraction(N, 24) * Fraction(gcd(c, delta) ** 2, c * delta * g)
    return total


@dataclass
class CuspDivisor:
    """Rational divisor supported on cusp classes: one order per c | N."""

    N: int
    orders: dict

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
            w = orders.get(c, Fraction(0)) + v
            if w:
                orders[c] = w
            else:
                orders.pop(c, None)
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
        orders = {int(c): Fraction(v) for c, v in data["orders"]}
        return cls(int(data["N"]), {c: v for c, v in orders.items() if v})


def eta_divisor(N: int, d: int) -> CuspDivisor:
    """Full cusp divisor of eta(d z) eta((N/d) z)."""
    orders = {}
    for c in divisors(N):
        v = eta_order(N, d, c)
        if v:
            orders[c] = v
    return CuspDivisor(N, orders)


def fricke_image(div: CuspDivisor) -> CuspDivisor:
    """Pullback under the Fricke involution: class c goes to class N/c."""
    return CuspDivisor(div.N, {div.N // c: v for c, v in div.orders.items()})


def cusp_space_dimension(N: int) -> int:
    """Dimension (sigma0(N) + [N is a square]) / 2 of the matching space."""
    sigma0 = len(divisors(N))
    return (sigma0 + (1 if isqrt(N) ** 2 == N else 0)) // 2


def solve_cusp_matching(N: int, target: CuspDivisor):
    """Coefficients x_d with sum_d x_d * eta_divisor(N, d) = target.

    The unknowns run over divisor classes {d, N/d} and the equations over
    Fricke classes of cusps, giving a square system of size
    cusp_space_dimension(N).  The target must be Fricke-invariant; a
    singular matrix would contradict the matching theorem and is reported
    as such.
    """
    if target.N != N:
        raise ValueError("target divisor has the wrong level")
    for c in divisors(N):
        if target.order(c) != target.order(N // c):
            raise ValueError(
                f"target is not Fricke-invariant: orders at c={c} and "
                f"c={N // c} differ"
            )
    cols = divisor_classes(N)
    reps = [c for c in divisors(N) if c * c <= N]
    rows = [[eta_order(N, d, c) for d in cols] for c in reps]
    rhs = [target.order(c) for c in reps]
    try:
        return solve_exact(rows, rhs)
    except SingularSystem as exc:
        raise MatchingError(
            f"matching matrix at level {N} is singular; this contradicts "
            f"the cusp-matching theorem ({exc})"
        )


# ----- binary quadratic forms and CM divisors ---------------------------


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


@lru_cache(maxsize=None)
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
        units = [u for u in range(1, N + 1)
                 if gcd(u, N) == 1 and (u * x - x) % N == 0]
        seen = set()
        for y in range(N):
            if gcd(gcd(x, y), N) != 1:
                continue
            key = min((u * y) % N for u in units)
            if key in seen:
                continue
            seen.add(key)
            reps.append((x, key))
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
def heegner_degree(N: int, n: int, gamma: int) -> Fraction:
    """Weighted number of level-N classes of forms with disc n and root gamma.

    Counts classes of positive definite forms (a, b, c) with N | a, b = gamma
    mod 2N and b^2 - 4ac = n under the level-N group, each weighted by the
    reciprocal of its projective stabilizer order.  Implemented without an
    explicit orbit partition: within one modular-group class with automorphism
    order w, the stabilizer-weighted class count equals (number of left
    cosets whose translate satisfies the two congruences) / w, by
    orbit-stabilizer.
    """
    if n >= 0:
        raise ValueError("the discriminant index n must be negative")
    two_n = 2 * N
    if not 0 <= gamma < two_n:
        raise ValueError(f"gamma must be a canonical residue mod {two_n}")
    if (n - gamma * gamma) % (4 * N):
        raise ValueError(f"n = {n} is not a square of {gamma} mod {4 * N}")
    total = Fraction(0)
    for (A, B, C) in reduced_forms(n):
        count = 0
        for a, b, c, d in _coset_reps(N):
            A2 = A * a * a + B * a * c + C * c * c
            if A2 % N:
                continue
            B2 = 2 * A * a * b + B * (a * d + b * c) + 2 * C * c * d
            if (B2 - gamma) % two_n == 0:
                count += 1
        if count:
            total += Fraction(count, _proj_automorph_order(A, B, C))
    return total


@dataclass
class HeegnerDivisor:
    """Formal rational combination of CM-point classes (n, gamma)."""

    N: int
    mult: dict

    def degree(self) -> Fraction:
        total = Fraction(0)
        for (n, gamma), m in self.mult.items():
            total += m * heegner_degree(self.N, n, gamma)
        return total

    def to_json(self) -> dict:
        return {"N": self.N,
                "mult": [[n, g, str(self.mult[(n, g)])]
                         for n, g in sorted(self.mult)]}


@dataclass
class HeegnerReport:
    """CM divisor of a principal part, its degree, and the cusp correction."""

    divisor: HeegnerDivisor
    degree: Fraction
    correction_class: int
    correction_mult: Fraction

    def to_json(self) -> dict:
        return {
            "heegner": self.divisor.to_json(),
            "degree": str(self.degree),
            "cusp_correction": {"c": self.correction_class,
                                "multiplicity": str(self.correction_mult)},
        }


def heegner_data(N: int, principal: dict) -> HeegnerReport:
    """Divisor data for a principal part {(n, gamma): multiplicity}, n < 0.

    The degree-zero correction places -degree at the class of infinity
    (c = N); set against the CM divisor it is the divisor that a weight 0
    lift of the principal part would cut out.
    """
    mult = {}
    for (n, gamma), m in principal.items():
        gamma %= 2 * N
        m = m if isinstance(m, Fraction) else Fraction(m)
        if not m:
            continue
        heegner_degree(N, n, gamma)  # validates the slot
        mult[(n, gamma)] = mult.get((n, gamma), Fraction(0)) + m
    mult = {k: v for k, v in mult.items() if v}
    div = HeegnerDivisor(N, mult)
    deg = div.degree()
    return HeegnerReport(divisor=div, degree=deg, correction_class=N,
                         correction_mult=-deg)


@dataclass
class Certificate:
    """Outcome of the divisor-matching pipeline at level N."""

    N: int
    heegner: HeegnerReport
    theta_coefficients: list
    weight: Fraction
    weyl: Fraction

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "heegner": self.heegner.to_json(),
            "theta_coefficients": [[d, str(x)] for d, x in self.theta_coefficients],
            "weight": str(self.weight),
            "weyl": str(self.weyl),
        }


def converse_pipeline(N: int, principal: dict, cusp_target: CuspDivisor) -> Certificate:
    """Match a CM principal part and a cusp target by eta products.

    Produces the certificate for the divisor argument: the CM divisor and
    its degree from the principal part, plus exact eta-product coefficients
    x_d reproducing the cusp target, with the predicted weight sum(x_d) and
    leading exponent sum x_d (d + N/d)/24 of the matching product.
    """
    report = heegner_data(N, principal)
    coeffs = solve_cusp_matching(N, cusp_target)
    classes = divisor_classes(N)
    weight = sum(coeffs, Fraction(0))
    weyl = Fraction(0)
    for x, d in zip(coeffs, classes):
        weyl += x * Fraction(d + N // d, 24)
    return Certificate(
        N=N,
        heegner=report,
        theta_coefficients=list(zip(classes, coeffs)),
        weight=weight,
        weyl=weyl,
    )
