"""The finite quadratic module Z/2NZ with form gamma^2/(4N) mod 1.

Component indices gamma are always canonical residues in [0, 2N).  The
Atkin-Lehner involutions sigma_c, one for every exact divisor c of N, act on
this index set and preserve the quadratic form.
"""

from __future__ import annotations

from math import gcd, isqrt


def divisors(N: int) -> list:
    """Sorted positive divisors of N."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    small, large = [], []
    for d in range(1, isqrt(N) + 1):
        if N % d == 0:
            small.append(d)
            if d * d != N:
                large.append(N // d)
    return small + large[::-1]


def exact_divisors(N: int) -> list:
    """Divisors c of N with gcd(c, N/c) = 1, sorted."""
    return [c for c in divisors(N) if gcd(c, N // c) == 1]


def divisor_classes(N: int) -> list:
    """One representative d per unordered pair {d, N/d}, sorted.

    The representative is the smaller member, so d*d <= N always holds and a
    perfect square N contributes its square root once.
    """
    return [d for d in divisors(N) if d * d <= N]


def prime_factors(N: int) -> list:
    """Distinct prime factors of an int N >= 1, ascending (trial division)."""
    if type(N) is not int or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    out = []
    n, p = N, 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def euler_phi(N: int) -> int:
    val = N
    for p in prime_factors(N):
        val = val // p * (p - 1)
    return val


def index_gamma0(N: int) -> int:
    """Index of the Hecke congruence subgroup of level N in the modular group."""
    val = N
    for p in prime_factors(N):
        val = val // p * (p + 1)
    return val


def atkin_lehner(N: int, c: int, gamma: int) -> int:
    """Image of gamma under the involution attached to an exact divisor c.

    sigma_c(gamma) is the unique residue mod 2N that is = -gamma mod 2c and
    = gamma mod 2N/c.  It is multiplication by the unit
    eps = 2c * (c^-1 mod N/c) - 1, which is = -1 mod 2c and = 1 mod 2N/c
    (since c * c^-1 = 1 mod N/c).
    """
    if not (1 <= c <= N and N % c == 0 and gcd(c, N // c) == 1):
        raise ValueError(f"{c} is not an exact divisor of {N}")
    if not 0 <= gamma < 2 * N:
        raise ValueError(f"component index {gamma} is not a residue mod {2 * N}")
    eps = 2 * c * pow(c, -1, N // c) - 1
    return eps * gamma % (2 * N)
