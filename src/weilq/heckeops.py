"""Hecke, index-raising and index-spreading operators on the expansions.

All operators act slot-by-slot on the coefficient tables; the holomorphic
and the negative-index tables transform by the same index formulas.  Each
function returns a fresh expansion whose truncation records the tight range
on which the output is exact.  They act on radical (formal shadow) tables
too, where they are the operators transported through formal_xi.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .discform import divisors, prime_factors
from .vvforms import VVExpansion

_ZERO = Fraction(0)


def _require_good_prime(p: int, N: int) -> None:
    if prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    if gcd(p, 2 * N) != 1:
        raise ValueError(f"prime {p} divides 2N = {2 * N}; this operator "
                         "is only defined away from the level")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _int_pow(base: int, expo: Fraction) -> Fraction:
    if expo.denominator != 1:
        raise ValueError(f"exponent {expo} is not an integer")
    return Fraction(base) ** int(expo)


def _supported_slots(N: int, rep: int, lo: int, hi: int):
    """All (n, gamma) with lo <= n <= hi on the support lattice."""
    four_n = 4 * N
    for gamma in range(2 * N):
        r = (rep * gamma * gamma) % four_n
        start = lo + ((r - lo) % four_n)
        for n in range(start, hi + 1, four_n):
            yield n, gamma


def _tp_table(table: dict, N: int, rep: int, p: int, weight: Fraction,
              lo: int, hi: int) -> dict:
    """Three-term T_p gather at a given weight.

    Output slot (n, gamma) collects
        a(p^2 n, p gamma) + p^(k-3/2) (rep*n/p) a(n, gamma)
                          + p^(2k-2) a(n/p^2, gamma/p),
    the last term only when p^2 divides n; gamma/p means multiplication by
    the inverse of p mod 2N.
    """
    two_n = 2 * N
    pinv = pow(p, -1, two_n)
    w1 = _int_pow(p, weight - Fraction(3, 2))
    w2 = _int_pow(p, 2 * weight - 2)
    p2 = p * p
    out = {}
    for n, gamma in _supported_slots(N, rep, lo, hi):
        v = table.get((p2 * n, (p * gamma) % two_n), _ZERO)
        chi = legendre(rep * n, p)
        if chi:
            v = v + chi * w1 * table.get((n, gamma), _ZERO)
        if n % p2 == 0:
            v = v + w2 * table.get((n // p2, (pinv * gamma) % two_n), _ZERO)
        if v:
            out[(n, gamma)] = v
    return out


def _u_table(table: dict, N: int, d: int) -> dict:
    """Index raising scatter: (n, gamma) feeds the d slots above it."""
    out = {}
    modulus = 2 * N * d * d
    step = 2 * N * d
    d2 = d * d
    for (n, gamma), c in table.items():
        base = d * gamma
        nn = n * d2
        for t in range(d):
            out[(nn, (base + step * t) % modulus)] = c
    return out


def _v_table(table: dict, N: int, rep: int, ell: int, a_exp: int,
             lo: int, hi: int, prefactor=Fraction(1)) -> dict:
    """Divisor-sum gather for the index-spreading operator.

    At output level N*ell the slot (n, gamma) collects a^a_exp times the
    entry at (n/a^2, gamma/a) over positive a dividing
    gcd((gamma^2 - rep*n)/(4*N*ell), gamma, ell); the first gcd argument is
    an integer exactly when the slot satisfies the output support rule, and
    gcd(0, x) = x throughout.
    """
    out = {}
    n_out = N * ell
    four = 4 * n_out
    two_n = 2 * N
    for n, gamma in _supported_slots(n_out, rep, lo, hi):
        x = (gamma * gamma - rep * n) // four
        g = gcd(gcd(abs(x), gamma), ell)
        tot = _ZERO
        for a in divisors(g):
            if n % (a * a):
                continue
            c = table.get((n // (a * a), (gamma // a) % two_n))
            if c:
                tot += Fraction(a) ** a_exp * c
        if tot:
            out[(n, gamma)] = prefactor * tot
    return out


# ----- operators on expansions -----------------------------------------


def _gather_frame(f: VVExpansion, w: int):
    """Gather weight and the first index of the holo and nonholo windows.

    On a radical table, carrying the implicit sqrt(m/4N) through the index
    formulas turns T_p and V_l into the plain gathers taken at weight k - 1
    (up to a global power of p or l), and only 1 <= m <= w is walked: the
    nonholo window starts at 0 and so is empty.
    """
    if f.radical:
        return f.weight - 1, 1, 0
    return f.weight, -w, -w


def hecke_tp(f: VVExpansion, p: int) -> VVExpansion:
    """Hecke operator T_p for a prime p coprime to 2N.

    The reliable window shrinks by p^2 because the leading term reads the
    coefficient at p^2 n.  On a radical table of weight k the result is p
    times the plain three-term gather taken at weight k - 1.
    """
    _require_good_prime(p, f.N)
    w = f.trunc // (p * p)
    weight, lo, lo_nonholo = _gather_frame(f, w)
    holo = _tp_table(f.holo, f.N, f.rep, p, weight, lo, w)
    if f.radical:
        holo = {s: p * v for s, v in holo.items()}
    return VVExpansion(
        f.N,
        f.weight,
        f.rep,
        holo,
        _tp_table(f.nonholo, f.N, f.rep, p, weight, lo_nonholo, -1),
        w,
        f.radical,
    )


def level_u(f: VVExpansion, d: int) -> VVExpansion:
    """Index raising U_d: level N -> N d^2, coefficient (n,g) -> (n/d^2, g/d).

    Indices scale by d^2, so the reliable integer window grows by d^2 (the
    underlying rational exponent window n/(4N d^2) is unchanged).  The
    radical weight re-bases itself, so radical tables move the same way.
    """
    if d < 1:
        raise ValueError("index raising requires a positive integer")
    if d == 1:
        return f
    return VVExpansion(
        f.N * d * d,
        f.weight,
        f.rep,
        _u_table(f.holo, f.N, d),
        _u_table(f.nonholo, f.N, d),
        f.trunc * d * d,
        f.radical,
    )


def level_v(f: VVExpansion, ell: int) -> VVExpansion:
    """Index spreading V_ell: level N -> N*ell with a-weights a^(k-1/2).

    On a radical table of weight k the a-weights are a^(k-3/2) and a global
    factor ell^(3/2-k) applies; at k = 3/2 this is a plain divisor sum.
    """
    if ell < 1:
        raise ValueError("index spreading requires a positive integer")
    if ell == 1:
        return f
    w = f.trunc
    weight, lo, lo_nonholo = _gather_frame(f, w)
    a_exp = int(weight - Fraction(1, 2))
    pref = _int_pow(ell, Fraction(3, 2) - f.weight) if f.radical else Fraction(1)
    return VVExpansion(
        f.N * ell,
        f.weight,
        f.rep,
        _v_table(f.holo, f.N, f.rep, ell, a_exp, lo, w, pref),
        _v_table(f.nonholo, f.N, f.rep, ell, a_exp, lo_nonholo, -1),
        w,
        f.radical,
    )
