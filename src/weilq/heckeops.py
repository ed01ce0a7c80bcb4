"""Hecke, index-raising and index-spreading operators on the expansions.

All operators scatter stored entries into their output slots, so the cost
follows the entry count, not the window; holo and nonholo tables transform
alike.  The scatter costs one Fraction operation per contribution and drops
cancelling slots as it goes.  Each function returns a fresh expansion whose
truncation records the tight range on which the output is exact.  On radical
(formal shadow) tables they are the operators transported through formal_xi.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .discform import divisors, prime_factors
from .fracq import add_into
from .vvforms import VVExpansion


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


def _tp_table(table: dict, N: int, rep: int, p: int, weight: Fraction,
              lo: int, hi: int) -> dict:
    """Three-term T_p scatter at a given weight.

    Output slot (n, gamma) collects
        a(p^2 n, p gamma) + p^(k-3/2) (rep*n/p) a(n, gamma)
                          + p^(2k-2) a(n/p^2, gamma/p),
    the last term only when p^2 divides n; gamma/p means multiplication by
    the inverse of p mod 2N.  Read from the stored side, an entry (m, delta)
    feeds (m/p^2, delta/p), (m, delta) and (p^2 m, p delta); only outputs
    with lo <= n <= hi are kept.  The middle factor (rep*m/p) p^(k-3/2) is
    looked up by m mod p: each contribution costs one Fraction operation,
    and a slot whose contributions cancel is dropped as it goes.
    """
    two_n = 2 * N
    pinv = pow(p, -1, two_n)
    w1 = _int_pow(p, weight - Fraction(3, 2))
    w2 = p * w1 * w1  # p^(2k-2)
    chi_w1 = {1: w1, -1: -w1}
    mid = [chi_w1.get(legendre(rep * r, p)) for r in range(p)]
    p2 = p * p
    out = {}
    for (m, delta), c in table.items():
        if m % p2 == 0 and lo <= m // p2 <= hi:
            add_into(out, (m // p2, (pinv * delta) % two_n), c)
        if lo <= m <= hi and (w := mid[m % p]) is not None:
            add_into(out, (m, delta), w * c)
        if lo <= p2 * m <= hi:
            add_into(out, (p2 * m, (p * delta) % two_n), w2 * c)
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
             lo: int, hi: int, prefactor=1) -> dict:
    """Divisor-sum scatter for the index-spreading operator.

    At output level N*ell the slot (n, gamma) collects a^a_exp times the
    entry at (n/a^2, gamma/a) over positive a dividing
    gcd((gamma^2 - rep*n)/(4*N*ell), gamma, ell).  So an entry (m, delta)
    and a divisor a of ell feed (a^2 m, a*(delta + 2N t)) for the t < ell/a
    where ell/a divides N t^2 + delta t + (delta^2 - rep*m)/(4N), an integer
    by the support rule; only outputs with lo <= n <= hi are kept.  Each
    (entry, a) costs one Fraction operation, shared by its roots t, and
    cancelling slots drop out as it goes; a prefactor is one more pass.
    """
    two_n = 2 * N
    out = {}
    for a in divisors(ell):
        a2, count = a * a, ell // a
        weight = Fraction(a) ** a_exp if a > 1 and a_exp else None
        roots = {}  # delta -> {N t^2 + delta t mod ell/a: [a*(delta + 2N t)]}
        for (m, delta), c in table.items():
            n = a2 * m
            if not lo <= n <= hi:
                continue
            by_res = roots.get(delta)
            if by_res is None:
                roots[delta] = by_res = {}
                for t in range(count):
                    by_res.setdefault((N * t * t + delta * t) % count, []).append(
                        a * (delta + two_n * t))
            gammas = by_res.get((rep * m - delta * delta) // (2 * two_n) % count)
            if gammas:
                v = c if weight is None else weight * c
                for gamma in gammas:
                    add_into(out, (n, gamma), v)
    return out if prefactor == 1 else {k: prefactor * v for k, v in out.items()}


# ----- operators on expansions -----------------------------------------


def _kernel_frame(f: VVExpansion, w: int):
    """Kernel weight and the first index of the holo and nonholo windows.

    On a radical table, carrying the implicit sqrt(m/4N) through the index
    formulas turns T_p and V_l into the plain kernels taken at weight k - 1
    (up to a global power of p or l), and only outputs with 1 <= m <= w are
    kept: the nonholo window starts at 0 and so is empty.
    """
    if f.radical:
        return f.weight - 1, 1, 0
    return f.weight, -w, -w


def hecke_tp(f: VVExpansion, p: int) -> VVExpansion:
    """Hecke operator T_p for a prime p coprime to 2N.

    The reliable window shrinks by p^2 because the leading term reads the
    coefficient at p^2 n.  On a radical table of weight k the result is p
    times the plain three-term kernel taken at weight k - 1.
    """
    _require_good_prime(p, f.N)
    w = f.trunc // (p * p)
    weight, lo, lo_nonholo = _kernel_frame(f, w)
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
    weight, lo, lo_nonholo = _kernel_frame(f, w)
    a_exp = int(weight - Fraction(1, 2))
    pref = _int_pow(ell, Fraction(3, 2) - f.weight) if f.radical else 1
    return VVExpansion(
        f.N * ell,
        f.weight,
        f.rep,
        _v_table(f.holo, f.N, f.rep, ell, a_exp, lo, w, pref),
        _v_table(f.nonholo, f.N, f.rep, ell, a_exp, lo_nonholo, -1),
        w,
        f.radical,
    )
