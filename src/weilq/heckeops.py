"""Hecke, index-raising and index-spreading operators on the expansions.

All operators scatter stored entries into their output slots, so the cost
follows the entry count, not the window; holo and nonholo tables transform
alike, and neither reads the other: an operator maps holo to holo and
nonholo to nonholo, which the xi suite relies on when it runs its left
sides on the nonholo table alone.  The scatter costs at most one Fraction
operation per contribution and drops cancelling slots as it goes.  T_p and
V_l each keep one memo of what their index decides, keyed without N (V_l
sees N only as N mod l), so the memos stay small at any level.  The
operators assume a table that passes validate() and do not check it: one
validate() per call costs about as much as the operator.  Results come
from f._with, which keeps weight, rep and radical.  Each function returns
a fresh expansion whose truncation w records the tight range on which the
output is exact, except that level_u(f, 1) and level_v(f, 1) return f
itself.  Both tables keep outputs in the one window |n| <= w: every
operator maps an index m to one of its sign (m/p^2, m, p^2 m or a^2 m), so
nonholo keeps n <= -1 and a radical table n >= 1 with no bound of their
own.  On radical (formal shadow) tables the operators are transported
through formal_xi: carrying the implicit sqrt(m/4N) through the index
formulas turns T_p and V_l into the plain kernels at weight k - 1, up to a
global power of p or l.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .discform import divisors, prime_factors
from .fracq import add_into
from .vvforms import VVExpansion


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


@lru_cache(maxsize=256, typed=True)
def _tp_factors(p: int, rep: int, weight: Fraction, radical: bool) -> tuple:
    """The factors of the three T_p terms; none of them depends on N.

    Returns (first, mid, last): the factor of a(p^2 n, p gamma), None for 1;
    mid[m % p] = (rep*m/p) p^(k-3/2), None where p divides m; and p^(2k-2),
    at the kernel weight k (k - 1 on a radical table).  A radical table's
    global factor p is folded into all three, so no pass over the output
    applies it.  A p that is not an int prime raises ValueError, on every
    call, as lru_cache keeps no exception.
    Keys are typed, so a weight of another type that equals a Fraction is
    not served that Fraction's factors.
    """
    if type(p) is not int or p < 2 or prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    kernel, scale = (weight - 1, p) if radical else (weight, 1)
    w1 = _int_pow(p, kernel - Fraction(3, 2))
    chi_w1 = {1: scale * w1, -1: -scale * w1}
    mid = tuple(chi_w1.get(legendre(rep * r, p)) for r in range(p))
    return (p if radical else None), mid, scale * p * w1 * w1


def _tp_table(table: dict, N: int, p: int, factors: tuple, w: int) -> dict:
    """Three-term T_p scatter with the factors of _tp_factors.

    Output slot (n, gamma) collects
        a(p^2 n, p gamma) + p^(k-3/2) (rep*n/p) a(n, gamma)
                          + p^(2k-2) a(n/p^2, gamma/p),
    the last term only when p^2 divides n; gamma/p means multiplication by
    the inverse of p mod 2N, the one factor computed per call.  Read from
    the stored side, an entry (m, delta) feeds (m/p^2, delta/p), (m, delta)
    and (p^2 m, p delta), all of the sign of m; only outputs with |n| <= w
    are kept.  Each contribution costs at most one Fraction operation, and a
    slot whose contributions cancel is dropped as it goes.
    """
    first, mid, last = factors
    two_n = 2 * N
    pinv = pow(p, -1, two_n)
    p2 = p * p
    lo = -w  # a local: -w in the loop costs a negation per test
    out = {}
    for (m, delta), c in table.items():
        if m % p2 == 0 and lo <= m // p2 <= w:
            add_into(out, (m // p2, (pinv * delta) % two_n),
                     c if first is None else first * c)
        if lo <= m <= w and (chi := mid[m % p]) is not None:
            add_into(out, (m, delta), chi * c)
        if lo <= p2 * m <= w:
            add_into(out, (p2 * m, (p * delta) % two_n), last * c)
    return out


def _u_table(table: dict, N: int, d: int) -> dict:
    """Index raising scatter: (n, gamma) feeds the d slots above it.

    The slots are (d^2 n, d gamma + 2N d t) for t < d, with the offsets
    2N d t computed once per call.  As gamma < 2N and t < d, the index is
    below 2N d^2 and so already canonical: no reduction is needed.
    """
    out = {}
    d2 = d * d
    offsets = range(0, 2 * N * d2, 2 * N * d)
    for (n, gamma), c in table.items():
        base = d * gamma
        nn = n * d2
        for s in offsets:
            out[(nn, base + s)] = c
    return out


@lru_cache(maxsize=256, typed=True)
def _v_plan(ell: int, n_mod: int, weight: Fraction, radical: bool) -> tuple:
    """(a, a^2, ell/a, factor, roots) for each divisor a of ell.

    The factor multiplies a's contributions: a^(k-1/2) at the kernel weight
    k (k - 1 on a radical table), times the global ell^(3/2-k) of a radical
    table, and None where that is 1.  roots[delta % c][r] lists the t < c
    with N t^2 + delta t = r mod c for c = ell/a; they see N only mod c,
    which n_mod = N % ell fixes, so the cache holds at most ell keys per
    index, weight and table kind at any level.  Keys are typed, as in
    _tp_factors.  Every call shares the returned tables, so nothing may
    change them.
    """
    kernel = weight - 1 if radical else weight
    a_exp = kernel - Fraction(1, 2)
    pref = _int_pow(ell, Fraction(3, 2) - weight) if radical else 1
    out = []
    for a in divisors(ell):
        count = ell // a
        roots = tuple({} for _ in range(count))
        for delta, by_res in enumerate(roots):
            for t in range(count):
                by_res.setdefault((n_mod * t * t + delta * t) % count, []).append(t)
        w = pref * _int_pow(a, a_exp)
        out.append((a, a * a, count, None if w == 1 else w, roots))
    return tuple(out)


def _v_table(table: dict, N: int, rep: int, plan: tuple, w: int) -> dict:
    """Divisor-sum scatter for the index-spreading operator.

    At output level N*ell the slot (n, gamma) collects the weight of a times
    the entry at (n/a^2, gamma/a) over positive a dividing
    gcd((gamma^2 - rep*n)/(4*N*ell), gamma, ell).  So an entry (m, delta)
    and a divisor a of ell feed (a^2 m, a*(delta + 2N t)), of the sign of m,
    for the t < ell/a where ell/a divides N t^2 + delta t + (delta^2 -
    rep*m)/(4N), an integer by the support rule; only outputs with |n| <= w
    are kept.  The weights and roots t come from _v_plan.  Each (entry, a)
    costs at most one Fraction operation, shared by its roots t, and
    cancelling slots drop out as it goes.
    """
    two_n = 2 * N
    four_n = 2 * two_n
    lo = -w
    out = {}
    for a, a2, count, weight, roots in plan:
        step = a * two_n
        for (m, delta), c in table.items():
            n = a2 * m
            if not lo <= n <= w:
                continue
            ts = roots[delta % count].get((rep * m - delta * delta) // four_n % count)
            if ts:
                v = c if weight is None else weight * c
                base = a * delta
                for t in ts:
                    add_into(out, (n, base + step * t), v)
    return out


# ----- operators on expansions -----------------------------------------


def hecke_tp(f: VVExpansion, p: int) -> VVExpansion:
    """Hecke operator T_p for a prime p coprime to 2N.

    The reliable window shrinks by p^2 because the leading term reads the
    coefficient at p^2 n.  On a radical table of weight k the result is p
    times the plain three-term kernel taken at weight k - 1.  f is assumed
    to pass validate(), which is not checked.
    """
    factors = _tp_factors(p, f.rep, f.weight, f.radical)
    if gcd(p, 2 * f.N) != 1:
        raise ValueError(f"prime {p} divides 2N = {2 * f.N}; this operator "
                         "is only defined away from the level")
    w = f.trunc // (p * p)
    return f._with(_tp_table(f.holo, f.N, p, factors, w),
                   _tp_table(f.nonholo, f.N, p, factors, w), w)


def level_u(f: VVExpansion, d: int) -> VVExpansion:
    """Index raising U_d: level N -> N d^2, coefficient (n,g) -> (n/d^2, g/d).

    Indices scale by d^2, so the reliable integer window grows by d^2 (the
    underlying rational exponent window n/(4N d^2) is unchanged).  The
    radical weight re-bases itself, so radical tables move the same way.
    f is assumed to pass validate(), which is not checked.
    """
    if type(d) is not int or d < 1:
        raise ValueError("index raising requires a positive integer")
    if d == 1:
        return f
    return f._with(_u_table(f.holo, f.N, d), _u_table(f.nonholo, f.N, d),
                   f.trunc * d * d, f.N * d * d)


def level_v(f: VVExpansion, ell: int) -> VVExpansion:
    """Index spreading V_ell: level N -> N*ell with a-weights a^(k-1/2).

    On a radical table of weight k the a-weights are a^(k-3/2) and a global
    factor ell^(3/2-k) applies; at k = 3/2 this is a plain divisor sum.
    f is assumed to pass validate(), which is not checked.
    """
    if type(ell) is not int or ell < 1:
        raise ValueError("index spreading requires a positive integer")
    if ell == 1:
        return f
    w = f.trunc
    plan = _v_plan(ell, f.N % ell, f.weight, f.radical)
    return f._with(_v_table(f.holo, f.N, f.rep, plan, w),
                   _v_table(f.nonholo, f.N, f.rep, plan, w), w, f.N * ell)
