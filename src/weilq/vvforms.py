"""Vector-valued q-expansions for the Weil representation attached to Z/2NZ.

An expansion carries two coefficient tables indexed by pairs (n, gamma): the
holomorphic table (which may include a principal part at n < 0) and the
table of negative-index coefficients coming from the incomplete-Gamma part
of a harmonic form.  In both tables the entry at (n, gamma) is the exact
rational coefficient of q^(n/4N) e_gamma.

Support rule: entries vanish unless n = sign * gamma^2 mod 4N, where sign
is +1 for the representation itself and -1 for its dual.  Component
symmetry: a(n, -gamma) = eps * a(n, gamma) with eps = (-1)^(k-1/2) on the
representation and (-1)^(k+1/2) on the dual.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from ._linalg import InconsistentSystem, SingularSystem, solve_exact
from .discform import atkin_lehner, divisor_classes


class DecompositionError(ValueError):
    """Raised when an expansion is not in the span of the theta basis."""


def symmetry_sign(weight: Fraction, rep: int) -> int:
    """The sign eps relating components gamma and -gamma."""
    if rep == 1:
        e = weight - Fraction(1, 2)
    elif rep == -1:
        e = weight + Fraction(1, 2)
    else:
        raise ValueError("rep flag must be +1 or -1")
    if e.denominator != 1:
        raise ValueError(f"weight {weight} is not half-integral")
    return -1 if int(e) % 2 else 1


def is_supported(N: int, rep: int, n: int, gamma: int) -> bool:
    return (n - rep * gamma * gamma) % (4 * N) == 0


def _clean_table(N: int, rep: int, table: dict) -> dict:
    """Canonicalize keys mod 2N, drop zeros, and verify the support rule."""
    out = {}
    for (n, gamma), c in table.items():
        c = c if isinstance(c, Fraction) else Fraction(c)
        if not c:
            continue
        gamma %= 2 * N
        if not is_supported(N, rep, n, gamma):
            raise ValueError(f"entry at (n={n}, gamma={gamma}) violates the support rule")
        out[(n, gamma)] = c
    return out


@dataclass
class VVExpansion:
    """Truncated vector-valued expansion at level N.

    holo and nonholo map (n, gamma) -> Fraction with canonical gamma in
    [0, 2N); nonholo keys have n < 0.  trunc is an integer window: all
    entries with |n| <= trunc are exact, larger indices are unspecified.

    A radical table (radical=True) is a formal shadow: holo maps (m, gamma)
    with m > 0 to the coefficient relative to an implicit radical weight
    sqrt(m/4N), which keeps every stored value rational, and nonholo is
    empty.  The support rule reads m = rep * gamma^2 mod 4N as usual.
    """

    N: int
    weight: Fraction
    rep: int
    holo: dict
    nonholo: dict
    trunc: int
    radical: bool = False

    @property
    def epsilon(self) -> int:
        return symmetry_sign(self.weight, self.rep)

    @property
    def _kind(self) -> tuple:
        """What two expansions must share to be added or compared."""
        return self.N, self.weight, self.rep, self.radical

    def get(self, n: int, gamma: int, part: str = "holo") -> Fraction:
        table = self.holo if part == "holo" else self.nonholo
        return table.get((n, gamma % (2 * self.N)), Fraction(0))

    def validate(self) -> None:
        """Check the support, symmetry, range and canonicity invariants."""
        eps = self.epsilon
        two_n = 2 * self.N
        for part, table in (("holo", self.holo), ("nonholo", self.nonholo)):
            for (n, gamma), c in table.items():
                if not c:
                    raise ValueError(f"stored zero at {part}{(n, gamma)}")
                if self.radical and part == "nonholo":
                    raise ValueError(f"nonholo entry in radical table at {(n, gamma)}")
                if self.radical and n <= 0:
                    raise ValueError(f"non-positive index at {(n, gamma)}")
                if not 0 <= gamma < two_n:
                    raise ValueError(f"non-canonical index at {part}{(n, gamma)}")
                if not is_supported(self.N, self.rep, n, gamma):
                    raise ValueError(f"support violation at {part}{(n, gamma)}")
                if abs(n) > self.trunc:
                    raise ValueError(f"entry beyond truncation at {part}{(n, gamma)}")
                if part == "nonholo" and n >= 0:
                    raise ValueError(f"nonholo entry with n >= 0 at {(n, gamma)}")
                if table.get((n, (-gamma) % two_n), Fraction(0)) != eps * c:
                    raise ValueError(f"symmetry violation at {part}{(n, gamma)}")

    def scaled(self, factor) -> "VVExpansion":
        if factor == 0:
            return VVExpansion(self.N, self.weight, self.rep, {}, {}, self.trunc,
                               self.radical)
        return VVExpansion(
            self.N,
            self.weight,
            self.rep,
            {k: factor * c for k, c in self.holo.items()},
            {k: factor * c for k, c in self.nonholo.items()},
            self.trunc,
            self.radical,
        )

    def __add__(self, other):
        if not isinstance(other, VVExpansion):
            return NotImplemented
        if self._kind != other._kind:
            raise ValueError("cannot add expansions of different type")
        holo = dict(self.holo)
        for k, c in other.holo.items():
            v = holo.get(k, Fraction(0)) + c
            if v:
                holo[k] = v
            else:
                holo.pop(k, None)
        nonholo = dict(self.nonholo)
        for k, c in other.nonholo.items():
            v = nonholo.get(k, Fraction(0)) + c
            if v:
                nonholo[k] = v
            else:
                nonholo.pop(k, None)
        return VVExpansion(self.N, self.weight, self.rep, holo, nonholo,
                           min(self.trunc, other.trunc), self.radical)

    def agrees_with(self, other, window=None):
        """Exact table comparison on the common reliable index range.

        Returns (True, None) or (False, witness) where the witness names the
        first differing slot.
        """
        if self._kind != other._kind:
            return False, ("type", self._kind, other._kind)
        w = min(self.trunc, other.trunc)
        if window is not None:
            w = min(w, window)
        for part in ("holo", "nonholo"):
            ta = getattr(self, part)
            tb = getattr(other, part)
            keys = {k for k in ta if abs(k[0]) <= w} | {k for k in tb if abs(k[0]) <= w}
            for k in sorted(keys):
                va = ta.get(k, Fraction(0))
                vb = tb.get(k, Fraction(0))
                if va != vb:
                    return False, (part, k, va, vb)
        return True, None

    def to_json(self) -> dict:
        """JSON tables; a radical table writes its one table under "r"."""
        data = {"N": self.N, "k": str(self.weight),
                "rep": "rho" if self.rep == 1 else "dual"}
        tables = ({"r": self.holo} if self.radical
                  else {"holo": self.holo, "nonholo": self.nonholo})
        for name, table in tables.items():
            data[name] = [[n, g, str(table[(n, g)])] for n, g in sorted(table)]
        data["trunc"] = self.trunc
        return data

    @classmethod
    def from_json(cls, data: dict) -> "VVExpansion":
        """Read the holo/nonholo layout; a malformed value raises ValueError."""
        try:
            N = int(data["N"])
            trunc = int(data["trunc"])
            rep = {"rho": 1, "dual": -1}[data["rep"]]
            weight = Fraction(data["k"])
            holo = {(int(n), int(g)): Fraction(c) for n, g, c in data["holo"]}
            nonholo = {(int(n), int(g)): Fraction(c) for n, g, c in data["nonholo"]}
        except TypeError as exc:
            raise ValueError(f"malformed expansion JSON: {exc}") from None
        if N < 1 or trunc < 0:
            raise ValueError(f"need N >= 1 and trunc >= 0, got N = {N}, "
                             f"trunc = {trunc}")
        return cls(N, weight, rep, _clean_table(N, rep, holo),
                   _clean_table(N, rep, nonholo), trunc)


# ----- constructions ----------------------------------------------------


def theta_series(N: int, trunc: int) -> VVExpansion:
    """The weight 1/2 unary theta expansion at level N.

    The component gamma collects q^(m^2/4N) over integers m = gamma mod 2N,
    so the coefficient at (n, gamma) counts such m with m^2 = n.
    """
    if N < 1:
        raise ValueError("level N must be a positive integer")
    if trunc < 0:
        raise ValueError("truncation must be non-negative")
    holo = {}
    two_n = 2 * N
    for m in range(-isqrt(trunc), isqrt(trunc) + 1):
        key = (m * m, m % two_n)
        holo[key] = holo.get(key, Fraction(0)) + 1
    return VVExpansion(N, Fraction(1, 2), 1, holo, {}, trunc)


def apply_aut(f: VVExpansion, c: int) -> VVExpansion:
    """Relabel components through the Atkin-Lehner involution sigma_c."""
    N = f.N
    perm = {g: atkin_lehner(N, c, g) for g in range(2 * N)}
    return VVExpansion(
        N,
        f.weight,
        f.rep,
        {(n, perm[g]): v for (n, g), v in f.holo.items()},
        {(n, perm[g]): v for (n, g), v in f.nonholo.items()},
        f.trunc,
        f.radical,
    )


def basis_m_half(N: int, trunc: int) -> list:
    """Basis of the holomorphic weight 1/2 space at level N.

    One element per divisor class {d, N/d}: writing e = gcd(d, N/d), take
    the theta expansion at level N/e^2, twist by the involution attached to
    the exact divisor d/e, and raise the index by e.  The list is aligned
    with divisor_classes(N) and has length (sigma0(N) + [N square]) / 2.
    """
    from .heckeops import level_u

    out = []
    for d in divisor_classes(N):
        e = gcd(d, N // d)
        n0 = N // (e * e)
        el = apply_aut(theta_series(n0, trunc), d // e)
        if e > 1:
            el = level_u(el, e)
        out.append(el)
    return out


def decompose(f: VVExpansion, basis: list) -> list:
    """Exact coordinates of f in the given weight 1/2 basis.

    Solves on the slots with 0 <= n <= 4N and then re-checks the resulting
    combination against f on the whole common reliable window, so a
    successful return is a proof of membership up to truncation.
    """
    if f.weight != Fraction(1, 2) or f.rep != 1:
        raise DecompositionError("decomposition applies to weight 1/2 expansions "
                                 "for the representation itself")
    if f.nonholo:
        raise DecompositionError("expansion has a non-holomorphic part")
    if f.radical:
        raise DecompositionError("a radical shadow table is not a q-expansion")
    if not basis:
        raise DecompositionError("empty basis")
    for b in basis:
        if (b.N, b.weight, b.rep) != (f.N, f.weight, f.rep):
            raise DecompositionError("basis element of mismatched type")
    window = min([f.trunc] + [b.trunc for b in basis])
    pivot = min(window, 4 * f.N)
    rows, rhs = [], []
    for n in range(0, pivot + 1):
        for g in range(2 * f.N):
            if not is_supported(f.N, 1, n, g):
                continue
            rows.append([b.holo.get((n, g), Fraction(0)) for b in basis])
            rhs.append(f.holo.get((n, g), Fraction(0)))
    try:
        coords = solve_exact(rows, rhs)
    except SingularSystem as exc:
        raise DecompositionError(f"theta basis is degenerate at level {f.N}: {exc}")
    except InconsistentSystem as exc:
        raise DecompositionError(
            f"expansion is not in the span of the theta basis (row {exc.row})"
        )
    combo = {}
    for x, b in zip(coords, basis):
        if not x:
            continue
        for k, c in b.holo.items():
            v = combo.get(k, Fraction(0)) + x * c
            if v:
                combo[k] = v
            else:
                combo.pop(k, None)
    keys = {k for k in combo if abs(k[0]) <= window}
    keys |= {k for k in f.holo if abs(k[0]) <= window}
    for k in sorted(keys):
        if combo.get(k, Fraction(0)) != f.holo.get(k, Fraction(0)):
            raise DecompositionError(
                f"expansion is not in the span of the theta basis "
                f"(first mismatch at slot {k})"
            )
    return coords


def formal_xi(f: VVExpansion) -> VVExpansion:
    """Repackage the negative-index table as a weight 2-k radical table.

    The entry at (m, gamma) is the nonholo coefficient at (-m, gamma); the
    irrational radial factor sqrt(m/4N) and the global constant of the
    differential pairing are left implicit, which is what keeps the table
    rational and level-independent.
    """
    r = {(-n, g): c for (n, g), c in f.nonholo.items()}
    return VVExpansion(f.N, 2 - f.weight, -f.rep, r, {}, f.trunc, radical=True)


def random_supported(N: int, weight, rep: int, seed: int, trunc: int) -> VVExpansion:
    """Deterministic pseudo-random expansion obeying support and symmetry.

    Used by the verification suites: every supported slot with |n| <= trunc
    is filled with probability about one half with a small rational, and the
    partner slot at -gamma is set to eps times the same value.
    """
    eps = symmetry_sign(Fraction(weight), rep)
    rng = random.Random(seed)
    two_n = 2 * N
    four_n = 4 * N
    holo, nonholo = {}, {}
    for gamma in range(0, N + 1):
        partner = (-gamma) % two_n
        if partner == gamma and eps == -1:
            continue
        r0 = (rep * gamma * gamma) % four_n
        for table, lo, hi in ((holo, -trunc, trunc), (nonholo, -trunc, -1)):
            if lo > hi:
                continue
            start = lo + ((r0 - lo) % four_n)
            for n in range(start, hi + 1, four_n):
                if rng.random() >= 0.5:
                    continue
                num = rng.randint(-9, 9)
                den = rng.choice((1, 1, 2, 3, 4))
                if not num:
                    continue
                val = Fraction(num, den)
                table[(n, gamma)] = val
                if partner != gamma:
                    table[(n, partner)] = eps * val
    return VVExpansion(N, Fraction(weight), rep, holo, nonholo, trunc)
