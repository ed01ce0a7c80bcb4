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
from fractions import Fraction
from math import gcd, isqrt

from ._linalg import InconsistentSystem, SingularSystem, solve_exact
from .discform import atkin_lehner, divisor_classes
from .fracq import Record, add_into, parse_fraction, to_fraction


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


def _check_frame(N: int, trunc: int) -> None:
    """An expansion needs an int level N >= 1 and an int truncation trunc >= 0."""
    if type(N) is not int or type(trunc) is not int or N < 1 or trunc < 0:
        raise ValueError(f"N and trunc must be integers with N >= 1 and trunc >= 0, "
                         f"got N = {N!r}, trunc = {trunc!r}")


def _read_table(two_n: int, rows) -> dict:
    """Read [n, gamma, value] rows into a table with gamma reduced mod 2N.

    Reading needs integer indices, rational values and no slot given twice;
    zero values are dropped.  The table rules are VVExpansion.validate()'s.
    """
    parsed = {}  # value as read -> Fraction, or None for zero; values repeat
    out = {}
    for n, gamma, value in rows:
        if type(n) is not int or type(gamma) is not int:
            raise ValueError(f"entry at (n={n!r}, gamma={gamma!r}) has a "
                             f"non-integer index")
        if value not in parsed or type(value) is bool:  # True == 1, False == 0
            parsed[value] = parse_fraction(value) or None
        c = parsed[value]
        if c is None:
            continue
        key = (n, gamma % two_n)
        if key in out:
            raise ValueError(f"slot (n={n}, gamma={key[1]}) is given twice")
        out[key] = c
    return out


class VVExpansion(Record):
    """Truncated vector-valued expansion at level N.

    holo and nonholo map (n, gamma) -> Fraction with canonical gamma in
    [0, 2N); nonholo keys have n < 0.  trunc is an integer window: all
    entries with |n| <= trunc are exact, larger indices are unspecified.

    A radical table (radical=True) is a formal shadow: holo maps (m, gamma)
    with m > 0 to the coefficient relative to an implicit radical weight
    sqrt(m/4N), which keeps every stored value rational, and nonholo is
    empty.  The support rule reads m = rep * gamma^2 mod 4N as usual.
    Operator results come from _with, which keeps weight, rep and radical.
    A plain class, not a dataclass (see fracq.Record).
    """

    def __init__(self, N: int, weight: Fraction, rep: int, holo: dict,
                 nonholo: dict, trunc: int, radical: bool = False) -> None:
        self.N = N
        self.weight = weight
        self.rep = rep
        self.holo = holo
        self.nonholo = nonholo
        self.trunc = trunc
        self.radical = radical

    @property
    def epsilon(self) -> int:
        return symmetry_sign(self.weight, self.rep)

    @property
    def _kind(self) -> tuple:
        """What two expansions must share to be added or compared."""
        return self.N, self.weight, self.rep, self.radical

    def get(self, n: int, gamma: int) -> Fraction:
        return self.holo.get((n, gamma % (2 * self.N)), Fraction(0))

    def _with(self, holo: dict, nonholo: dict, trunc: int,
              N: int = None) -> "VVExpansion":
        """These tables at level N (default self.N) with self's weight, rep
        and radical flag: the result of an operator on self."""
        return VVExpansion(N or self.N, self.weight, self.rep, holo, nonholo,
                           trunc, self.radical)

    def validate(self) -> None:
        """Raise ValueError unless every table rule holds; from_json ends here.

        The rules: N >= 1, trunc >= 0 and half-integral weight; a radical
        table stores only holo entries, at n > 0.  One pass per table checks
        each entry, in turn, for type Fraction, no stored zero, holo n in
        [-trunc, trunc] or nonholo n in [-trunc, -1], gamma in [0, 2N) and
        the support rule, then for a(n, -gamma) = eps * a(n, gamma): a
        self-paired slot is empty when eps = -1, the partner at (n, 2N - gamma)
        is stored, and a pair is compared once, from its gamma < N side.  A
        table with several faults reports the first faulty entry it meets.
        """
        N, rep, trunc = self.N, self.rep, self.trunc
        _check_frame(N, trunc)
        eps = self.epsilon
        lo, two_n, four_n = -trunc, 2 * N, 4 * N
        if self.radical:
            for key in self.nonholo:
                raise ValueError(f"nonholo entry in radical table at {key}")
            for n, gamma in self.holo:
                if n <= 0:
                    raise ValueError(f"non-positive index at {(n, gamma)}")
        for part, table, hi in (("holo", self.holo, trunc),
                                ("nonholo", self.nonholo, -1)):
            get = table.get
            for (n, gamma), c in table.items():
                if type(c) is not Fraction:
                    raise ValueError(f"value at {part}{(n, gamma)} has type "
                                     f"{type(c).__name__}, not Fraction")
                num, den = c.as_integer_ratio()
                if not num:
                    raise ValueError(f"stored zero at {part}{(n, gamma)}")
                if not lo <= n <= hi:
                    raise ValueError(f"entry at (n={n}, gamma={gamma}) is outside "
                                     f"[{lo}, {hi}]")
                if not 0 <= gamma < two_n:
                    raise ValueError(f"non-canonical index at {part}{(n, gamma)}")
                if (n - rep * gamma * gamma) % four_n:
                    raise ValueError(f"entry at (n={n}, gamma={gamma}) violates the "
                                     f"support rule")
                if gamma == 0 or gamma == N:
                    if eps < 0:
                        raise ValueError(f"entry at (n={n}, gamma={gamma}) violates the "
                                         f"symmetry: a self-paired slot must vanish")
                elif (v := get((n, two_n - gamma))) is None:
                    raise ValueError(f"entry at (n={n}, gamma={gamma}) violates the "
                                     f"symmetry: gamma = {two_n - gamma} is missing")
                # int ratios compare cheaper than Fractions; the reader shares
                # one value per text, so v may be c itself, which matches only
                # when eps = +1; a v of another type raises at its own entry
                elif (gamma < N and (v is not c or eps < 0) and type(v) is Fraction
                      and v.as_integer_ratio() != (eps * num, den)):
                    raise ValueError(f"entry at (n={n}, gamma={two_n - gamma}) "
                                     f"violates the symmetry with gamma = {gamma}")

    def scaled(self, factor) -> "VVExpansion":
        """factor * self for an int or Fraction factor; any other raises TypeError."""
        if not isinstance(factor, (int, Fraction)):
            raise TypeError(f"scale factor must be an int or a Fraction, "
                            f"not {type(factor).__name__}")
        tables = [{k: factor * c for k, c in t.items()} if factor else {}
                  for t in (self.holo, self.nonholo)]
        return self._with(*tables, self.trunc)

    def __add__(self, other):
        if not isinstance(other, VVExpansion):
            return NotImplemented
        if self._kind != other._kind:
            raise ValueError("cannot add expansions of different type")
        w = min(self.trunc, other.trunc)
        parts = []
        for mine, theirs in ((self.holo, other.holo), (self.nonholo, other.nonholo)):
            out = {k: c for k, c in mine.items() if abs(k[0]) <= w}
            for k, c in theirs.items():
                if abs(k[0]) <= w:
                    add_into(out, k, c)
            parts.append(out)
        return self._with(*parts, w)

    def agrees_with(self, other):
        """Exact table comparison on the common reliable index range.

        Returns (True, None) or (False, witness): the first differing slot in
        sorted order, or ("type", kind, kind).  Stored zeros count as absent.
        Equal raw tables are equal on every window, so they are not filtered.
        """
        if self._kind != other._kind:
            return False, ("type", self._kind, other._kind)
        if self.holo == other.holo and self.nonholo == other.nonholo:
            return True, None
        w = min(self.trunc, other.trunc)
        for part in ("holo", "nonholo"):
            ta = {k: c for k, c in getattr(self, part).items() if abs(k[0]) <= w}
            tb = {k: c for k, c in getattr(other, part).items() if abs(k[0]) <= w}
            if ta == tb:
                continue
            for k in sorted(ta.keys() | tb.keys()):
                va = ta.get(k, Fraction(0))
                vb = tb.get(k, Fraction(0))
                if va != vb:
                    return False, (part, k, va, vb)
        return True, None

    def to_json(self) -> dict:
        """JSON tables; a radical table writes its one table under "r".

        Each table is a list of [n, gamma, text] rows sorted by (n, gamma),
        where text is str() of the stored Fraction.  str() runs once per
        distinct stored value object: operators and the reader share one
        object among many entries.
        """
        data = {"N": self.N, "k": str(self.weight),
                "rep": "rho" if self.rep == 1 else "dual"}
        tables = ({"r": self.holo} if self.radical
                  else {"holo": self.holo, "nonholo": self.nonholo})
        # keyed by id(v), which is sound while the tables keep every value
        # alive; hashing a Fraction costs more than the str() it saves
        text = {}
        for name, table in tables.items():
            rows = data[name] = []
            for key in sorted(table):
                v = table[key]
                s = text.get(id(v))
                if s is None:
                    s = text[id(v)] = str(v)
                rows.append([key[0], key[1], s])
        data["trunc"] = self.trunc
        return data

    @classmethod
    def from_json(cls, data: dict) -> "VVExpansion":
        """Read the holo/nonholo layout, then let validate() decide.

        The reader only reads: every field, the frame (_check_frame), a known
        rep, rational numbers, JSON-integer indices, no slot given twice; a
        shadow ("r") table is refused.  validate() alone decides the table
        rules.  A reader error raises "malformed expansion JSON: ..."
        """
        try:
            N, trunc = data["N"], data["trunc"]
            if data["rep"] not in ("rho", "dual"):
                raise TypeError(f"rep must be 'rho' or 'dual', got {data['rep']!r}")
            rep = 1 if data["rep"] == "rho" else -1
            weight = parse_fraction(data["k"])
            _check_frame(N, trunc)  # before the rows: gamma % 0 would raise
            holo = _read_table(2 * N, data["holo"])
            nonholo = _read_table(2 * N, data["nonholo"])
        except KeyError as exc:
            why = ('a shadow ("r") table is output only; expansions are read from '
                   'the holo/nonholo layout' if "r" in data else f"missing field {exc}")
            raise ValueError(f"malformed expansion JSON: {why}") from None
        except (TypeError, OverflowError, ValueError) as exc:
            raise ValueError(f"malformed expansion JSON: {exc}") from None
        f = cls(N, weight, rep, holo, nonholo, trunc)
        f.validate()
        return f


# ----- constructions ----------------------------------------------------


def theta_series(N: int, trunc: int) -> VVExpansion:
    """The weight 1/2 unary theta expansion at level N.

    The component gamma collects q^(m^2/4N) over integers m = gamma mod 2N,
    so the coefficient at (n, gamma) counts such m with m^2 = n.
    """
    _check_frame(N, trunc)
    counts = {}
    two_n = 2 * N
    for m in range(-isqrt(trunc), isqrt(trunc) + 1):
        key = (m * m, m % two_n)
        counts[key] = counts.get(key, 0) + 1
    holo = {key: to_fraction(c) for key, c in counts.items()}
    return VVExpansion(N, Fraction(1, 2), 1, holo, {}, trunc)


def apply_aut(f: VVExpansion, c: int) -> VVExpansion:
    """Relabel components through the Atkin-Lehner involution sigma_c.

    sigma_c is multiplication by one unit mod 2N (see atkin_lehner), so the
    cost is one step per stored entry, whatever the level.
    """
    two_n = 2 * f.N
    eps = atkin_lehner(f.N, c, 1)
    tables = [{(n, eps * g % two_n): v for (n, g), v in t.items()}
              for t in (f.holo, f.nonholo)]
    return f._with(*tables, f.trunc)


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


def decompose(targets: list, basis: list) -> list:
    """Exact coordinates of each target in the given weight 1/2 basis.

    Solves one equation per slot with |n| <= window (the least truncation of
    the targets and the basis) that a target or some basis element stores,
    in sorted (n, gamma) order; any other slot would be the equation 0 = 0.
    Every target is a right-hand side of one solve, which returns only
    coordinates that satisfy every equation exactly, so a successful return
    is a proof of membership up to truncation.  A failure names the first
    slot at which the equations become inconsistent for some target.  A slot
    repeating an earlier equation, such as (n, -gamma) after (n, gamma),
    costs nothing, as solve_exact skips exact repeats.
    """
    for f in targets:
        if f.weight != Fraction(1, 2) or f.rep != 1:
            raise DecompositionError("decomposition applies to weight 1/2 "
                                     "expansions for the representation itself")
        if f.nonholo:
            raise DecompositionError("expansion has a non-holomorphic part")
        if f.radical:
            raise DecompositionError("a radical shadow table is not a q-expansion")
    if not basis:
        raise DecompositionError("empty basis")
    forms = [*targets, *basis]
    if len({(x.N, x.weight, x.rep) for x in forms}) > 1:
        raise DecompositionError("basis element of mismatched type")
    window = min([x.trunc for x in forms])
    slots = sorted({k for x in forms for k in x.holo if abs(k[0]) <= window})
    zero = Fraction(0)
    rows = [[b.holo.get(k, zero) for b in basis] for k in slots]
    rhs = [[f.holo.get(k, zero) for f in targets] for k in slots]
    try:
        x, den = solve_exact(rows, rhs)
    except SingularSystem as exc:
        raise DecompositionError(f"theta basis is degenerate at level "
                                 f"{basis[0].N}: {exc}")
    except InconsistentSystem as exc:
        raise DecompositionError(
            f"expansion is not in the span of the theta basis "
            f"(first inconsistent slot {slots[exc.row]})"
        )
    return [[Fraction(row[j], den) for row in x] for j in range(len(targets))]


def formal_xi(f: VVExpansion) -> VVExpansion:
    """Repackage the negative-index table as a weight 2-k radical table.

    The entry at (m, gamma) is the nonholo coefficient at (-m, gamma); the
    irrational radial factor sqrt(m/4N) and the global constant of the
    differential pairing are left implicit, which is what keeps the table
    rational and level-independent.
    """
    r = {(-n, g): c for (n, g), c in f.nonholo.items()}
    return VVExpansion(f.N, 2 - f.weight, -f.rep, r, {}, f.trunc, radical=True)


# _DRAWN[r][j] = Fraction(r - 9, (1, 1, 2, 3, 4)[j]): randint(-9, 9) is
# r - 9 and choice((1, 1, 2, 3, 4)) the j-th entry for the draws r and j
_DRAWN = [[Fraction(r - 9, den) for den in (1, 1, 2, 3, 4)] for r in range(19)]


def random_supported(N: int, weight, rep: int, seed: int, trunc: int) -> VVExpansion:
    """Deterministic pseudo-random expansion obeying support and symmetry.

    Used by the verification suites: every supported slot with |n| <= trunc
    is filled with probability about one half with a small rational, and the
    partner slot at -gamma is set to eps times the same value.  A value is
    Fraction(num, den) with num = rng.randint(-9, 9) and den =
    rng.choice((1, 1, 2, 3, 4)), both drawn as Random._randbelow draws them:
    getrandbits(5) until below 19, then getrandbits(3) until below 5.  The
    values are read from a table built once at import.
    """
    _check_frame(N, trunc)
    eps = symmetry_sign(Fraction(weight), rep)
    rng = random.Random(seed)
    random_, getrandbits = rng.random, rng.getrandbits
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
                if random_() >= 0.5:
                    continue
                r = getrandbits(5)
                while r >= 19:
                    r = getrandbits(5)
                j = getrandbits(3)
                while j >= 5:
                    j = getrandbits(3)
                if r == 9:
                    continue
                table[(n, gamma)] = _DRAWN[r][j]
                if partner != gamma:
                    table[(n, partner)] = _DRAWN[9 + eps * (r - 9)][j]
    return VVExpansion(N, Fraction(weight), rep, holo, nonholo, trunc)
