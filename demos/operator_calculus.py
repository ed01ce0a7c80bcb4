"""Walkthrough: Hecke, index-raising, and index-spreading operators, and how
the shadow table moves along with them.

Run with ``python3 demos/operator_calculus.py``.
"""

from fractions import Fraction

from weilq import (VVExpansion, apply_aut, formal_xi, hecke_tp, level_u,
                   level_v, random_supported, theta_series)


def banner(text):
    print()
    print(f"== {text} ==")


banner("theta is a Hecke eigenform")
theta = theta_series(1, 3000)
for p in (3, 5, 7):
    image = hecke_tp(theta, p)
    eigen = theta.scaled(1 + Fraction(1, p))
    ok, _ = image.agrees_with(eigen)
    print(f"theta | T_{p} == (1 + 1/{p}) theta through n <= {image.trunc}: "
          f"{ok}")
    assert ok

banner("index raising U_d pulls coefficients up the rescaled lattice")
t6 = theta_series(6, 80)
u2 = level_u(t6, 2)
print(f"level {t6.N} -> level {u2.N}; (U_2 f)(4n, 2 gamma) = f(n, gamma)")
for n, g in sorted(t6.holo):
    assert u2.get(4 * n, (2 * g) % 48) == t6.get(n, g)
for x in range(1, 18, 2):
    assert u2.get(x * x, x % 48) == 0
print(f"checked on the whole support of theta_6 (n <= {t6.trunc}); slots "
      "with odd gamma all vanish: True")

banner("index spreading V_l sums over divisors")
v2 = level_v(theta_series(1, 400), 2)
doubled = theta_series(2, 400).scaled(2)
ok, _ = v2.agrees_with(doubled)
print(f"theta_1 | V_2 == 2 theta_2 through n <= {v2.trunc}: {ok}")
print("constant slot of theta_1 | V_4:",
      level_v(theta_series(1, 400), 4).get(0, 0), " (= number of divisors)")
assert ok

banner("the operators commute away from the level")
rng_form = random_supported(7, Fraction(3, 2), 1, seed=11, trunc=400)
p, d, ell = 3, 2, 5
left = level_u(level_v(rng_form, ell), d)
right = level_v(level_u(rng_form, d), ell)
ok, _ = left.agrees_with(right)
print(f"(f | V_{ell}) | U_{d} == (f | U_{d}) | V_{ell}: {ok}")
assert ok
left = hecke_tp(level_u(rng_form, d), p)
right = level_u(hecke_tp(rng_form, p), d)
ok, _ = left.agrees_with(right)
print(f"(f | U_{d}) | T_{p} == (f | T_{p}) | U_{d}: {ok}")
assert ok

banner("the shadow table transports covariantly")
harmonic = VVExpansion(5, Fraction(1, 2), 1,
                       {(0, 0): Fraction(2)},
                       {(-4, 1): Fraction(3), (-16, 2): Fraction(-1)}, 400)
shadow = formal_xi(harmonic)
print("input nonholomorphic part:", sorted(harmonic.nonholo))
print("shadow support (m, gamma):", sorted(shadow.holo))

pairs = [
    ("sigma_5", lambda f: apply_aut(f, 5), 1),
    ("U_2", lambda f: level_u(f, 2), 1),
    ("V_3", lambda f: level_v(f, 3), 1),
    ("T_3", lambda f: hecke_tp(f, 3), Fraction(1, 3)),
]
for label, op, scale in pairs:
    lhs = formal_xi(op(harmonic))
    rhs = op(shadow).scaled(scale)
    ok, _ = lhs.agrees_with(rhs)
    extra = "" if scale == 1 else f"  (relative factor {1 / scale})"
    print(f"xi(f | {label}) == xi(f) | {label}{extra}: {ok}")
    assert ok

print()
print("the same four operators act on the shadow table, exactly.")
