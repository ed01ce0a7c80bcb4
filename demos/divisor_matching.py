"""Walkthrough: cusp combinatorics, the eta-product matching system, and
weighted CM-point degrees.

Run with ``python3 demos/divisor_matching.py``.
"""

from fractions import Fraction

from weilq import (CuspDivisor, cusp_classes, cusp_space_dimension,
                   divisor_classes, eta_order, fricke_image, heegner_degree,
                   index_gamma0, solve_cusp_matching)


def banner(text):
    print()
    print(f"== {text} ==")


N = 36

banner(f"cusp classes of level N = {N}")
print(" c   orbit  width  conductor")
for cl in cusp_classes(N):
    print(f"{cl.c:>2}   {cl.orbit_size:>4}  {cl.width:>5}  {cl.conductor:>9}")
total = sum(cl.orbit_size * cl.width for cl in cusp_classes(N))
print(f"sum of orbit * width = {total} = index of the level-{N} group "
      f"({index_gamma0(N)})")
assert total == index_gamma0(N)

banner("cusp orders of the eta products")
classes = divisor_classes(N)
print(f"Fricke-symmetric divisor classes d ~ N/d: {classes}")
print("order at each cusp class (rows d, columns c):")
cs = [cl.c for cl in cusp_classes(N)]
print("      " + "  ".join(f"{c:>6}" for c in cs))
for d in classes:
    row = "  ".join(f"{str(eta_order(N, d, c)):>6}" for c in cs)
    print(f"d={d:>2}  {row}")
for d in classes:
    deg = sum((cl.orbit_size * eta_order(N, d, cl.c)
               for cl in cusp_classes(N)), Fraction(0))
    assert deg == Fraction(index_gamma0(N), 12)
print(f"every row has total degree index/12 = {Fraction(index_gamma0(N), 12)}")

banner("solving the matching system")
dim = cusp_space_dimension(N)
print(f"matching space dimension: {dim} (= number of divisor classes)")
target = CuspDivisor(N, {c: Fraction(1, 3) * eta_order(N, 2, c)
                         + eta_order(N, 6, c) for c in cs})
assert fricke_image(target).orders == target.orders
x = solve_cusp_matching(N, target)
print("target: (1/3) * div(class 2) + div(class 6)")
print("solved coordinates:", [str(v) for v in x])
assert x == [Fraction(0), Fraction(1, 3), Fraction(0), Fraction(0),
             Fraction(1)][:dim]

banner("weighted CM-point degrees")
print("level 1 anchors (Hurwitz class numbers):")
hurwitz = {-3: Fraction(1, 3), -4: Fraction(1, 2), -7: 1, -8: 1, -11: 1,
           -12: Fraction(4, 3)}
for disc, h in hurwitz.items():
    deg = heegner_degree(1, disc, disc % 2)
    print(f"  degree(n = {disc}) = {deg}")
    assert deg == h
print("level 5 example: n = -4 splits over the classes gamma = 4, 6")
split = [heegner_degree(5, -4, g) for g in (4, 6)]
print("  degree:", split[0], "per class")
# (1 + (-4/5)) * H(4) = 2 * 1/2 in total, shared by the two roots
assert split == [Fraction(1, 2)] * 2
