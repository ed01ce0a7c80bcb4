"""Walkthrough: from a weight 1/2 theta expansion to an eta-product identity.

Every step is exact rational arithmetic; nothing here is floating point.
Run with ``python3 demos/eta_products.py``.
"""

from weilq import (basis_m_half, borcherds_product, divisor_classes,
                   eta_product, eta_series, theta_series, weyl_vector)


def banner(text):
    print()
    print(f"== {text} ==")


def head(series, count):
    return [(str(e), str(c)) for e, c in list(series.items())[:count]]


N = 6
PREC = 60

banner(f"theta expansion at level N = {N}")
theta = theta_series(N, PREC * PREC)
print(f"weight {theta.weight}, rep sign {theta.rep}, trunc {theta.trunc}")
support = [(n, g) for n, g in sorted(theta.holo) if n <= 30]
print("support starts (n, gamma):", support)

banner("multiplicative lift of theta")
weyl = weyl_vector(theta)
print(f"leading exponent (Weyl vector): {weyl}")
result = borcherds_product(theta, weyl, PREC)
print(f"lift weight: {result.weight}")
print("first factor exponents t(n):",
      {n: int(result.exponents[n]) for n in range(1, 13)})

banner("the lift IS an eta product")
bound = weyl + PREC
target = eta_product(N, 1, bound)
print("eta(z) * eta(6z) head:", head(target, 6))
print("lift head:           ", head(result.expansion, 6))
assert result.expansion.truncate(bound) == target.truncate(bound)
print(f"exact equality through q^{bound}: OK")

banner("raw eta building block")
eta = eta_series(1, 30)
print("eta(z) =", head(eta, 6), " (pentagonal-number support, lattice 1/24)")

banner(f"whole basis at level N = {N}")
classes = divisor_classes(N)
for f, d in zip(basis_m_half(N, PREC * PREC), classes):
    lift = borcherds_product(f, prec=PREC)
    bound = lift.weyl + PREC
    other = eta_product(N, d, bound)
    same = lift.expansion.truncate(bound) == other.truncate(bound)
    print(f"class d = {d}: lift of weight {lift.weight}, leading exponent "
          f"{lift.weyl}  ->  eta pair (d, N/d) = ({d}, {N // d}): "
          f"{'matches' if same else 'DIFFERS'}")
    assert same

print()
print("every basis element lifts to its paired eta product, exactly.")
