"""Compare random_supported with the same tables drawn by randint and choice.

random_supported draws its values with Random.getrandbits, the way
Random._randbelow turns bits into rng.randint(-9, 9) and
rng.choice((1, 1, 2, 3, 4)).  That copies a standard-library algorithm, so
this script checks it on whichever interpreter runs it, without pytest:

    python tests/check_random_draws.py

It prints the interpreter version and the number of tables and mismatches,
and exits 1 if any table differs.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weilq.vvforms import random_supported, symmetry_sign  # noqa: E402

WEIGHTS = (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))


def reference(N, weight, rep, seed, trunc):
    """The holo and nonholo tables drawn with randint and choice."""
    eps = symmetry_sign(weight, rep)
    rng = random.Random(seed)
    holo, nonholo = {}, {}
    for gamma in range(N + 1):
        partner = -gamma % (2 * N)
        if partner == gamma and eps == -1:
            continue
        for table, lo, hi in ((holo, -trunc, trunc), (nonholo, -trunc, -1)):
            for n in range(lo, hi + 1):
                if (n - rep * gamma * gamma) % (4 * N) or rng.random() >= 0.5:
                    continue
                num, den = rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4))
                if num:
                    table[(n, gamma)] = Fraction(num, den)
                    if partner != gamma:
                        table[(n, partner)] = eps * Fraction(num, den)
    return holo, nonholo


def main() -> int:
    tables = mismatches = 0
    for N in range(1, 13):
        for weight in WEIGHTS:
            for rep in (1, -1):
                for seed in (0, 1, 8201):
                    f = random_supported(N, weight, rep, seed=seed, trunc=80)
                    tables += 1
                    mismatches += (f.holo, f.nonholo) != reference(N, weight, rep, seed, 80)
    print(f"python {sys.version.split()[0]}: {tables} tables, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
