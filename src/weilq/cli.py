"""Command-line front end: tables, operator application, verification suites.

Every subcommand prints compact one-line JSON (CSV for the two flat tables
on request) and returns exit code 0 on success, 1 on a failed verification
with a first-mismatch witness, and 2 on argument errors and malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .borcherds import borcherds_product, eta_product
from .discform import divisor_classes, divisors
from .divisors import (CuspDivisor, cusp_classes, cusp_space_dimension,
                       eta_order, heegner_degree, solve_cusp_matching)
from .fracq import parse_fraction
from .heckeops import hecke_tp, level_u, level_v
from .verify import SUITES, run_suite
from .vvforms import (VVExpansion, apply_aut, basis_m_half, formal_xi,
                      theta_series)


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("input JSON must be an object")
    return data


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    # every payload is a freshly built tree, so it has no cycle to detect;
    # the check would put and drop an id() marker for every row
    return json.dumps(obj, check_circular=False) + "\n"


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def _cmd_theta(args) -> str:
    return _dump(theta_series(args.N, args.prec).to_json())


def _cmd_basis(args) -> str:
    basis = basis_m_half(args.N, args.prec)
    return _dump({"N": args.N, "classes": divisor_classes(args.N),
                  "elements": [f.to_json() for f in basis]})


def _cmd_apply(args) -> str:
    f = VVExpansion.from_json(_read_json(args.infile))
    # built per call, so that a module name rebound after import (a wrapper
    # or a test double) is the function applied
    flag, op = {"sigma": ("c", apply_aut), "tp": ("p", hecke_tp),
                "ud": ("d", level_u), "vl": ("l", level_v)}[args.op]
    value = getattr(args, flag)
    if value is None:
        raise ValueError(f"--op {args.op} requires --{flag}")
    return _dump(op(f, value).to_json())


def _cmd_xi(args) -> str:
    f = VVExpansion.from_json(_read_json(args.infile))
    return _dump(formal_xi(f).to_json())


def _cmd_product(args) -> str:
    f = VVExpansion.from_json(_read_json(args.infile))
    weyl = parse_fraction(args.weyl) if args.weyl is not None else None
    result = borcherds_product(f, weyl, args.prec)
    if args.format == "csv":
        rows = sorted(result.exponents.items())
        return _csv([(n, t) for n, t in rows], header=("n", "exponent"))
    return _dump(result.to_json())


def _cmd_eta(args) -> str:
    series = eta_product(args.N, args.d, Fraction(args.prec))
    return _dump(series.to_json())


def _cmd_cusps(args) -> str:
    classes = cusp_classes(args.N)
    return _dump({"N": args.N,
                  "count": sum(cl.orbit_size for cl in classes),
                  "classes": [cl.to_json() for cl in classes]})


def _cmd_eta_orders(args) -> str:
    rows = []
    for d in divisors(args.N):
        for c in divisors(args.N):
            rows.append((d, c, eta_order(args.N, d, c)))
    if args.format == "csv":
        return _csv(rows, header=("d", "c", "order"))
    return _dump({"N": args.N,
                  "orders": [[d, c, str(v)] for d, c, v in rows]})


def _cmd_dimension(args) -> str:
    return _dump(cusp_space_dimension(args.N))


def _cmd_solve(args) -> str:
    target = CuspDivisor.from_json(_read_json(args.infile))
    if target.N != args.N:
        raise ValueError("divisor level does not match --N")
    x = solve_cusp_matching(args.N, target)
    return _dump({"N": args.N, "classes": divisor_classes(args.N),
                  "x": [str(v) for v in x]})


def _cmd_heegner(args) -> str:
    degree = heegner_degree(args.N, args.n, args.gamma)
    return _dump({"N": args.N, "n": args.n, "gamma": args.gamma,
                  "degree": str(degree)})


def _cmd_verify(args) -> tuple[str, int]:
    results = run_suite(args.suite, n_max=args.N_max, prec=args.prec,
                        seed=args.seed)
    ok = all(r.ok for r in results)
    payload = {"ok": ok, "results": [r.to_json() for r in results]}
    return _dump(payload), 0 if ok else 1


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="weilq",
        description="Exact q-expansions, operator calculus, Borcherds-type "
                    "eta products, and divisor matching for half-integral "
                    "weight vector-valued forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="write output to this file")
        return p

    p = add("theta", _cmd_theta, help="weight 1/2 unary theta expansion")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--prec", type=int, default=100)

    p = add("basis", _cmd_basis, help="basis of the weight 1/2 space")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--prec", type=int, default=100)

    p = add("apply", _cmd_apply, help="apply an operator to an expansion")
    p.add_argument("--op", choices=("sigma", "tp", "ud", "vl"), required=True)
    p.add_argument("--in", dest="infile", default="-",
                   help="expansion JSON file, or - for stdin")
    p.add_argument("--c", type=int, default=None,
                   help="exact divisor for --op sigma")
    p.add_argument("--p", type=int, default=None, help="prime for --op tp")
    p.add_argument("--d", type=int, default=None, help="index for --op ud")
    p.add_argument("--l", type=int, default=None, help="index for --op vl")

    p = add("xi", _cmd_xi, help="formal shadow table of an expansion")
    p.add_argument("--in", dest="infile", default="-")

    p = add("product", _cmd_product, help="Borcherds product expansion")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--weyl", default=None,
                   help="leading exponent as a fraction; computed when omitted")
    p.add_argument("--prec", type=int, default=50,
                   help="coefficients beyond the leading exponent")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("eta", _cmd_eta, help="product of two eta expansions")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--prec", type=int, default=100)

    p = add("cusps", _cmd_cusps, help="cusp classes of the level")
    p.add_argument("--N", type=int, required=True)

    p = add("eta-orders", _cmd_eta_orders, help="cusp orders of eta products")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("dimension", _cmd_dimension,
            help="dimension of the matching space")
    p.add_argument("--N", type=int, required=True)

    p = add("solve", _cmd_solve, help="match a cusp divisor by eta products")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--in", dest="infile", default="-")

    p = add("heegner", _cmd_heegner, help="weighted CM-point degrees")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)

    p = add("verify", _cmd_verify, help="run exact verification suites")
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--N-max", dest="N_max", type=int, default=None)
    p.add_argument("--prec", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.fn(args)
        text, code = result if isinstance(result, tuple) else (result, 0)
        _emit(text, args.out)  # an unwritable --out is an OSError: exit 2
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        sys.stderr.write(_dump({"error": str(exc)}))
        return 2
    except MemoryError:  # a window too long to allocate is bad input too
        sys.stderr.write(_dump({"error": "out of memory"}))
        return 2
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
