"""Layer spans recorded from outside the package.

The tracer replaces weilq's public functions with thin wrappers, leaving
every file under src/ untouched.  A wrapped function opens a span (name,
start, end, parent, run id) kept in memory; self time (span time minus the
time its child spans cover) and call counts are summed as spans close, and
the span list is written once, when the pass ends.

A function is replaced at every binding of the same object across the
weilq.* modules and their classes, so copies made by ``from .x import f``
(verify, borcherds, cli) and the ``__rmul__ = __mul__`` alias are traced
too.  A target that no longer exists is reported as missing, not fatal, so
a later refactor of one layer does not stop the other layers' metrics.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


def supported_slots(N: int, rep: int, lo: int, hi: int) -> int:
    """Number of (n, gamma) with lo <= n <= hi on the level-N support lattice."""
    four_n = 4 * N
    total = 0
    for gamma in range(2 * N):
        r = (rep * gamma * gamma) % four_n
        total += (hi - r) // four_n - (lo - 1 - r) // four_n
    return total


# ----- counters computed from a wrapped call's arguments and result ----


def _mul(tr, args, out):
    right = getattr(args[1], "terms", None)
    if right is not None:
        pairs = len(args[0].terms) * len(right)
        if pairs > tr.counts["fracq.mul.pairs_max"]:
            tr.counts["fracq.mul.pairs_max"] = pairs
    tr.counts["fracq.mul.terms_out"] += len(getattr(out, "terms", ()))


def _factors(tr, args, out):
    tr.counts["borcherds.borcherds_product.factors"] += sum(
        1 for e in out.exponents.values() if e)


def _entries(obj) -> int:
    return sum(len(getattr(obj, part, ())) for part in ("holo", "nonholo", "r"))


def _random_entries(tr, args, out):
    tr.counts["vvforms.random_supported.entries"] += _entries(out)


def _json_out(tr, args, out):
    tr.counts["vvforms.json_entries"] += sum(
        len(out.get(part, ())) for part in ("holo", "nonholo", "r"))


def _json_in(tr, args, out):
    tr.counts["vvforms.json_entries"] += _entries(out)


def _gather(prefix):
    """entries_out and slots_window of one T_p / V_l gather.

    Both operators visit every supported slot of the output window: the
    holomorphic table over [-w, w] and the negative-index table over
    [-w, -1], at the output level and representation.
    """
    def count(tr, args, out):
        if out is args[0]:  # V_1 returns its input; no gather ran
            return
        w = out.trunc
        tr.counts[prefix + ".entries_out"] += len(out.holo) + len(out.nonholo)
        tr.counts[prefix + ".slots_window"] += (
            supported_slots(out.N, out.rep, -w, w)
            + supported_slots(out.N, out.rep, -w, -1))
    return count


def _rows(tr, args, out):
    tr.counts["linalg.solve_exact.rows"] += len(args[0])


# (span name, module, attribute path, counter or None)
SPANNED = (
    ("fracq.mul", "weilq.fracq", "FracSeries.__mul__", _mul),
    ("fracq.eta_series", "weilq.fracq", "eta_series", None),
    ("fracq.generalized_pow", "weilq.fracq", "generalized_pow", None),
    ("borcherds.borcherds_product", "weilq.borcherds", "borcherds_product", _factors),
    ("borcherds.eta_product", "weilq.borcherds", "eta_product", None),
    ("borcherds.verify_eta_identity", "weilq.borcherds", "verify_eta_identity", None),
    ("borcherds.weyl_vector", "weilq.borcherds", "weyl_vector", None),
    ("vvforms.decompose", "weilq.vvforms", "decompose", None),
    ("vvforms.basis_m_half", "weilq.vvforms", "basis_m_half", None),
    ("vvforms.theta_series", "weilq.vvforms", "theta_series", None),
    ("vvforms.random_supported", "weilq.vvforms", "random_supported", _random_entries),
    ("vvforms.agrees_with", "weilq.vvforms", "VVExpansion.agrees_with", None),
    ("vvforms.agrees_with", "weilq.vvforms", "XiImage.agrees_with", None),
    ("vvforms.apply_aut", "weilq.vvforms", "apply_aut", None),
    ("vvforms.formal_xi", "weilq.vvforms", "formal_xi", None),
    ("vvforms.to_json", "weilq.vvforms", "VVExpansion.to_json", _json_out),
    ("vvforms.to_json", "weilq.vvforms", "XiImage.to_json", _json_out),
    ("vvforms.from_json", "weilq.vvforms", "VVExpansion.from_json", _json_in),
    ("vvforms.from_json", "weilq.vvforms", "XiImage.from_json", _json_in),
    ("heckeops.level_v", "weilq.heckeops", "level_v", _gather("heckeops.level_v")),
    ("heckeops.hecke_tp", "weilq.heckeops", "hecke_tp", _gather("heckeops.hecke_tp")),
    ("heckeops.level_u", "weilq.heckeops", "level_u", None),
    ("heckeops.xi_tp", "weilq.heckeops", "xi_tp", None),
    ("heckeops.xi_u", "weilq.heckeops", "xi_u", None),
    ("heckeops.xi_v", "weilq.heckeops", "xi_v", None),
    ("divisors.solve_cusp_matching", "weilq.divisors", "solve_cusp_matching", None),
    ("divisors.eta_order", "weilq.divisors", "eta_order", None),
    ("divisors.eta_divisor", "weilq.divisors", "eta_divisor", None),
    ("divisors.cusp_classes", "weilq.divisors", "cusp_classes", None),
    ("divisors.fricke_image", "weilq.divisors", "fricke_image", None),
    ("divisors.heegner_degree", "weilq.divisors", "heegner_degree", None),
    ("linalg.solve_exact", "weilq._linalg", "solve_exact", _rows),
)

# Called millions of times per pass: counted, never spanned.
COUNTED = (
    ("discform.divisors", "weilq.discform", "divisors"),
)


def _resolve(module: str, path: str):
    obj = sys.modules.get(module)
    for part in path.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part)
    return obj


def _namespaces():
    """Every weilq module and every class defined in one."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "weilq" or name.startswith("weilq.")):
            continue
        yield mod
        for val in list(vars(mod).values()):
            if (isinstance(val, type) and val.__module__.startswith("weilq")
                    and id(val) not in seen):
                seen.add(id(val))
                yield val


def replace_everywhere(orig, new) -> None:
    """Rebind every weilq name that refers to ``orig``."""
    for ns in _namespaces():
        for attr, val in list(vars(ns).items()):
            if val is orig:
                setattr(ns, attr, new)


class Tracer:
    """In-memory spans of one pass, with per-name self time and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []      # [name, start_ns, end_ns, parent index or -1]
        self._stack = []     # [span index, ns covered by child spans]
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.originals = {}
        self.missing = []

    def _open(self, name):
        self._stack.append([len(self.spans), 0])
        self.spans.append([name, 0, 0, self._stack[-2][0] if len(self._stack) > 1 else -1])

    def _close(self, t0, t1):
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[1], span[2] = t0, t1
        dur = t1 - t0
        self.calls[span[0]] += 1
        self.self_ns[span[0]] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name):
        """Span around a call the benchmark itself makes (a suite or command)."""
        self._open(name)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close(t0, perf_counter_ns())

    def wrap(self, name, fn, count=None):
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened(name)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(self, args, out)
                return out
            finally:
                closed(t0, perf_counter_ns())
        return traced

    def counting(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap every target in SPANNED and COUNTED."""
        for name, module, path, count in SPANNED:
            orig = _resolve(module, path)
            if orig is None:
                self.missing.append(f"{module}.{path}")
                continue
            self.originals.setdefault(name, orig)
            if isinstance(orig, classmethod):
                new = classmethod(self.wrap(name, orig.__func__, count))
            else:
                new = self.wrap(name, orig, count)
            replace_everywhere(orig, new)
        for name, module, path in COUNTED:
            orig = _resolve(module, path)
            if orig is None:
                self.missing.append(f"{module}.{path}")
                continue
            replace_everywhere(orig, self.counting(name, orig))

    def finish(self) -> dict:
        """Counters read at the end of a pass, plus the aggregated spans."""
        cached = self.originals.get("divisors.heegner_degree")
        if cached is not None and hasattr(cached, "cache_info"):
            self.counts["divisors.heegner_degree.cache_misses"] = cached.cache_info().misses
        covered = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return {
            "calls": dict(self.calls),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "counts": dict(self.counts),
            "covered_s": covered / 1e9,
            "missing": self.missing,
        }

    def write(self, path) -> None:
        """Write every span once, one JSON row each, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["run_id", "name", "start_ns",
                                            "end_ns", "parent"]}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([self.run_id, name, start, end, parent]) + "\n")
