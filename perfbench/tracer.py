"""In-process tracer for the katoforms benchmark.

The tracer wraps public functions of the ``katoforms`` modules from the
outside: each wrapped function is rebound under every name that refers to
it in any loaded ``katoforms`` module (including the package namespace), so
calls between modules go through the wrapper and nothing in the package is
edited.  Every call made while the tracer is active is aggregated online:

* ``calls``  - number of calls;
* ``self``   - duration minus the time covered by wrapped children;
* ``incl``   - duration of the outermost call only, so recursion (``poly_gcd``)
  is not counted twice;
* ``edges``  - calls and time per (parent span, child span) pair.

Spans (id, name, start, end, parent id, job id) are kept in memory for the
layers above the field arithmetic; kernels and field functions run ~10^5
times per run and are only aggregated.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name); the span name is "<layer>.<function>"
KERNELS = [
    ("katoforms.kernels", "poly_mul", "kernels.poly_mul"),
    ("katoforms.kernels", "poly_add", "kernels.poly_add"),
    ("katoforms.kernels", "gauss_solve", "kernels.gauss_solve"),
]
FIELDS = [
    ("katoforms.fields", "poly_gcd", "fields.poly_gcd"),
    ("katoforms.fields", "poly_exact_div", "fields.poly_exact_div"),
    ("katoforms.fields", "ratfunc_normalize", "fields.ratfunc_normalize"),
    ("katoforms.fields", "frobenius_decompose", "fields.frobenius_decompose"),
]
UPPER = [
    ("katoforms.forms", "d", "forms.d"),
    ("katoforms.forms", "sp", "forms.sp"),
    ("katoforms.forms", "wp", "forms.wp"),
    ("katoforms.forms", "cartier_raw", "forms.cartier_raw"),
    ("katoforms.forms", "integrate", "forms.integrate"),
    ("katoforms.certificates", "congruence_witness", "certificates.congruence_witness"),
    ("katoforms.certificates", "verify_certificate", "certificates.verify_certificate"),
    ("katoforms.certificates", "exponent_reduction", "certificates.exponent_reduction"),
    ("katoforms.oracle", "solve_wp_plus_d", "oracle.solve_wp_plus_d"),
    ("katoforms.generators", "kernel_generators", "generators.kernel_generators"),
    ("katoforms.generators", "vanish_certificate", "generators.vanish_certificate"),
    ("katoforms.extensions", "restrict", "extensions.restrict"),
    ("katoforms.extensions", "extension_from_json", "extensions.extension_from_json"),
    ("katoforms.witt", "hyperbolicity_certificate", "witt.hyperbolicity_certificate"),
    ("katoforms.witt", "quad_kernel_generators", "witt.quad_kernel_generators"),
    ("katoforms.witt", "arf", "witt.arf"),
    ("katoforms.cli", "run", "cli.run"),
]
CANDIDATES = "oracle.candidates"
SOLVE = "oracle.solve_wp_plus_d"
WITNESS = "certificates.congruence_witness"
MAX_SPANS = 400_000


class Agg:
    __slots__ = ("calls", "self_ns", "incl_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.incl_ns = 0


class Tracer:
    """Aggregates and records spans of wrapped katoforms functions."""

    def __init__(self) -> None:
        self.active = False
        self.job = -1
        self.stack: list[list] = []  # frames: [name, child_ns, span_id]
        self.depth: dict[str, int] = defaultdict(int)
        self.agg: dict[str, Agg] = {}
        self.edges: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        self.extra: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in the loaded katoforms modules."""
        hooks = {
            "kernels.gauss_solve": self._on_gauss,
            "fields.poly_gcd": self._on_gcd,
            "fields.ratfunc_normalize": self._on_normalize,
            WITNESS: self._on_found,
            SOLVE: self._on_found,
        }
        targets = [(m, a, n, False) for m, a, n in KERNELS + FIELDS]
        targets += [(m, a, n, True) for m, a, n in UPPER]
        sexpr = sys.modules["katoforms.sexpr"]
        for attr in sorted(vars(sexpr)):
            if attr.startswith(("parse_", "print_")):
                kind = attr.split("_", 1)[0]
                targets.append(("katoforms.sexpr", attr, f"sexpr.{kind}", True))
        for module, attr, name, keep in targets:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, keep, hooks.get(name))
            self._rebind(original, wrapper)
        bounds_cls = sys.modules["katoforms.oracle"].SearchBounds
        original = bounds_cls.candidate_functions
        self._restore.append((bounds_cls, "candidate_functions", original))
        bounds_cls.candidate_functions = self._wrap(CANDIDATES, original, True, None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "katoforms" and not mod_name.startswith("katoforms."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, name, fn, keep_spans, hook):
        self.agg[name] = agg = Agg()
        stack = self.stack
        depth = self.depth
        edges = self.edges
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = len(spans) if keep_spans else -1
            frame = [name, 0, span_id]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                agg.calls += 1
                agg.self_ns += dur - frame[1]
                if not depth[name]:
                    agg.incl_ns += dur
                parent_name = None
                parent_span = -1
                if parent is not None:
                    parent[1] += dur
                    parent_name = parent[0]
                    parent_span = parent[2]
                edge = edges[(parent_name, name)]
                edge[0] += 1
                edge[1] += dur
                if keep_spans:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, name, start, end, parent_span, self.job))
                    else:
                        self.dropped_spans += 1
                if hook is not None:
                    hook(name, args, result, parent_name)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the call boundary --------------------------------

    def _on_gauss(self, name, args, result, parent) -> None:
        rows = args[0]
        ncols = len(rows[0]) if rows else 0
        self.extra["gauss_cells"] += len(rows) * ncols
        if parent == SOLVE:
            self.extra["system_rows"] = max(self.extra["system_rows"], len(rows))
            self.extra["system_cols"] = max(self.extra["system_cols"], ncols)

    def _on_gcd(self, name, args, result, parent) -> None:
        self.extra["gcd_operand_terms"] += len(args[0].terms) + len(args[1].terms)

    def _on_normalize(self, name, args, result, parent) -> None:
        # a nontrivial gcd lowers the denominator's degree
        if result is not None and result.den.total_degree() < args[1].total_degree():
            self.extra["normalize_reduced"] += 1

    def _on_found(self, name, args, result, parent) -> None:
        if result is not None:
            self.extra[name + ".found"] += 1

    # -- results ---------------------------------------------------------------

    def edge_ns(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), (0, 0))[1]

    def edge_calls(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), (0, 0))[0]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def ms(ns: int) -> float:
            return ns / 1e6

        def frac(part: int, whole: int) -> float | None:
            return part / whole if whole else None

        a = self.agg
        for fn in ("poly_mul", "poly_add", "gauss_solve"):
            agg = a[f"kernels.{fn}"]
            out[f"kernels.{fn}.calls"] = (agg.calls, "count")
            out[f"kernels.{fn}.ms"] = (ms(agg.self_ns), "ms")
        out["kernels.gauss_solve.cells"] = (self.extra["gauss_cells"], "count")

        gcd = a["fields.poly_gcd"]
        out["fields.poly_gcd.calls"] = (gcd.calls, "count")
        out["fields.poly_gcd.ms"] = (ms(gcd.self_ns), "ms")
        out["fields.poly_gcd.incl_ms"] = (ms(gcd.incl_ns), "ms")
        out["fields.poly_gcd.operand_terms"] = (self.extra["gcd_operand_terms"], "count")
        div = a["fields.poly_exact_div"]
        out["fields.poly_exact_div.calls"] = (div.calls, "count")
        out["fields.poly_exact_div.ms"] = (ms(div.self_ns), "ms")
        norm = a["fields.ratfunc_normalize"]
        out["fields.ratfunc_normalize.calls"] = (norm.calls, "count")
        out["fields.ratfunc_normalize.incl_ms"] = (ms(norm.incl_ns), "ms")
        out["fields.ratfunc_normalize.reduced_frac"] = (
            frac(self.extra["normalize_reduced"], norm.calls), "frac")
        frob = a["fields.frobenius_decompose"]
        out["fields.frobenius_decompose.calls"] = (frob.calls, "count")
        out["fields.frobenius_decompose.incl_ms"] = (ms(frob.incl_ns), "ms")

        for fn in ("d", "sp", "wp", "cartier_raw", "integrate"):
            agg = a[f"forms.{fn}"]
            out[f"forms.{fn}.calls"] = (agg.calls, "count")
            out[f"forms.{fn}.incl_ms"] = (ms(agg.incl_ns), "ms")

        for fn in ("congruence_witness", "verify_certificate", "exponent_reduction"):
            agg = a[f"certificates.{fn}"]
            out[f"certificates.{fn}.calls"] = (agg.calls, "count")
            out[f"certificates.{fn}.incl_ms"] = (ms(agg.incl_ns), "ms")
        witness = a[WITNESS]
        out["certificates.congruence_witness.found_frac"] = (
            frac(self.extra[WITNESS + ".found"], witness.calls), "frac")
        out["certificates.congruence_witness.cartier_steps"] = (
            self.edge_calls(WITNESS, "forms.cartier_raw"), "count")

        solve = a[SOLVE]
        out["oracle.solve_wp_plus_d.calls"] = (solve.calls, "count")
        out["oracle.solve_wp_plus_d.incl_ms"] = (ms(solve.incl_ns), "ms")
        out["oracle.solve_wp_plus_d.found_frac"] = (
            frac(self.extra[SOLVE + ".found"], solve.calls), "frac")
        candidates = self.edge_ns(SOLVE, CANDIDATES)
        columns = self.edge_ns(SOLVE, "forms.wp") + self.edge_ns(SOLVE, "forms.d")
        eliminate = self.edge_ns(SOLVE, "kernels.gauss_solve")
        check = self.edge_ns(SOLVE, "certificates.verify_certificate")
        out["oracle.candidates_ms"] = (ms(candidates), "ms")
        out["oracle.columns_ms"] = (ms(columns), "ms")
        out["oracle.eliminate_ms"] = (ms(eliminate), "ms")
        out["oracle.vectorize_ms"] = (
            ms(solve.incl_ns - candidates - columns - eliminate - check), "ms")
        out["oracle.system_rows"] = (self.extra["system_rows"], "count")
        out["oracle.system_cols"] = (self.extra["system_cols"], "count")

        for name in ("generators.kernel_generators", "generators.vanish_certificate",
                     "extensions.restrict", "extensions.extension_from_json",
                     "witt.hyperbolicity_certificate", "witt.quad_kernel_generators",
                     "witt.arf"):
            out[f"{name}.incl_ms"] = (ms(a[name].incl_ns), "ms")
        out["sexpr.parse_ms"] = (ms(a["sexpr.parse"].self_ns), "ms")
        out["sexpr.print_ms"] = (ms(a["sexpr.print"].self_ns), "ms")
        out["cli.run.ms"] = (ms(a["cli.run"].self_ns), "ms")
        return out

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per layer (prefix of the span name)."""
        out: dict[str, float] = defaultdict(float)
        for name, agg in self.agg.items():
            out[name.split(".", 1)[0]] += agg.self_ns / 1e6
        return dict(out)

    def incl_ms(self) -> dict[str, float]:
        return {name: agg.incl_ns / 1e6 for name, agg in self.agg.items() if agg.calls}
