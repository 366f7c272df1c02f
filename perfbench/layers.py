"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and
replaces every reference to them inside the ``oplax`` package: module
attributes (including names imported into other modules, such as
``suites.gerstenhaber`` or ``cli.dynamical_deformation``), dict values
(``suites.ALL_SUITES``) and class attributes (``CoeffPoly.__rmul__`` is
the same function as ``__mul__``).  ``uninstall`` restores the originals,
so passes timed without tracing run the program's own code.

Each wrapper counts calls and accumulates self time: its inclusive time
minus the inclusive time of wrapped calls made inside it.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "operad": ("partial_compose", "total_compose", "gerstenhaber"),
    "oscillator": ("trajectory", "poisson_bracket"),
    "lax": ("build_mu", "solve_C", "verify_operadic_lax",
            "verify_matrix_lax"),
    "bianchi": ("dynamical_deformation", "label_params",
                "deformation_closed_form", "classical_jacobiator"),
    "ncalg": ("CoeffPoly.__mul__", "CoeffPoly.__add__", "NCPoly.__mul__",
              "CommutationTable.normal_word"),
    "qjacobi": ("verify_theorem_q", "q_jacobiator", "derivative_algebra",
                "corollary_HE", "expand_energy_symbol"),
    "suites": ("operad_suite", "lax_suite", "bianchi_suite",
               "quantum_suite"),
    "report": ("SuiteReport.render_json",),
    "cli": ("cmd_deform", "cmd_trajectory", "cmd_jacobi"),
}

# verify_theorem_q is reported per configuration
THEOREM_CONFIGS = tuple((btype, conv, alphabet)
                        for btype in ("VIIa", "IIIa1", "VIa")
                        for conv in ("left", "right")
                        for alphabet in ("PQ", "qpPQ"))

EXTRA_METRICS = (("ncalg.normal_word.hit_ratio", "ratio", "higher"),
                 ("ncalg.NCPoly.max_terms", "count", "lower"),
                 ("trace.overhead_s", "s", "lower"))


def span_names() -> list[str]:
    names = []
    for module, funcs in LAYERS.items():
        for func in funcs:
            if func == "verify_theorem_q":
                names += [f"qjacobi.verify_theorem_q.{b}.{c}.{a}"
                          for b, c, a in THEOREM_CONFIGS]
            else:
                names.append(f"{module}.{func}")
    return names


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in span_names():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    return specs + list(EXTRA_METRICS)


def _theorem_span(args, kwargs):
    btype = args[0] if args else kwargs["btype"]
    conv = args[1] if len(args) > 1 else kwargs.get("conv", "left")
    alphabet = args[2] if len(args) > 2 else kwargs.get("alphabet", "PQ")
    return f"qjacobi.verify_theorem_q.{btype.value}.{conv}.{alphabet}"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.max_terms = 0
        self._stack = []
        self._patches = []
        self._tables = {}

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.max_terms = 0
        self._tables.clear()

    def cache_growth(self) -> int:
        """Entries added to the normal_word caches seen since reset."""
        return sum(len(table._cache) - start
                   for table, start in self._tables.values())

    def _wrap(self, fn, name, name_of=None, before=None, after=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            span = name if name_of is None else name_of(args, kwargs)
            if before is not None:
                before(args)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[span] += elapsed - stack.pop()
                calls[span] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _see_table(self, args):
        table = args[0]
        if id(table) not in self._tables:
            self._tables[id(table)] = (table, len(table._cache))

    def _see_ncpoly(self, result):
        if len(result.terms) > self.max_terms:
            self.max_terms = len(result.terms)

    def install(self):
        package = [m for n, m in list(sys.modules.items())
                   if n == "oplax" or n.startswith("oplax.")]
        for module_name, funcs in LAYERS.items():
            module = importlib.import_module(f"oplax.{module_name}")
            for func in funcs:
                name = f"{module_name}.{func}"
                hooks = {}
                if func == "verify_theorem_q":
                    hooks["name_of"] = _theorem_span
                elif func == "CommutationTable.normal_word":
                    hooks["before"] = self._see_table
                elif func == "NCPoly.__mul__":
                    hooks["after"] = self._see_ncpoly
                if "." in func:
                    cls_name, attr = func.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[attr]
                    wrapped = self._wrap(orig, name, **hooks)
                    for key, value in list(vars(cls).items()):
                        if value is orig:
                            self._patches.append((cls, key, orig, "attr"))
                            setattr(cls, key, wrapped)
                    continue
                orig = getattr(module, func)
                wrapped = self._wrap(orig, name, **hooks)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, key, orig, "attr"))
                            setattr(mod, key, wrapped)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is orig:
                                    self._patches.append((value, k, orig,
                                                          "item"))
                                    value[k] = wrapped

    def uninstall(self):
        for owner, key, orig, kind in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, orig)
            else:
                owner[key] = orig
        self._patches.clear()
