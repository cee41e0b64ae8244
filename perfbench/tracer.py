"""Tracing of cncrystal's layer boundaries from outside the package.

``Tracer.install()`` rebinds the public functions of each layer to timing
wrappers, in every module that binds them (``products`` imports
``generate_closure`` by name, ``cli`` imports ``verify_range`` by name, the
package re-exports most of them), so no call escapes through an alias.

Function calls become spans: name, start, end and parent, kept in memory and
returned by ``report()``.  Operator calls (``Monomial.e``/``f``/
``string_stats`` ..., ``Column.e``/``f``/``epsilon``/``phi``) are far too many
for spans -- one rank-5 product makes about half a million -- so they are
patched on the class and kept as aggregated counters, with the time of each
outermost operator call credited to the enclosing span as child time.

A span's self time is its duration minus the time of the spans and operator
calls it encloses; a layer's self time is the self time of its spans plus
the time of its operators.
"""

from __future__ import annotations

import collections
import importlib
from time import perf_counter

LAYERS = ("monomials", "graphs", "products", "tableaux", "cli")

# (layer, public function) pairs timed as spans
SPAN_TARGETS = (
    ("cli", "main"),
    ("products", "verify_range"),
    ("products", "decompose_product_bruteforce"),
    ("products", "product_set"),
    ("products", "fundamental_crystal"),
    ("products", "product_decomposition_closed_form"),
    ("products", "tensor_decomposition_closed_form"),
    ("graphs", "generate_closure"),
    ("graphs", "is_closed"),
    ("graphs", "decompose_set"),
    ("monomials", "m_k_set"),
    ("tableaux", "column_crystal"),
    ("tableaux", "tensor_highest_weights"),
)

# (layer, class, method, counter name, operator group) patched on the class
OPERATOR_TARGETS = (
    ("monomials", "Monomial", "string_stats", "monomials.string_stats", "monomials.ops"),
    ("monomials", "Monomial", "epsilon", "monomials.epsilon", "monomials.ops"),
    ("monomials", "Monomial", "phi", "monomials.phi", "monomials.ops"),
    ("monomials", "Monomial", "e", "monomials.e", "monomials.ops"),
    ("monomials", "Monomial", "f", "monomials.f", "monomials.ops"),
    ("monomials", "Monomial", "__mul__", "monomials.mul", "monomials.mul"),
    ("monomials", "Monomial", "__truediv__", "monomials.div", "monomials.mul"),
    ("tableaux", "Column", "e", "tableaux.column.e", "tableaux.column_ops"),
    ("tableaux", "Column", "f", "tableaux.column.f", "tableaux.column_ops"),
    ("tableaux", "Column", "epsilon", "tableaux.column.epsilon", "tableaux.column_ops"),
    ("tableaux", "Column", "phi", "tableaux.column.phi", "tableaux.column_ops"),
)


class Tracer:
    def __init__(self):
        self.counts = collections.Counter()
        self.span_seconds = collections.Counter()  # inclusive, per span name
        self.self_seconds = collections.Counter()  # per span name
        self.op_seconds = collections.Counter()  # per operator group
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.aliases: list[str] = []
        self.caches: dict[str, object] = {}
        self._stack: list[list] = []  # open spans: [id, child seconds, notes]
        self._next_id = 0
        self._op_depth = [0]
        self._origin = perf_counter()

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        modules = {"cncrystal": importlib.import_module("cncrystal")}
        for layer in LAYERS:
            modules[layer] = importlib.import_module(f"cncrystal.{layer}")
        for layer, name in SPAN_TARGETS:
            original = getattr(modules[layer], name)
            if hasattr(original, "cache_info"):
                self.caches[f"{layer}.{name}"] = original
            wrapper = self._span_wrapper(f"{layer}.{name}", original)
            for mod_name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.aliases.append(f"{mod_name}.{attr}")
        for layer, cls_name, method, counter, group in OPERATOR_TARGETS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self._operator_wrapper(counter, group, vars(cls)[method]))
            self.aliases.append(f"{layer}.{cls_name}.{method}")
        return self

    def _span_wrapper(self, name: str, fn):
        stack, spans = self._stack, self.spans
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0, []]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                self.counts[name + ".calls"] += 1
                self.span_seconds[name] += duration
                self.self_seconds[name] += duration - frame[1]
                spans.append((sid, name, t0 - self._origin, t1 - self._origin, parent))
            if hook is not None:
                hook(self, args, result, frame[2])
            return result

        return wrapper

    def _operator_wrapper(self, counter: str, group: str, fn):
        counts, depth, stack, op_seconds = self.counts, self._op_depth, self._stack, self.op_seconds
        calls = counter + ".calls"

        def wrapper(*args):
            counts[calls] += 1
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                depth[0] = 0
                op_seconds[group] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def note(self, value) -> None:
        """Pass a value up to the enclosing span's hook."""
        if self._stack:
            self._stack[-1][2].append(value)

    # -- results ---------------------------------------------------------------

    def report(self) -> dict:
        layer_self = collections.Counter()
        for name, seconds in self.self_seconds.items():
            layer_self[name.split(".")[0]] += seconds
        for group, seconds in self.op_seconds.items():
            layer_self[group.split(".")[0]] += seconds
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "counts": dict(self.counts),
            "span_seconds": dict(self.span_seconds),
            "self_seconds": dict(self.self_seconds),
            "op_seconds": dict(self.op_seconds),
            "layer_self_seconds": {layer: layer_self[layer] for layer in LAYERS},
            "caches": caches,
            "aliases": sorted(self.aliases),
            "spans": sorted(self.spans),
        }


# -- per-span hooks: counts measured where the work happens -----------------------


def _closure_hook(tracer, args, result, notes):
    tracer.counts["graphs.generate_closure.vertices"] += len(result.vertices)
    tracer.counts["graphs.generate_closure.edges"] += len(result.edges)


def _decompose_hook(tracer, args, result, notes):
    tracer.counts["graphs.decompose_set.components"] += len(result)
    tracer.counts["graphs.decompose_set.elements"] += len(args[0])


def _fundamental_hook(tracer, args, result, notes):
    tracer.note(len(result))


def _product_set_hook(tracer, args, result, notes):
    # a cache hit calls no fundamental_crystal, so it forms no products
    if len(notes) == 2:
        tracer.counts["products.formed"] += notes[0] * notes[1]
        tracer.counts["products.distinct"] += len(result)


def _column_crystal_hook(tracer, args, result, notes):
    tracer.counts["tableaux.column_crystal.columns"] += len(result)
    tracer.note(len(result))


def _tensor_hw_hook(tracer, args, result, notes):
    tracer.counts["tableaux.pairs_scanned"] += notes[0] * notes[1]
    tracer.counts["tableaux.hw_found"] += len(result)


_HOOKS = {
    "graphs.generate_closure": _closure_hook,
    "graphs.decompose_set": _decompose_hook,
    "products.fundamental_crystal": _fundamental_hook,
    "products.product_set": _product_set_hook,
    "tableaux.column_crystal": _column_crystal_hook,
    "tableaux.tensor_highest_weights": _tensor_hw_hook,
}
