"""Spans around the public functions of the toricsat modules, from outside them.

`Tracer.install` replaces every public function of the traced modules, under
every module name that refers to it (``lipsat`` imports ``membership_table``
from ``affsg``, so both attributes are replaced, and so is the package
re-export), with a wrapper that records a span: name, start, end, parent span
and job id.  Spans stay in memory; `layer_table` derives inclusive time
(outermost span of a name only, so recursion is not counted twice), self
time (duration minus the time covered by child spans) and call counts from
them.  A few hot leaf functions only count calls, since a span per call
would dwarf the work they do.  `uninstall` restores the originals, so
untraced runs execute the unmodified library.
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "lipsat", "affsg", "numsg", "torideal", "arccert", "cyclotomic")
METHODS = {
    "cyclotomic.cycnum_mul": ("CyclotomicNumber", "__mul__"),
    "cyclotomic.zetapoly_mul": ("ZetaPoly", "__mul__"),
}
COUNT_ONLY = frozenset(
    {"numsg.contains", "lipsat.hyp_membership", "cyclotomic.cycnum_mul",
     "cyclotomic.zetapoly_mul"}
)


def _traced_functions() -> dict[int, tuple[str, object]]:
    """id(original) -> (span name, original) for every traced function and method."""
    found: dict[int, tuple[str, object]] = {}
    for short in MODULES:
        mod = importlib.import_module(f"toricsat.{short}")
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                found[id(obj)] = (f"{short}.{attr}", obj)
    for name, (cls_name, method) in METHODS.items():
        cls = getattr(importlib.import_module("toricsat.cyclotomic"), cls_name)
        fn = vars(cls)[method]
        found[id(fn)] = (name, fn)
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.job = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._hooks = {
            "affsg.membership_table": self._on_table,
            "affsg.contains_affine": self._on_contains,
            "affsg.min_generators_affine": self._on_min_generators,
            "torideal.degree_bounded_generators": self._on_degree_bounded,
            "cyclotomic.zetapoly_mul": self._on_zetapoly_mul,
        }
        originals = _traced_functions()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        owners = [importlib.import_module("toricsat")]
        owners += [importlib.import_module(f"toricsat.{m}") for m in MODULES]
        cyclo = importlib.import_module("toricsat.cyclotomic")
        owners += [getattr(cyclo, cls) for cls, _ in METHODS.values()]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers:
                    self._patches.append((owner, attr, obj, wrappers[id(obj)]))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        counters = self.counters
        if name in COUNT_ONLY:
            calls = name + ".calls"

            def count(*args, **kwargs):
                counters[calls] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result

            return count
        spans, stack, errors = self.spans, self.stack, name + ".errors"

        def span(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(record)
            stack.append(idx)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[errors] += 1
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return span

    # -- counters kept where the work happens ----------------------------------

    def _on_table(self, args, result) -> None:
        cells = math.prod(int(c) + 1 for c in args[1])
        self.counters["affsg.membership_table.cells"] += cells
        if self.parent_name() == "affsg.contains_affine":
            self.counters["affsg.contains_affine.cells_built"] += cells

    def _on_contains(self, args, result) -> None:
        if any(args[1]):
            self.counters["affsg.contains_affine.cells_read"] += 1

    def _on_min_generators(self, args, result) -> None:
        self.counters["affsg.min_generators_affine.gens_in"] += len(args[0].generators)
        self.counters["affsg.min_generators_affine.gens_kept"] += len(result)

    def _on_degree_bounded(self, args, result) -> None:
        self.counters["torideal.degree_bounded_generators.moves_out"] += len(result)

    def _on_zetapoly_mul(self, args, result) -> None:
        self.counters["cyclotomic.zetapoly_mul.terms_out"] += len(result.terms)


def layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive ms of outermost spans, and self ms."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = table[name]
        dur = end - start
        row["calls"] += 1
        row["self_ms"] += (dur - child[i]) * 1e3
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["ms"] += dur * 1e3
    return table


def layer_value(metric: str, table, counters) -> float:
    """Value of a `<module>.<function>.<quantity>` metric from spans and counters."""
    if metric == "affsg.contains_affine.cells_per_query":
        read = counters.get("affsg.contains_affine.cells_read", 0)
        return counters.get("affsg.contains_affine.cells_built", 0) / read if read else 0.0
    fn, _, quantity = metric.rpartition(".")
    if quantity in ("ms", "self_ms") or (quantity == "calls" and fn not in COUNT_ONLY):
        return table[fn][quantity] if fn in table else 0
    return counters.get(metric, 0)
