"""Span tracing of shapfact's layers, from outside the package.

The modules of ``src/shapfact/`` import each other's functions by name
(``from .decompose import bucket_facts``), so a call is traced by replacing
the name where it is looked up: ``exact.bucket_facts``, ``approx.hom_profiles``
and so on.  :class:`Tracer` patches

* every public function a shapfact module imports from another one,
* every public function of a module that another module calls through the
  module object (``cli`` calls ``exact.shapley_exact_all``),
* the public methods of ``model.Database``, and the constructor and
  ``sat_table`` of ``naive.SubsetOracle``,

and restores all of them on exit.  Generator functions are left alone: their
work happens while the caller iterates, so it stays in the caller's layer.

A span records its name, start, end, parent span and op id.  Spans stay in
memory; :meth:`Tracer.write` saves them when the run ends.  A layer's self
time is the duration of its spans minus the part their child spans cover, so
the cost of the wrappers around a child call lands in the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

LAYERS = ("cli", "parsing", "model", "structure", "decompose", "exact",
          "rewriting", "prob", "naive", "approx", "relevance", "reporting")

def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _fact_lines(text: str) -> int:
    return sum(1 for line in text.splitlines()
               if line.split("#", 1)[0].strip())


# per-span-name counters: (args, kwargs, result) -> {counter: increment}
def _hooks() -> dict[str, Callable[..., dict[str, int]]]:
    return {
        "parsing.parse_facts": lambda a, k, r: {
            "parsing.fact_lines": _fact_lines(a[0])},
        "structure.classify_query": lambda a, k, r: {
            "structure.classify_calls": 1},
        "model.Database.__init__": lambda a, k, r: {
            "model.db_builds": 1, "model.facts_copied": len(a[0].facts)},
        "exact.count_satisfying_subsets": lambda a, k, r: {
            "exact.count_calls": 1},
        "exact.shapley_exact": lambda a, k, r: {"exact.facts_valued": 1},
        "decompose.bucket_facts": lambda a, k, r: {
            "decompose.nodes": 1,
            "decompose.facts_routed": len(r[1]) + sum(map(len, r[0]))},
        "rewriting.rewrite": lambda a, k, r: {"rewriting.calls": 1},
        "rewriting.apply_step": lambda a, k, r: {
            "rewriting.tuples_materialised": r[2]},
        "prob.prob_eval": lambda a, k, r: {"prob.calls": 1},
        "prob.brute_prob": lambda a, k, r: {"prob.calls": 1},
        "naive.hom_profiles": lambda a, k, r: {
            "naive.profile_builds": 1, "naive.profiles": len(r)},
        "naive.eval_boolean": lambda a, k, r: {"naive.eval_calls": 1},
        "naive.SubsetOracle.__init__": lambda a, k, r: {
            "naive.worlds": 1 << a[0].n},
        "approx.shapley_additive_fpras": lambda a, k, r: {
            "approx.calls": 1,
            "approx.samples": r[1].samples,
            # one uint64 arrival key per endogenous fact and sample
            "approx.key_bytes": 8 * r[1].samples * a[0].n_endogenous},
        "relevance.relevance": lambda a, k, r: {"relevance.calls": 1},
        "reporting.render_json": lambda a, k, r: {
            "reporting.bytes": len(r.encode())},
        "reporting.render_table": lambda a, k, r: {
            "reporting.bytes": len(r.encode())},
    }


class Tracer:
    """Patches shapfact's lookup sites while active (``with tracer:``)."""

    def __init__(self) -> None:
        # one entry per span, in call order; a span's parent is the index
        # of the enclosing span, or -1 for a root
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")  # index into self.names
        self.parent = array("i")
        self.op = array("i")
        self.names: list[str] = []
        self.stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.current_op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = _hooks()

    # -- patching -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn: Callable, site: str = "") -> Callable:
        starts, ends, stack, counters = (self.start, self.end, self.stack,
                                         self.counters)
        names, parents, ops = self.name, self.parent, self.op
        name_id = len(self.names)
        self.names.append(name)
        hook = self._hooks.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if site:
                counters[site] += 1
            if hook is not None:
                counters.update(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: object, attr: str, name: str, site: str = ""
               ) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, site))

    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"shapfact.{layer}")
                   for layer in LAYERS}
        called_as_module = {v.__name__ for m in modules.values()
                            for v in vars(m).values() if inspect.ismodule(v)}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj)
                        and obj.__module__.startswith("shapfact.")
                        and not obj.__name__.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    continue
                home = obj.__module__
                if home == module.__name__ and home not in called_as_module:
                    continue
                self._patch(module, attr, f"{_layer(home)}.{obj.__name__}",
                            site=f"{layer}->{obj.__name__}")
        database = modules["model"].Database
        for attr in ("__init__", "with_fact_exogenous", "without_fact",
                     "with_relations_replaced", "get", "relation_facts",
                     "tuples"):
            self._patch(database, attr, f"model.Database.{attr}")
        for attr in ("__init__", "sat_table"):
            self._patch(modules["naive"].SubsetOracle, attr,
                        f"naive.SubsetOracle.{attr}")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def self_times(self, first: int, last: int) -> Counter[str]:
        """Seconds of self time per span name, over spans ``first`` to
        ``last`` (a whole number of root spans)."""
        duration = [self.end[i] - self.start[i] for i in range(first, last)]
        self_s = list(duration)
        for i in range(first, last):
            parent = self.parent[i]
            if parent >= 0:
                self_s[parent - first] -= duration[i - first]
        out: Counter[str] = Counter()
        for i in range(first, last):
            out[self.names[self.name[i]]] += self_s[i - first]
        return out

    def inclusive_times(self, first: int, last: int) -> Counter[str]:
        """Seconds per span name over spans ``first`` to ``last``, counting
        only the outermost span of each name on a path, so that recursive
        calls are not counted twice."""
        out: Counter[str] = Counter()
        for i in range(first, last):
            name, parent = self.name[i], self.parent[i]
            while parent >= 0 and self.name[parent] != name:
                parent = self.parent[parent]
            if parent < 0:
                out[self.names[name]] += self.end[i] - self.start[i]
        return out

    def write(self, path: Path) -> None:
        """One tab-separated line per span: index, parent, op, name, start
        and end in seconds of the benchmark's clock."""
        with path.open("w") as fh:
            fh.write("index\tparent\top\tname\tstart\tend\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\n")


def layer_self_times(self_times: Counter[str]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_times.items():
        out[name.split(".", 1)[0]] += seconds
    return out
