"""Per-layer tracing of keisler_lab from outside the package.

`Tracer.install()` replaces every public function of the package modules
with a wrapper, in every keisler_lab namespace that binds it (witnesses,
for example, imports `is_free` and `evaluate` by name).  Nothing under
src/ is edited; `uninstall()` puts the originals back.

Two kinds of wrapper:

- span wrappers record (name, parent span, start, end) per call and keep
  the list in memory; the trace is written out after the run;
- aggregate wrappers, for the functions called more than ~10^3 times
  per phase, only add to a call count and an inclusive time.  Per-call
  spans there would distort the run.

Self time of a span is its duration minus the time covered by its child
spans and by the outermost aggregate calls made directly under it.
`evaluate` is recursive, so it and `make_assignment` are wrapped (and
counted) only where other modules call them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
from collections import Counter
from math import comb
from time import perf_counter

MODULES = ("structures", "logic", "measures", "coloring", "witnesses",
           "serialize", "cli")
AGGREGATE = frozenset({"logic.evaluate", "logic.make_assignment",
                       "logic.residual_holds", "measures.mu_eval",
                       "coloring.conditional_expectation",
                       "serialize.rational_from_json"})
# wrapped only where other modules bind them: evaluate recurses, and both
# count the top-level calls made by the pipelines
CROSS_MODULE_ONLY = frozenset({"logic.evaluate", "logic.make_assignment"})

# per-layer metric names (without the phase prefix) and their units
LAYER_METRICS = (
    ("structures.random_maximal_free.s", "s"),
    ("structures.random_maximal_free.kept_ratio", "ratio"),
    ("structures.is_maximal_free.s", "s"),
    ("structures.find_clique.calls", "count"),
    ("structures.find_clique.s", "s"),
    ("structures.is_free.calls", "count"),
    ("structures.add_vertex_with_links.calls", "count"),
    ("structures.add_vertex_with_links.s", "s"),
    ("structures.add_vertex_with_links.self_s", "s"),
    ("structures.alpha_s.s", "s"),
    ("structures.alpha_s.nodes", "count"),
    ("structures.embed_search.s", "s"),
    ("structures.embed_search.nodes", "count"),
    ("logic.evaluate.calls", "count"),
    ("logic.evaluate.s", "s"),
    ("logic.make_assignment.calls", "count"),
    ("logic.analyze_phi.calls", "count"),
    ("logic.analyze_phi.s", "s"),
    ("measures.sup_error.s", "s"),
    ("measures.sup_error.self_s", "s"),
    ("measures.sup_error.samples", "count"),
    ("measures.mu_eval.calls", "count"),
    ("measures.mu_eval.s", "s"),
    ("coloring.greedy_coloring.s", "s"),
    ("coloring.conditional_expectation.calls", "count"),
    ("coloring.conditional_expectation.s", "s"),
    ("coloring.weight_of.s", "s"),
    ("coloring.weighted_edges", "count"),
    ("witnesses.fam_witness.s", "s"),
    ("witnesses.fam_witness.self_s", "s"),
    ("witnesses.order_witness.s", "s"),
    ("witnesses.order_witness.self_s", "s"),
    ("witnesses.recompute_certified.s", "s"),
    ("witnesses.recompute_certified.self_s", "s"),
    ("serialize.parse_structure_spec.s", "s"),
    ("serialize.parse_structure_spec.self_s", "s"),
    ("serialize.structure_to_json.calls", "count"),
    ("serialize.structure_to_json.s", "s"),
    ("serialize.digest.calls", "count"),
    ("serialize.digest.s", "s"),
    ("serialize.digest.bytes", "bytes"),
    ("serialize.canonical_dumps.s", "s"),
    ("serialize.canonical_dumps.bytes", "bytes"),
    ("serialize.atomic_write_text.s", "s"),
    ("serialize.atomic_write_text.bytes", "bytes"),
    ("serialize.load_json.s", "s"),
    ("serialize.load_json.bytes", "bytes"),
    ("cli.run.s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# span record fields
NAME, PARENT, START, END, AGG_COVERED, IN_AGGREGATE = range(6)


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


# work counters taken from a spanned call's arguments (by parameter name)
# and result, after the span has ended

def _count_random_maximal_free(counters, arguments, result):
    counters["structures.random_maximal_free.kept"] += len(result.edges)
    counters["structures.random_maximal_free.tried"] += comb(
        arguments["n"], arguments["r"])


def _count_nodes(key):
    def post(counters, arguments, result):
        counters[key] += result.nodes
    return post


def _count_samples(counters, arguments, result):
    counters["measures.sup_error.samples"] += result.samples_scanned


def _count_weighted_edges(counters, arguments, result):
    key = "coloring.weighted_edges"
    counters[key] = max(counters[key], len(arguments["h"].weights))


def _count_dumped(counters, arguments, result):
    counters["serialize.canonical_dumps.bytes"] += _text_bytes(result)


def _count_written(counters, arguments, result):
    counters["serialize.atomic_write_text.bytes"] += _text_bytes(
        arguments["text"])


def _count_read(counters, arguments, result):
    counters["serialize.load_json.bytes"] += os.path.getsize(
        arguments["path"])


POST = {
    "structures.random_maximal_free": _count_random_maximal_free,
    "structures.alpha_s": _count_nodes("structures.alpha_s.nodes"),
    "structures.embed_search": _count_nodes("structures.embed_search.nodes"),
    "measures.sup_error": _count_samples,
    "coloring.greedy_coloring": _count_weighted_edges,
    "coloring.weight_of": _count_weighted_edges,
    "serialize.canonical_dumps": _count_dumped,
    "serialize.atomic_write_text": _count_written,
    "serialize.load_json": _count_read,
}


class _CountingHashlib:
    """Stands in for `hashlib` inside serialize, so `digest` reports how
    many bytes it hashed without serialising its payload a second time."""

    def __init__(self, counters):
        self._counters = counters

    def sha256(self, data=b""):
        self._counters["serialize.digest.bytes"] += len(data)
        return hashlib.sha256(data)

    def __getattr__(self, name):
        return getattr(hashlib, name)


class Tracer:
    """Wraps the package's public functions and records what they do."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.aggregates: dict[str, list] = {}
        self.counters: Counter = Counter()
        self._agg_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        post = POST.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0,
                      self._agg_depth > 0]
            stack.append(len(spans))
            spans.append(record)
            depth, self._agg_depth = self._agg_depth, 0
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                self._agg_depth = depth
                stack.pop()
            if post is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                post(self.counters, arguments, result)
            return result
        return wrapper

    def _aggregate_wrapper(self, name, fn):
        stats = self.aggregates.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._agg_depth == 0
            self._agg_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._agg_depth -= 1
                stats[0] += 1
                stats[1] += elapsed
                if outermost and stack:
                    spans[stack[-1]][AGG_COVERED] += elapsed
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        package = importlib.import_module("keisler_lab")
        modules = {m: importlib.import_module(f"keisler_lab.{m}")
                   for m in MODULES}
        namespaces = [package, *modules.values()]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrap = (self._aggregate_wrapper if name in AGGREGATE
                        else self._span_wrapper)
                wrapper = wrap(name, fn)
                for ns in namespaces:
                    if ns is module and name in CROSS_MODULE_ONLY:
                        continue
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, bound, wrapper)
        self._patch(modules["serialize"], "hashlib",
                    _CountingHashlib(self.counters))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # -- results ----------------------------------------------------------

    def span_table(self) -> list[dict]:
        """Every span with its inclusive and self seconds."""
        covered = [span[AGG_COVERED] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0 and not span[IN_AGGREGATE]:
                covered[span[PARENT]] += span[END] - span[START]
        return [{"id": i, "name": span[NAME], "parent": span[PARENT],
                 "start": span[START], "end": span[END],
                 "s": span[END] - span[START],
                 "self_s": span[END] - span[START] - covered[i]}
                for i, span in enumerate(self.spans)]

    def function_totals(self) -> dict[str, dict]:
        """Per function: calls, inclusive seconds (outermost calls only) and
        self seconds."""
        totals: dict[str, dict] = {}
        table = self.span_table()
        for row in table:
            entry = totals.setdefault(row["name"],
                                      {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += row["self_s"]
            parent = row["parent"]
            while parent >= 0 and table[parent]["name"] != row["name"]:
                parent = table[parent]["parent"]
            if parent < 0:
                entry["s"] += row["s"]
        for name, (calls, seconds) in self.aggregates.items():
            totals[name] = {"calls": calls, "s": seconds}
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of LAYER_METRICS except the overhead ratio,
        which needs the untraced runs."""
        totals = self.function_totals()
        counters = self.counters
        tried = counters["structures.random_maximal_free.tried"]
        derived = dict(counters)
        derived["structures.random_maximal_free.kept_ratio"] = (
            counters["structures.random_maximal_free.kept"] / tried
            if tried else 0.0)
        out = {}
        for metric, _ in LAYER_METRICS:
            if metric == "trace.overhead_ratio":
                continue
            if metric in derived:
                out[metric] = derived[metric]
                continue
            function, _, field = metric.rpartition(".")
            out[metric] = totals.get(function, {}).get(field, 0)
        return out
