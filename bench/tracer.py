"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each phenkf module (one module
is one layer) from outside the package: every module-level binding of a
wrapped function inside ``phenkf`` is replaced, so that
``extremal_search.kirchhoff_index`` is traced as well as
``resistance_engine.kirchhoff_index``.  ``Tracer.uninstall`` puts every
original binding back.

A span is ``(name, start, end, parent, attrs)``: ``parent`` is the index of
the enclosing span or ``None``, and ``attrs`` holds counts read from the
call's arguments and return value (matrix order, result bit length, codes,
reduction steps).  Spans stay in memory until the caller writes them out.

Per-element helpers such as ``vertex_key`` and the four local reductions are
not wrapped: they run millions of times and their spans would cost more than
the work they time.
"""

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple

# layer (phenkf module) -> traced public functions, "Class.method" for methods
LAYERS = {
    "chain_model": ("build_chain", "build_terminal_chain"),
    "resistance_engine": (
        "kirchhoff_index", "resistance_matrix", "grounded_resistances",
        "resistance_sum", "effective_resistance", "simplify_chain_circuit",
        "reduce_series_parallel", "ReductionTrace.replay"),
    "st_isomer": ("verify_lemma4", "lemma4_delta", "random_st_pair"),
    "extremal_search": (
        "find_extrema", "kf_of_code", "verify_conjecture", "verify_theorem1",
        "check_lemma5", "check_lemma6", "random_terminal_weights",
        "random_chain_weights"),
    "exact_arith": ("format_rational", "approx_text"),
    "cli": ("main",),
}

# entry points that run one exact solve of the network passed as first argument
SOLVES = frozenset(f"resistance_engine.{f}" for f in (
    "kirchhoff_index", "resistance_matrix", "grounded_resistances",
    "resistance_sum", "effective_resistance"))


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: object  # index of the enclosing span, or None
    attrs: dict


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _result_bits(result):
    """Largest numerator or denominator bit length in a solve's result."""
    if isinstance(result, dict):
        return max(map(_bits, result.values()), default=0)
    values = getattr(result, "values", None)  # ResistanceMatrix
    if values is not None:
        return max((_bits(q) for row in values for q in row), default=0)
    return _bits(result)


def _solve_attrs(args, kwargs, result):
    return {"order": args[0].num_vertices, "bits": _result_bits(result)}


ATTRS = {name: _solve_attrs for name in SOLVES}
ATTRS["extremal_search.find_extrema"] = lambda a, k, r: {"codes": len(r.reports)}
ATTRS["resistance_engine.simplify_chain_circuit"] = lambda a, k, r: {"steps": len(r[1])}


class Tracer:
    """Records spans around the wrapped layer functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original), in patch order

    def wrap(self, name, fn):
        """`fn` recording one span per call; counts are added only on return."""
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, {})
            if attrs_of is not None:
                self.spans[index].attrs.update(attrs_of(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every LAYERS function at each module-level binding in phenkf."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "phenkf" or n.startswith("phenkf."))]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"phenkf.{layer}"]
            for qualname in functions:
                name = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self.wrap(name, original))
                    continue
                original = getattr(home, qualname)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take_spans(self):
        spans, self.spans = self.spans, []
        return spans


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def _has_ancestor(spans, span, names):
    while span.parent is not None:
        span = spans[span.parent]
        if span.name in names:
            return True
    return False


def layer_table(spans):
    """Per traced function: calls, inclusive seconds and self seconds."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span.end - span.start
        row["self_s"] += own
    return table


def layer_metrics(spans, stdout_bytes, time_scale=1.0):
    """Flat per-layer metrics of one traced pass, named as in BENCHMARK.json.

    Every traced function F gives F.calls, F.s and F.self_s; every layer L
    gives L.self_s.  The solve counters are computed from matrix orders and
    result sizes of the outermost solve calls, so they repeat exactly.
    Times (names ending in ".s" or "_s") are multiplied by `time_scale`.
    """
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, row in layer_table(spans).items():
        for key, value in row.items():
            metrics[f"{name}.{key}"] = value
        layer_self[name.split(".")[0]] += row["self_s"]
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    for layer, functions in LAYERS.items():
        for qualname in functions:
            for key in ("calls", "s", "self_s"):
                metrics.setdefault(f"{layer}.{qualname}.{key}", 0)

    solves = [s for s in spans if s.name in SOLVES and not _has_ancestor(spans, s, SOLVES)]
    metrics["resistance_engine.solve.calls"] = len(solves)
    metrics["resistance_engine.solve.s"] = sum(s.end - s.start for s in solves)
    metrics["resistance_engine.solve.order_max"] = max((s.attrs.get("order", 0) for s in solves), default=0)
    metrics["resistance_engine.solve.work_v3"] = sum(s.attrs.get("order", 0) ** 3 for s in solves)
    metrics["resistance_engine.solve.result_bits_max"] = max(
        (s.attrs.get("bits", 0) for s in spans if s.name in SOLVES), default=0)
    metrics["resistance_engine.reduce.steps"] = sum(
        s.attrs.get("steps", 0) for s in spans if s.name == "resistance_engine.simplify_chain_circuit")

    searches = {"extremal_search.find_extrema"}
    codes = sum(s.attrs.get("codes", 0) for s in spans if s.name in searches)
    search_solves = sum(1 for s in solves if _has_ancestor(spans, s, searches))
    metrics["extremal_search.find_extrema.codes"] = codes
    metrics["extremal_search.solves_per_code"] = search_solves / codes if codes else 0.0
    metrics["cli.stdout_bytes"] = stdout_bytes
    return {name: value * time_scale if name.endswith((".s", "_s")) else value
            for name, value in metrics.items()}


def median_metrics(per_pass):
    """Median of each metric over passes (counts are equal in every pass)."""
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
