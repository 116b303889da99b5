"""Per-layer tracing of formaldisk, done from the benchmark's own files.

``Tracer.install`` wraps public functions and methods of the layers at
every place they are looked up: the defining module, each module that
imported the function by name (``formality`` imports ``graphs_with_profile``,
``suites`` imports ``bullet``, ...), the package namespace, the benchmark's
workload module, and every name a class binds to the same method
(``__rmul__ = __mul__``). ``Tracer.restore`` puts the originals back.

Two kinds of wrapper exist. A span records calls and self time, which is
its duration minus the time of the spans it encloses. A count records
calls only; it is used for methods called millions of times, whose time
then stays in the enclosing span's self time.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

SPAN, COUNT = "span", "count"


def _graphs_result(tracer, key, result):
    if key == "graphs.enumerate_graphs":
        tracer.counters["graphs.enumerated"] += len(result)
    elif key == "graphs.vanishing_tag" and result is None:
        tracer.counters["graphs.untagged"] += 1


def _graph_operator_result(tracer, key, result):
    if not result.is_zero():
        tracer.counters["formality.graph_operator.nonzero"] += 1


def _mc_weight_result(tracer, key, result):
    tracer.counters["weights.samples"] += result.samples
    tracer.counters["weights.discarded"] += result.discarded


def _cache_lookup_result(tracer, key, result):
    tracer.counters["weights.cache.misses" if result is None
                    else "weights.cache.hits"] += 1


# (metric key, module, attribute path, kind, result hook); a path with a
# dot names a method on a class of that module. Spans without a metric of
# their own keep their time out of the enclosing span's self time and count
# toward their layer's calls.
TARGETS = (
    ("series.partial", "series", "TruncatedSeries.partial", SPAN, None),
    ("series.construct", "series", "TruncatedSeries.__init__", COUNT, None),
    ("series.mul", "series", "TruncatedSeries.__mul__", SPAN, None),
    ("polyvector.component", "polyvector", "_Alternating.component", COUNT,
     None),
    ("polyvector.schouten_bracket", "polyvector", "schouten_bracket", SPAN,
     None),
    ("polydiff.bullet", "polydiff", "bullet", SPAN, None),
    ("polydiff.gerstenhaber_bracket", "polydiff", "gerstenhaber_bracket", SPAN,
     None),
    ("polydiff.hochschild_differential", "polydiff", "hochschild_differential",
     SPAN, None),
    ("polydiff.op_add", "polydiff", "PolyDiffOp.__add__", SPAN, None),
    ("graphs.enumerate_graphs", "graphs", "enumerate_graphs", SPAN,
     _graphs_result),
    ("graphs.graphs_with_profile", "graphs", "graphs_with_profile", SPAN, None),
    ("graphs.vanishing_tag", "graphs", "vanishing_tag", SPAN, _graphs_result),
    ("graphs.cycle_type_of_wheelish", "graphs", "cycle_type_of_wheelish", SPAN,
     None),
    ("graphs.classify_wheels", "graphs", "classify_wheels", SPAN, None),
    ("graphs.wheel_graph", "graphs", "wheel_graph", SPAN, None),
    ("formality.graph_operator", "formality", "graph_operator", SPAN,
     _graph_operator_result),
    ("formality.twisted_first_taylor", "formality", "twisted_first_taylor",
     SPAN, None),
    ("formality.closed_form_map", "formality", "closed_form_map", SPAN, None),
    ("etalgebra.eta_add", "etalgebra", "_EtaGraded.__add__", SPAN, None),
    ("etalgebra.eta_add", "etalgebra", "EtaFormScalar.__add__", SPAN, None),
    ("etalgebra.eta_word_sign", "etalgebra", "eta_word_sign", COUNT, None),
    ("weights.mc_weight", "weights", "mc_weight", SPAN, _mc_weight_result),
    ("weights.cache_lookup", "weights", "cache_lookup", SPAN,
     _cache_lookup_result),
)


class Tracer:
    """Counts and self times per metric key, and per op group for spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.group_self_s = defaultdict(float)   # (key, group) -> seconds
        self.counters = defaultdict(int)
        self.group = None       # the group of the op being run
        self._open = []         # child time of each open span
        self._patched = []      # (owner, name, original)

    def _span(self, key, fn, hook):
        open_spans = self._open

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                own = dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                self.calls[key] += 1
                self.self_s[key] += own
                self.group_self_s[key, self.group] += own
            if hook is not None:
                hook(self, key, result)
            return result
        return wrapper

    def _count(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, extra_modules=()):
        """Wrap every target that exists; skip targets a version lacks."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "formaldisk" or name.startswith("formaldisk.")]
        namespaces += list(extra_modules)
        for key, module, path, kind, hook in TARGETS:
            owner = sys.modules.get("formaldisk." + module)
            *cls_name, attr = path.split(".")
            if cls_name:
                owner = getattr(owner, cls_name[0], None)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                continue
            wrapper = (self._span(key, original, hook) if kind == SPAN
                       else self._count(key, original))
            sites = [owner] if cls_name else namespaces
            for site in sites:
                for name, value in list(vars(site).items()):
                    if value is original:
                        self._patched.append((site, name, original))
                        setattr(site, name, wrapper)

    def restore(self):
        for site, name, original in reversed(self._patched):
            setattr(site, name, original)
        self._patched.clear()

    def layer_calls(self, layer):
        return sum(n for key, n in self.calls.items()
                   if key.startswith(layer + "."))


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, overhead):
    """The per-layer metrics BENCHMARK.json lists, from one traced pass."""
    t, c = tracer, tracer.counters
    out = {}
    for key in ("series.partial", "series.mul", "polyvector.schouten_bracket",
                "polydiff.bullet", "polydiff.gerstenhaber_bracket",
                "polydiff.hochschild_differential", "polydiff.op_add",
                "formality.graph_operator", "etalgebra.eta_add"):
        out[key + ".calls"] = (t.calls[key], "count")
        out[key + ".self_s"] = (t.self_s[key], "s")
    for key in ("series.construct", "polyvector.component",
                "etalgebra.eta_word_sign"):
        out[key + ".calls"] = (t.calls[key], "count")
    for key in ("graphs.enumerate_graphs", "formality.twisted_first_taylor",
                "formality.closed_form_map", "weights.cache_lookup"):
        out[key + ".self_s"] = (t.self_s[key], "s")
    out["graphs.enumerated"] = (c["graphs.enumerated"], "count")
    out["graphs.untagged"] = (c["graphs.untagged"], "count")
    out["graphs.survivor_ratio"] = (
        _ratio(c["graphs.untagged"], c["graphs.enumerated"]), "ratio")
    out["formality.graph_operator.nonzero_ratio"] = (
        _ratio(c["formality.graph_operator.nonzero"],
               t.calls["formality.graph_operator"]), "ratio")
    out["weights.mc_weight.self_s.pass_a"] = (
        t.group_self_s["weights.mc_weight", "1w"], "s")
    out["weights.mc_weight.self_s.pass_b"] = (
        t.group_self_s["weights.mc_weight", "nw"], "s")
    out["weights.kept_ratio"] = (
        _ratio(c["weights.samples"] - c["weights.discarded"],
               c["weights.samples"]), "ratio")
    out["weights.cache.hits"] = (c["weights.cache.hits"], "count")
    out["weights.cache.misses"] = (c["weights.cache.misses"], "count")
    out["trace.overhead"] = (overhead, "ratio")
    return out
