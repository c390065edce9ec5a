"""Outside-in layer trace: wraps polycensus functions without editing them.

Each wrapped call records one span (layer, parent span, query id, start,
end) in flat arrays; nothing is written until ``finish``.  Wrappers are
rebound in every polycensus module namespace that holds the original,
so calls between modules go through them as well.  A layer's self time
is its spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# (module, function) pairs traced, in report order
LAYERS = (
    ("connectivity", "is_3_connected"),
    ("isomorphism", "canonical_labeling"),
    ("isomorphism", "canonical_form"),
    ("graphs", "Graph"),
    ("planarity", "is_planar"),
    ("planarity", "embed"),
    ("duality", "dual"),
    ("duality", "is_polyhedral"),
    ("graph6", "decode"),
    ("graph6", "encode"),
    ("enumeration", "enumerate_polyhedra"),
    ("enumeration", "triangulations"),
    ("catalog", "build_catalog"),
    ("catalog", "order_census"),
    ("classify", "solve_question"),
    ("classify", "validate_report"),
    ("cli", "main"),
)
# layers whose result is recorded: True/False, or the number of classes
TAGGED = {"connectivity.is_3_connected", "planarity.is_planar", "enumeration.enumerate_polyhedra"}


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.qid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("i")
        self.stack = [-1]
        self.query = 0  # set by the caller before each query
        self.cache0 = None

    def _wrap(self, label: str, fn):
        nid = len(self.labels)
        self.labels.append(label)
        layer, parent, qid = self.layer, self.parent, self.qid
        start, end, tag, stack = self.start, self.end, self.tag, self.stack
        tagged = label in TAGGED

        def traced(*args, **kwargs):
            i = len(start)
            layer.append(nid)
            parent.append(stack[-1])
            qid.append(self.query)
            tag.append(-1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if tagged:
                    tag[i] = len(result) if type(result) is tuple else int(result)
                return result
            finally:
                end[i] = perf_counter()
                stack.pop()

        functools.update_wrapper(traced, fn)
        for name in ("cache_info", "cache_clear"):
            if hasattr(fn, name):
                setattr(traced, name, getattr(fn, name))
        return traced

    def install(self) -> None:
        """Wrap every layer; polycensus and polycensus.cli must be imported."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "polycensus" or name.startswith("polycensus.")]
        for mod_name, fn_name in LAYERS:
            mod = sys.modules[f"polycensus.{mod_name}"]
            label = f"{mod_name}.{fn_name}"
            if fn_name == "Graph":
                cls = mod.Graph
                cls.__post_init__ = self._wrap(label, cls.__post_init__)
                continue
            orig = getattr(mod, fn_name)
            traced = self._wrap(label, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, traced)
        self.cache0 = sys.modules["polycensus.isomorphism"].canonical_labeling.cache_info()

    def finish(self, wall: float, spans_path: str | None) -> dict[str, float]:
        """Per-layer metrics for a traced job of ``wall`` seconds."""
        info = sys.modules["polycensus.isomorphism"].canonical_labeling.cache_info()
        if spans_path:
            self._write(spans_path)
        n = len(self.start)
        labels = self.labels
        lid = {label: k for k, label in enumerate(labels)}
        calls = [0] * len(labels)
        self_time = [0.0] * len(labels)
        longest = [0.0] * len(labels)
        trues = [0] * len(labels)
        child = [0.0] * n
        under_dual = bytearray(n)
        under_enum = bytearray(n)
        under_poly = bytearray(n)
        dual, enum_poly = lid["duality.dual"], lid["enumeration.enumerate_polyhedra"]
        enums = {enum_poly, lid["enumeration.triangulations"]}
        for i in range(n):  # parents start before their children
            p = self.parent[i]
            if p >= 0:
                pl = self.layer[p]
                under_dual[i] = pl == dual or under_dual[p]
                under_enum[i] = pl in enums or under_enum[p]
                under_poly[i] = pl == enum_poly or under_poly[p]
        for i in range(n):
            d = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += d
        embeds_in_dual = forms_in_enum = classes = 0
        planar_ids = {lid["planarity.is_planar"], lid["planarity.embed"]}
        form = lid["isomorphism.canonical_form"]
        for i in range(n):
            k = self.layer[i]
            d = self.end[i] - self.start[i]
            calls[k] += 1
            self_time[k] += d - child[i]
            longest[k] = max(longest[k], d)
            if self.tag[i] == 1:
                trues[k] += 1
            if k in planar_ids and under_dual[i]:
                embeds_in_dual += 1
            if k == form and under_enum[i]:
                forms_in_enum += 1
            if k == enum_poly and not under_poly[i]:
                classes += self.tag[i]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for k, label in enumerate(labels):
            out[f"{label}.calls"] = calls[k]
            out[f"{label}.self_frac"] = ratio(self_time[k], wall)
        for label in ("connectivity.is_3_connected", "planarity.is_planar"):
            out[f"{label}.true_ratio"] = ratio(trues[lid[label]], calls[lid[label]])
        hits = info.hits - self.cache0.hits
        misses = info.misses - self.cache0.misses
        out["isomorphism.canonical_labeling.hit_ratio"] = ratio(hits, hits + misses)
        out["isomorphism.canonical_labeling.max_s"] = longest[lid["isomorphism.canonical_labeling"]]
        out["planarity.embeds_per_dual"] = ratio(embeds_in_dual, calls[dual])
        out["enumeration.new_class_ratio"] = ratio(classes, forms_in_enum)
        out["trace.wall_s"] = wall
        out["trace.other_frac"] = ratio(wall - sum(self_time), wall)
        out["trace.self_s"] = {label: self_time[k] for k, label in enumerate(labels)}
        return out

    def _write(self, path: str) -> None:
        doc = {
            "layers": self.labels,
            "columns": ["layer", "parent", "query", "start", "end"],
            "layer": self.layer.tolist(),
            "parent": self.parent.tolist(),
            "query": self.qid.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
