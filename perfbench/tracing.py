"""Spans around calls into graphck's layers, installed from outside the package.

`install` replaces each target function or method with a wrapper that opens a
span, calls the original and closes the span; module-level functions are
replaced under every name any graphck module bound them to, so nested calls
(classify -> enumerate_hereditary_saturated) become child spans.  Spans live
in flat arrays in memory; self time is computed once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _digits(result) -> int:
    top = max((abs(x) for m in (result.u, result.v) for row in m for x in row), default=0)
    return len(str(top))


def _exact_cols(args, result) -> int:
    """Basis paths inside the exact region the comparison walks."""
    rep, a, b = args[:3]
    limit = rep.cutoff - max(a.creations, b.creations)
    return sum(1 for p in rep.basis if len(p) <= limit)


# (metric prefix, module, attribute, counters computed from (args, result)).
# A counter whose name starts with "max_" keeps its maximum, others their sum.
# Every target reports self_s; the call count only where it is a work count
# an optimisation should move (REPORT_CALLS).
TARGETS = (
    ("graphs.DirectedGraph.init", "graphck.graphs", "DirectedGraph.__init__",
     {"vertices": lambda a, r: len(a[0].vertices)}),
    ("graphs.cycle_vertices", "graphck.graphs", "cycle_vertices", {}),
    ("graphs.satisfies_condition_K", "graphck.graphs", "satisfies_condition_K", {}),
    ("graphs.every_vertex_connects_to_cycle", "graphck.graphs",
     "every_vertex_connects_to_cycle", {}),
    ("graphs.enumerate_hereditary_saturated", "graphck.graphs",
     "enumerate_hereditary_saturated", {"sets": lambda a, r: len(r)}),
    ("graphs.quotient_graph", "graphck.graphs", "quotient_graph", {}),
    ("graphs.restriction_graph", "graphck.graphs", "restriction_graph", {}),
    ("graphs.paths", "graphck.graphs", "paths", {"paths": lambda a, r: len(r)}),
    ("graphs.paths_from", "graphck.graphs", "paths_from", {}),
    ("dsl.parse_graph", "graphck.dsl", "parse_graph",
     {"bytes": lambda a, r: len(a[0].encode("utf-8"))}),
    ("dsl.emit_graph", "graphck.dsl", "emit_graph", {"bytes": lambda a, r: len(r.encode("utf-8"))}),
    ("cli.main", "graphck.cli", "main", {}),
    ("construct.blowup_graph", "graphck.construct", "blowup_graph",
     {"vertices": lambda a, r: len(r.graph.vertices), "edges": lambda a, r: len(r.graph.edges)}),
    ("construct.embed_path", "graphck.construct", "embed_path", {}),
    ("symbolic.normal_form", "graphck.symbolic", "normal_form",
     {"terms_in": lambda a, r: len(a[0].terms), "terms_out": lambda a, r: len(r.terms)}),
    ("symbolic.FormalSum.mul", "graphck.symbolic", "FormalSum.__mul__",
     {"term_pairs": lambda a, r: len(a[0].terms) * len(a[1].terms)}),
    ("symbolic.verify_tck_family", "graphck.symbolic", "verify_tck_family", {}),
    ("symbolic.iota_image", "graphck.symbolic", "iota_image", {}),
    ("symbolic.jm_image", "graphck.symbolic", "jm_image", {}),
    ("symbolic.gabe_approximate_identity", "graphck.symbolic", "gabe_approximate_identity", {}),
    ("rep.build_rep", "graphck.rep", "build_rep", {"dim": lambda a, r: r.dimension}),
    ("rep.t_path", "graphck.rep", "TruncatedRep.t_path", {}),
    ("rep.word_operator", "graphck.rep", "TruncatedRep.word_operator", {}),
    ("rep.path_projection", "graphck.rep", "path_projection", {}),
    ("rep.matrix_unit", "graphck.rep", "matrix_unit", {}),
    ("rep.window_projection", "graphck.rep", "window_projection", {}),
    ("rep.equal_on_exact_region", "graphck.rep", "TruncatedRep.equal_on_exact_region",
     {"exact_cols": _exact_cols}),
    ("rep.evaluate", "graphck.rep", "TruncatedRep.evaluate", {}),
    ("rep.band_compression", "graphck.rep", "band_compression", {}),
    ("rep.shifted_band_compression", "graphck.rep", "shifted_band_compression", {}),
    ("rep.compression_route", "graphck.rep", "compression_route", {}),
    ("rep.approximation_gap", "graphck.rep", "approximation_gap", {}),
    ("sparse.RatMatrix.mul", "graphck.sparse", "RatMatrix.__mul__",
     {"nnz_out": lambda a, r: r.nnz()}),
    ("sparse.RatMatrix.add", "graphck.sparse", "RatMatrix.__add__", {}),
    ("sparse.RatMatrix.equal_on_columns", "graphck.sparse", "RatMatrix.equal_on_columns", {}),
    ("ktheory.smith_normal_form", "graphck.ktheory", "smith_normal_form",
     {"n": lambda a, r: len(a[0]), "max_digits": lambda a, r: _digits(r)}),
    ("ktheory.SmithDecomposition.verify", "graphck.ktheory", "SmithDecomposition.verify", {}),
    ("ktheory.verify_multiplication_by_m", "graphck.ktheory", "verify_multiplication_by_m", {}),
    ("ktheory.MultiplicationCertificate.reverify", "graphck.ktheory",
     "MultiplicationCertificate.reverify", {}),
    ("ktheory.verify_on_subquotients", "graphck.ktheory", "verify_on_subquotients",
     {"pieces": lambda a, r: len(r.entries)}),
    ("classify.classify", "graphck.classify", "classify", {}),
    ("classify.ideal_report", "graphck.classify", "ideal_report", {}),
    ("classify.purely_infinite", "graphck.classify", "purely_infinite", {}),
)

REPORT_CALLS = frozenset({
    "graphs.DirectedGraph.init", "graphs.cycle_vertices", "graphs.enumerate_hereditary_saturated",
    "dsl.parse_graph", "cli.main", "construct.blowup_graph", "construct.embed_path",
    "symbolic.normal_form", "symbolic.FormalSum.mul", "rep.build_rep", "rep.path_projection",
    "rep.matrix_unit", "rep.equal_on_exact_region", "sparse.RatMatrix.mul",
    "sparse.RatMatrix.add", "sparse.RatMatrix.equal_on_columns", "ktheory.smith_normal_form",
    "classify.classify"})

ITEM = "item"


class Tracer:
    """Spans as parallel arrays: name id, start, end, parent index, item id."""

    def __init__(self):
        self.names: list[str] = [ITEM]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack: list[int] = []
        self.item_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.wrappers: dict[str, object] = {}

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def count(self, key: str, value: float) -> None:
        if key.rsplit(".", 1)[1].startswith("max_"):
            self.counters[key] = max(self.counters[key], value)
        else:
            self.counters[key] += value

    def self_times(self) -> array:
        """Span duration minus the union of its children's intervals (clipped
        to the span).  Children are recorded in start order, so one sweep
        with a running right edge per parent measures the union."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        edge = array("d", self.start)  # right edge of the union so far, per span
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            lo = max(self.start[i], edge[p])
            hi = min(self.end[i], self.end[p])
            if hi > lo:
                covered[p] += hi - lo
                edge[p] = hi
        return array("d", (self.end[i] - self.start[i] - covered[i] for i in range(n)))

    def write(self, path) -> None:
        """Spans as JSON columns: names, then one list per field."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist(), "item": self.item.tolist()}, fh)


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _wrapper(tracer: Tracer, prefix: str, fn, counters: dict):
    nid = tracer.name_id(prefix)
    keys = [(f"{prefix}.{k}", f) for k, f in counters.items()]
    calls = f"{prefix}.calls"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(i)
        # counted after the span closed, so the layer's own time stays clean
        tracer.counters[calls] += 1
        for key, f in keys:
            tracer.count(key, f(args, result))
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals.
    Wrappers are built once per tracer and reused on later installs."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "graphck" or name.startswith("graphck."))]
    undo = []
    for prefix, module, attr, counters in TARGETS:
        owner, leaf = _resolve(module, attr)
        original = vars(owner)[leaf]
        if prefix not in tracer.wrappers:
            tracer.wrappers[prefix] = _wrapper(tracer, prefix, original, counters)
        wrapped = tracer.wrappers[prefix]
        if isinstance(owner, type):
            sites = [owner]
        else:
            sites = [m for m in modules if any(v is original for v in vars(m).values())]
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    setattr(site, name, wrapped)
                    undo.append((site, name, original))

    def restore():
        for site, name, value in reversed(undo):
            setattr(site, name, value)

    return restore


def layer_metrics(tracer: Tracer, items: int, self_s) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per item of the traced run (maxima as is)."""
    busy: dict[str, float] = defaultdict(float)
    for nid, s in zip(tracer.name, self_s):
        busy[tracer.names[nid]] += s
    out = {}
    for prefix, _, _, counters in TARGETS:
        if prefix in REPORT_CALLS:
            out[f"{prefix}.calls"] = (tracer.counters[f"{prefix}.calls"] / items, "count/item")
        out[f"{prefix}.self_s"] = (busy[prefix] / items, "s/item")
        for k in counters:
            key = f"{prefix}.{k}"
            if k.startswith("max_"):
                out[key] = (tracer.counters[key], "digits")
            else:
                out[key] = (tracer.counters[key] / items, "count/item")
    return out


def self_time_report(tracer: Tracer, self_s, top: int = 12) -> tuple[list[str], float]:
    """Lines naming the spans with the most self time and their share of item
    time, plus the worst per-item gap between summed self times and the
    item span's duration (zero up to rounding when spans nest)."""
    item_time = 0.0
    per_item: dict[int, float] = defaultdict(float)
    busy: dict[str, float] = defaultdict(float)
    for i, (nid, s) in enumerate(zip(tracer.name, self_s)):
        busy[tracer.names[nid]] += s
        per_item[tracer.item[i]] += s
        if nid == 0:
            item_time += tracer.end[i] - tracer.start[i]
    gap = 0.0
    for i, nid in enumerate(tracer.name):
        if nid == 0:
            gap = max(gap, abs(per_item[tracer.item[i]] - (tracer.end[i] - tracer.start[i])))
    lines = [f"{'span':44s} {'self_s':>10s} {'share':>7s}"]
    for name, s in sorted(busy.items(), key=lambda kv: -kv[1])[:top]:
        share = s / item_time if item_time else 0.0
        lines.append(f"{name:44s} {s:10.4f} {share:7.1%}")
    return lines, gap
