"""Spans around coarse_lab's layer calls, installed from outside the package.

``instrument`` replaces each public layer function (and ``monoid._saturate``,
the primitive every monoid procedure calls through) by a wrapper that records
one span per call while the tracer is enabled.  A name taken with
``from .x import y`` is a separate binding, so every loaded ``coarse_lab``
module that holds the original is rebound too; otherwise calls such as
``tiling``'s own ``outer_boundary`` would escape their span.  Spans stay in
memory until the benchmark writes them out.  Counters come only from
arguments and returned objects, so they repeat exactly for a given input.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from collections import defaultdict

SPACE_CLASSES = {
    "Line": "IntegerLineSpace",
    "Subset": "IntegerSubsetSpace",
    "Graph": "GraphSpace",
    "Stacked": "StackedSpace",
    "Box": "BoxSpace",
}
SPACE_METHODS = ("ball_of", "boundary_of", "diameter_of")

# (module, attribute, span name); the four tiling constructions share one span
FUNCTIONS = [
    ("space", "outer_boundary", "space.outer_boundary"),
    ("tiling", "tile_interval", "tiling.construct"),
    ("tiling", "tile_sparse_subset", "tiling.construct"),
    ("tiling", "tile_stacked_product", "tiling.construct"),
    ("tiling", "tile_box_space", "tiling.construct"),
    ("tiling", "verify_tiling", "tiling.verify_tiling"),
    ("castle", "castle_from_tiling", "castle.castle_from_tiling"),
    ("castle", "invariance_defect", "castle.invariance_defect"),
    ("castle", "compare", "castle.compare"),
    ("castle", "refine", "castle.refine"),
    ("castle", "validate", "castle.validate"),
    ("amenability", "doubling_check", "amenability.doubling_check"),
    ("amenability", "folner_search", "amenability.folner_search"),
    ("homology", "min_norm_fill", "homology.min_norm_fill"),
    ("monoid", "_saturate", "monoid._saturate"),
    ("monoid", "check_almost_unperforated", "monoid.check_almost_unperforated"),
    ("monoid", "equal", "monoid.equal"),
    ("monoid", "leq", "monoid.leq"),
    ("monoid", "cancellative_equal", "monoid.cancellative_equal"),
    ("monoid", "properly_infinite", "monoid.properly_infinite"),
    ("monoid", "refinement_instance", "monoid.refinement_instance"),
]
# (module, class, method, span name)
METHODS = [
    ("flows", "FlowNetwork", "max_flow", "flows.max_flow"),
    ("flows", "FlowNetwork", "add_edge", "flows.add_edge"),
] + [
    ("space", cls, meth, f"space.{label}.{meth}")
    for label, cls in SPACE_CLASSES.items()
    for meth in SPACE_METHODS
]


def _count_network(counters, args) -> None:
    net = args[0]
    counters["flows.max_flow.nodes"] += len(net.labels)
    counters["flows.max_flow.arcs"] += len(net.to) // 2


def _count_saturate(counters, result) -> None:
    parents, complete, _ = result
    counters["monoid._saturate.states"] += len(parents)
    counters["monoid._saturate.truncated"] += not complete


def _count_folner(counters, result) -> None:
    counters["amenability.folner_search.examined"] += result.examined
    counters["amenability.folner_search.successes"] += bool(result.success)


BEFORE = {"flows.max_flow": _count_network}
AFTER = {"monoid._saturate": _count_saturate, "amenability.folner_search": _count_folner}


class Tracer:
    """In-memory span store; records only while ``enabled`` is set.

    A span is (name id, parent span index or -1, instance, start ns, end ns,
    ok).  Spans of one instance share its instance number.
    """

    def __init__(self):
        self.enabled = False
        self.instance = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        before = BEFORE.get(name)
        after = AFTER.get(name)
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if before is not None:
                before(counters, args)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, parent, self.instance, start, end, ok)
            if after is not None:
                after(counters, result)
            return result

        return traced

    def layer_stats(self) -> dict:
        """Per span name: calls, self seconds (span minus children), errors.

        Also the nested counts the benchmark reports: ``equal`` spans inside
        a ``leq`` span, ``max_flow`` spans inside a ``min_norm_fill`` span,
        and the total duration of top-level spans.
        """
        spans = self.spans
        child = [0] * len(spans)
        for nid, parent, _, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        ids = self._ids
        leq, equal = ids.get("monoid.leq"), ids.get("monoid.equal")
        fill, flow = ids.get("homology.min_norm_fill"), ids.get("flows.max_flow")
        under_leq = [False] * len(spans)
        under_fill = [False] * len(spans)
        calls: dict = defaultdict(int)
        self_ns: dict = defaultdict(int)
        errors: dict = defaultdict(int)
        nested: dict = defaultdict(int)
        top_ns = 0
        for i, (nid, parent, _, start, end, ok) in enumerate(spans):
            name = self.names[nid]
            calls[name] += 1
            self_ns[name] += end - start - child[i]
            errors[name] += not ok
            if parent < 0:
                top_ns += end - start
            else:
                under_leq[i] = under_leq[parent] or spans[parent][0] == leq
                under_fill[i] = under_fill[parent] or spans[parent][0] == fill
            if nid == equal and under_leq[i]:
                nested["monoid.leq.resaturations"] += 1
            if nid == flow and under_fill[i]:
                nested["homology.fill_solves"] += 1
        return {
            "calls": dict(calls),
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "errors": dict(errors),
            "nested": dict(nested),
            "top_level_s": top_ns / 1e9,
        }

    def write(self, path, labels) -> None:
        """Write the spans as gzipped TSV; ``labels`` names each instance."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("instance\tlabel\tspan\tparent\tname\tstart_ns\tend_ns\tok\n")
            for i, (nid, parent, inst, start, end, ok) in enumerate(self.spans):
                out.write(
                    f"{inst}\t{labels[inst]}\t{i}\t{parent}\t{self.names[nid]}\t"
                    f"{start}\t{end}\t{int(ok)}\n"
                )


def _rebind(undo: list, obj, attr: str, value) -> None:
    had = attr in vars(obj)
    undo.append((obj, attr, had, vars(obj).get(attr)))
    setattr(obj, attr, value)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    import coarse_lab.cli  # noqa: F401  (loads every module that may hold a binding)

    modules = [m for n, m in list(sys.modules.items()) if n == "coarse_lab" or n.startswith("coarse_lab.")]
    undo: list = []
    try:
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"coarse_lab.{mod_name}"], cls_name)
            _rebind(undo, cls, meth, tracer.wrap(name, getattr(cls, meth)))
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"coarse_lab.{mod_name}"], attr)
            wrapper = tracer.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        _rebind(undo, mod, key, wrapper)
        yield tracer
    finally:
        for obj, attr, had, value in reversed(undo):
            if had:
                setattr(obj, attr, value)
            else:
                delattr(obj, attr)
