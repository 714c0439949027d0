"""Spans and counts around the calls into each cantorlab module, recorded
from outside the package.

``install`` replaces each function named in ``SPANS`` with a wrapper in every
``cantorlab`` module that holds it (so calls inside the module are seen too),
and each method named there on its class.  A span is ``[name, start, end,
parent, outermost]``; spans stay in memory and are reduced once, by
``summary``, when the sample ends.  A module's self time is the time of its
spans minus the part their direct child spans cover, so helpers that are not
wrapped count toward the module that called them.
"""

import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute) -> span name.  A dotted attribute is a method.  Leaf
# helpers called millions of times (word codes, succ/pred, point_eval) are
# left out: wrapping them would cost more than the work they do.
SPANS = {
    ("approximation", "init"): "approximation.init",
    ("approximation", "anchor_index"): "approximation.anchor_index",
    ("approximation", "step"): "approximation.step",
    ("approximation", "run"): "approximation.run",
    ("approximation", "detect_L_n"): "approximation.detect_L_n",
    ("approximation", "check_lemma_53_54"): "approximation.check_lemma_53_54",
    ("approximation", "check_lemma_57"): "approximation.check_lemma_57",
    ("approximation", "check_lemma_58"): "approximation.check_lemma_58",
    ("approximation", "is_maximal_antichain"): "approximation.is_maximal_antichain",
    ("approximation", "state_json"): "approximation.state_json",
    ("approximation", "state_dot"): "approximation.state_dot",
    ("cylinders", "SymbolicClopen.__init__"): "cylinders.clopen_new",
    ("cylinders", "SymbolicClopen.intersect"): "cylinders.intersect",
    ("cylinders", "SymbolicClopen.subset"): "cylinders.subset",
    ("cylinders", "SymbolicClopen.with_atoms"): "cylinders.with_atoms",
    ("cylinders", "SymbolicClopen.minus"): "cylinders.minus",
    ("cylinders", "SymbolicClopen.contains"): "cylinders.contains",
    ("cylinders", "SymbolicClopen.witness_point"): "cylinders.witness_point",
    ("cylinders", "cylinder"): "cylinders.cylinder",
    ("maps", "domain_D"): "maps.domain_D",
    ("maps", "point_in_domain"): "maps.point_in_domain",
    ("maps", "domain_point"): "maps.domain_point",
    ("maps", "g_eval_coord"): "maps.g_eval_coord",
    ("maps", "g_point"): "maps.g_point",
    ("maps", "g_compose_eval"): "maps.g_compose_eval",
    ("maps", "check_condition_d"): "maps.check_condition_d",
    ("maps", "image_clopen"): "maps.image_clopen",
    ("maps", "preimage_clopen"): "maps.preimage_clopen",
    ("maps", "graph_meets"): "maps.graph_meets",
    ("maps", "is_G0_edge"): "maps.is_G0_edge",
    ("orientedgraphs", "components"): "orientedgraphs.components",
    ("orientedgraphs", "validate_uogas"): "orientedgraphs.validate_uogas",
    ("orientedgraphs", "lemma42_suite"): "orientedgraphs.lemma42_suite",
    ("orientedgraphs", "duplicate"): "orientedgraphs.duplicate",
    ("orientedgraphs", "to_dot"): "orientedgraphs.to_dot",
    ("embedding", "in_E"): "embedding.in_E",
    ("embedding", "in_U"): "embedding.in_U",
    ("embedding", "refine_45"): "embedding.refine_45",
    ("embedding", "refine_46"): "embedding.refine_46",
    ("embedding", "shrink_47"): "embedding.shrink_47",
    ("embedding", "lemma25_check"): "embedding.lemma25_check",
    ("embedding", "lemma26_find"): "embedding.lemma26_find",
    ("embedding", "build_scheme"): "embedding.build_scheme",
    ("embedding", "h_eval"): "embedding.h_eval",
    ("embedding", "check_scheme_conditions"): "embedding.check_scheme_conditions",
    ("embedding", "scheme_state_json"): "embedding.scheme_state_json",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = Counter()
        # Counts that are not spans: constructions too cheap and frequent
        # to time, and properties of arguments and results.
        self.counts = Counter()

    def wrap(self, name, fn, observe=None):
        spans, stack, is_open, clock = self.spans, self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, not is_open[name]]
            stack.append(len(spans))
            spans.append(rec)
            is_open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                is_open[name] -= 1
                stack.pop()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def count_calls(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Calls and inclusive busy time per span name, self time per module,
        and a copy of the counts, all as of now."""
        calls, busy, self_s = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, outermost) in enumerate(self.spans):
            calls[name] += 1
            if outermost:
                busy[name] += end - start
            self_s[name.split(".", 1)[0]] += end - start - child[i]
        return {"calls": calls, "busy": busy, "self": self_s, "counts": Counter(self.counts)}


def _count_vertices(counts, args, kwargs, report):
    counts["orientedgraphs.validate_uogas.vertices"] += len(args[0].vertices)
    counts["orientedgraphs.validate_uogas.ok"] += bool(report.ok)


def _count_nonempty(counts, args, kwargs, result):
    counts["cylinders.intersect.nonempty"] += not result.is_empty()


def _count_requested(counts, args, kwargs, result):
    depth = args[1] if len(args) > 1 else kwargs["depth"]
    counts["approximation.run.requested"] += depth


OBSERVERS = {
    "orientedgraphs.validate_uogas": _count_vertices,
    "cylinders.intersect": _count_nonempty,
    "approximation.run": _count_requested,
}


def install(tracer: Tracer) -> None:
    """Wrap every target in ``SPANS`` and count ``BinWord`` constructions."""
    package = [m for n, m in sys.modules.items() if n == "cantorlab" or n.startswith("cantorlab.")]
    for (module, attr), name in SPANS.items():
        home = importlib.import_module("cantorlab." + module)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), OBSERVERS.get(name)))
            continue
        fn = getattr(home, attr)
        wrapped = tracer.wrap(name, fn, OBSERVERS.get(name))
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
    words = importlib.import_module("cantorlab.sequences").BinWord
    words.__init__ = tracer.count_calls("sequences.binword_new", words.__init__)
