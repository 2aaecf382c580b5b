"""Spans around the public functions of every splicegenus module.

The tracer wraps, from outside the package, each public module-level
function and each public method of a class defined in the module (plus
``GroupData.__init__``, the per-graph group set-up), and rebinds every name
under which another module imported it, so that ``genus.c_v_chi`` and
``molien.c_v_chi`` record the same span.  Spans stay in memory until the
pass ends; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from array import array

LAYERS = ("graph", "exact", "discgroup", "cyclo", "series", "molien", "genus",
          "splice", "oracle", "cli")
_EXTRA = {"discgroup": [("GroupData", "__init__")]}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        # seconds of calibration run inside spans, kept out of every span
        self.paused = 0.0
        # counts the spans alone cannot give, filled by return hooks
        self.counters = {"molien.table_coeffs": 0, "molien.max_degree": 0,
                         "discgroup.h_order_max": 0, "splice.witness_hits": 0}

    def spans(self):
        """(name, parent index or -1, start, end) for every span so far."""
        return [(self.names[n], p, s, e) for n, p, s, e in
                zip(self.name, self.parent, self.start, self.end)]

    def clock(self):
        """perf_counter less the calibration time run inside spans."""
        return time.perf_counter() - self.paused

    def write(self, path):
        """Write the spans as tab-separated text, one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for i, (name, p, s, e) in enumerate(self.spans()):
                fh.write(f"{i}\t{p}\t{name}\t{s:.9f}\t{e:.9f}\n")

    def wrap(self, func, name, hook=None):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = self.clock
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, result, args)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        """Wrap every public function of the splicegenus modules in place."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"splicegenus.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    methods = [m for m, f in vars(obj).items()
                               if isinstance(f, types.FunctionType)
                               and not m.startswith("_")]
                    methods += [m for c, m in _EXTRA.get(layer, ()) if c == attr]
                    for m in methods:
                        name = f"{layer}.{attr}.{m}"
                        setattr(obj, m, self.wrap(vars(obj)[m], name, _HOOKS.get(name)))
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self.wrap(obj, name, _HOOKS.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname == "splicegenus" or modname.startswith("splicegenus."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, attr, replaced[id(obj)])


def _molien_coeffs_hook(counters, result, args):
    counters["molien.table_coeffs"] += sum(len(t) for t in result.values())
    if result:
        degree = max(len(t) for t in result.values()) - 1
        counters["molien.max_degree"] = max(counters["molien.max_degree"], degree)


def _group_data_hook(counters, result, args):
    counters["discgroup.h_order_max"] = max(counters["discgroup.h_order_max"],
                                            args[0].order)


def _witness_hook(counters, result, args):
    counters["splice.witness_hits"] += result is not None


_HOOKS = {
    "molien.molien_coeffs": _molien_coeffs_hook,
    "discgroup.GroupData.__init__": _group_data_hook,
    "splice.validate_witness": _witness_hook,
}


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, (_, p, _, _) in enumerate(spans):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (_, _, s, e) in enumerate(spans):
        covered = 0.0
        reach = s
        for c in sorted(children[i], key=lambda c: spans[c][2]):
            cs, ce = max(spans[c][2], reach), min(spans[c][3], e)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((e - s) - covered)
    return out


def _outermost_time(spans, name):
    """Inclusive time of the spans called ``name`` not nested in another."""
    total = 0.0
    for i, (n, p, s, e) in enumerate(spans):
        if n != name:
            continue
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            total += e - s
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (name, _, _, _), t in zip(spans, self_times(spans)):
        self_s[name.split(".")[0]] += t
    calls = {}
    for name, _, _, _ in spans:
        calls[name] = calls.get(name, 0) + 1

    h1 = "genus.h1_eigensheaf"
    cv = "molien.c_v_chi"
    h1_spans = [i for i, sp in enumerate(spans) if sp[0] == h1]
    with_cv = {p for n, p, _, _ in spans if n == cv and p >= 0 and spans[p][0] == h1}
    depth = {}
    for i in h1_spans:          # parents come before children
        p = spans[i][1]
        while p >= 0 and spans[p][0] != h1:
            p = spans[p][1]
        depth[i] = depth.get(p, 0) + 1
    witness = calls.get("splice.validate_witness", 0)

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "molien.coeffs_calls": calls.get("molien.molien_coeffs", 0),
        "molien.table_coeffs": counters["molien.table_coeffs"],
        "molien.max_degree": counters["molien.max_degree"],
        "molien.cv_calls": calls.get(cv, 0),
        "molien.cv_s": _outermost_time(spans, cv),
        "graph.intersect_calls": calls.get("graph.ResolutionGraph.intersect", 0),
        "graph.intersect_s": _outermost_time(spans, "graph.ResolutionGraph.intersect"),
        "graph.subgraphs": calls.get("graph.ResolutionGraph.subgraph", 0),
        "exact.calls": sum(c for n, c in calls.items() if n.startswith("exact.")),
        "discgroup.fracrep_calls":
            calls.get("discgroup.GroupData.fractional_representative", 0),
        "discgroup.pair_calls": calls.get("discgroup.GroupData.pair", 0),
        "discgroup.groupdata_calls": calls.get("discgroup.GroupData.__init__", 0),
        "discgroup.h_order_max": counters["discgroup.h_order_max"],
        "genus.euler_s": _outermost_time(spans, "genus.euler_char_on_cycle"),
        "genus.h1_calls": len(h1_spans),
        "genus.max_depth": max(depth.values(), default=0),
        "genus.h1_memo_hit_ratio": _ratio(len(h1_spans) - len(with_cv), len(h1_spans)),
        "splice.witness_checks": witness,
        "splice.witness_hit_ratio": _ratio(counters["splice.witness_hits"], witness),
        "splice.equivariance_s": _outermost_time(spans, "splice.verify_equivariance"),
        "oracle.eigendims_calls": calls.get("oracle.bruteforce_eigendims", 0),
        "trace.spans": len(spans),
    })
    return out
