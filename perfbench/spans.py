"""Span tracing of circlelab's layers from outside the library.

``Tracer.install`` replaces the traced functions with recording wrappers
everywhere they are looked up: module globals (including names that other
modules bound with ``from .x import y``) and class attributes (including
aliases such as ``__and__ = intersection`` and classmethods).
``uninstall`` puts the originals back, so untraced passes run the library
unchanged.

Spans are kept in ``array`` columns, which the garbage collector does not
scan, and are aggregated into per-layer self times and counts at the end.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import csv
import gc
import statistics
import sys
import time
from array import array
from collections import Counter

# (module, attribute path, layer group); a group of None records the span
# (for parent links and counts) without charging its self time to a layer.
TARGETS = [
    ("circlelab.approx", "parse_delta", "cli.parse"),
    ("circlelab.numtheory", "parse_predicate", "cli.parse"),
    ("circlelab.arcs", "ArcSet.from_json", "cli.parse"),
    ("circlelab.arcs", "ArcSet.from_json_dict", "cli.parse"),
    ("circlelab.experiments", "ExperimentReport.to_json", "cli.render"),
    ("circlelab.experiments", "ExperimentReport.to_csv", "cli.render"),
    ("circlelab.experiments", "ExperimentReport.to_json_dict", "cli.render"),
    ("circlelab.arcs", "ArcSet.to_json_dict", "cli.render"),
    ("circlelab.experiments", "gallagher_experiment", "experiments.self"),
    ("circlelab.experiments", "cassels_experiment", "experiments.self"),
    ("circlelab.experiments", "duffin_schaeffer_classify", "experiments.self"),
    ("circlelab.experiments", "membership_witnesses", "experiments.self"),
    ("circlelab.approx", "tail_union", "approx.tail_union"),
    ("circlelab.approx", "approx_order_set", "approx.thicken"),
    ("circlelab.approx", "finite_order_points", "approx.thicken"),
    ("circlelab.arcs", "thicken", "approx.thicken"),
    ("circlelab.arcs", "_canonical", "arcs.canonical"),
    ("circlelab.arcs", "union_all", None),
    ("circlelab.arcs", "ArcSet.complement", "arcs.boolean"),
    ("circlelab.arcs", "ArcSet.union", "arcs.boolean"),
    ("circlelab.arcs", "ArcSet.intersection", "arcs.boolean"),
    ("circlelab.arcs", "ArcSet.difference", "arcs.boolean"),
    ("circlelab.arcs", "ArcSet.symm_diff_measure", "arcs.boolean"),
    ("circlelab.arcs", "ArcSet.issubset", "arcs.boolean"),
    ("circlelab.arcs", "ArcSet.__ge__", "arcs.boolean"),
    ("circlelab.arcs", "ArcSet.__contains__", "arcs.contains"),
    ("circlelab.arcs", "ArcSet.translate", "arcs.map"),
    ("circlelab.arcs", "ArcSet.mul_image", "arcs.map"),
    ("circlelab.density", "density_profile", "density.ratio"),
    ("circlelab.density", "density_ratio", "density.ratio"),
    ("circlelab.density", "ball", "density.ratio"),
    ("circlelab.circle", "CirclePoint.dist_to_order", "circle.dist_to_order"),
    ("circlelab.numtheory", "totient_range", "numtheory.totient_range"),
    ("circlelab.ergodic", "AffineCircleMap.preimage", "ergodic.preimage"),
    ("circlelab.ergodic", "invariant_set_search", "ergodic.search"),
    ("circlelab.ergodic", "grid_cells", "ergodic.search"),
]

# per-layer metrics: (name, unit); every traced run reports all of them
PER_LAYER = [
    ("cli.parse_s", "s/op"),
    ("cli.render_s", "s/op"),
    ("experiments.self_s", "s/op"),
    ("approx.tail_union_s", "s/op"),
    ("approx.thicken_s", "s/op"),
    ("approx.terms", "count/op"),
    ("approx.raw_arcs", "count/op"),
    ("approx.canonical_per_union", "count"),
    ("arcs.canonical_s", "s/op"),
    ("arcs.canonical_calls", "count/op"),
    ("arcs.segments_in", "count/op"),
    ("arcs.segments_out", "count/op"),
    ("arcs.merge_ratio", "ratio"),
    ("arcs.boolean_s", "s/op"),
    ("arcs.boolean_calls", "count/op"),
    ("arcs.contains_s", "s/op"),
    ("arcs.contains_calls", "count/op"),
    ("arcs.map_s", "s/op"),
    ("density.ratio_s", "s/op"),
    ("density.ratio_calls", "count/op"),
    ("circle.dist_to_order_s", "s/op"),
    ("circle.dist_to_order_calls", "count/op"),
    ("numtheory.totient_range_s", "s/op"),
    ("numtheory.sieve_entries", "count/op"),
    ("ergodic.preimage_s", "s/op"),
    ("ergodic.preimage_calls", "count/op"),
    ("ergodic.search_s", "s/op"),
    ("ergodic.sets_found", "count/op"),
    ("runtime.gc_s", "s/op"),
    ("runtime.gc_collections", "count/op"),
    ("trace.overhead_pct", "%"),
]

OP = "op"


def _size_in(name, args):
    if name == "_canonical":
        return len(args[0])
    if name == "totient_range":
        return args[0] + 1
    return 0


def _size_out(name, result):
    if name in ("_canonical", "invariant_set_search"):
        return len(result)
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.group_of: dict[int, str | None] = {0: None}
        self.name_id = array("l")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.size_in = array("q")
        self.size_out = array("q")
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, nid: int, size_in: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.size_in.append(size_in)
        self.size_out.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float, size_out: int) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1
        self.size_out[idx] = size_out

    def run_op(self, op_index: int, call):
        """Run one benchmark operation inside a root span."""
        self._op = op_index
        idx = self._open(0, 0)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            self._close(idx, t0, time.perf_counter(), 0)

    def _wrap(self, func, short: str, group: str | None):
        nid = len(self.names)
        self.names.append(short)
        self.group_of[nid] = group
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = tracer._open(nid, _size_in(short, args))
            t0 = perf()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer._close(idx, t0, perf(), 0 if result is None else _size_out(short, result))
        return traced

    # -- installation ------------------------------------------------------------

    def _plan(self) -> None:
        mods = [m for k, m in list(sys.modules.items()) if k == "circlelab" or k.startswith("circlelab.")]
        for modname, path, group in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            traced = self._wrap(func, attr, group)
            if cls_path:
                new = classmethod(traced) if isinstance(raw, classmethod) else traced
                for key, val in list(owner.__dict__.items()):
                    if val is raw:
                        self._patches.append((owner, key, val, new))
            else:
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is func:
                            self._patches.append((mod, key, val, traced))

    def install(self) -> None:
        if not self._patches:
            self._plan()
        for owner, key, _, new in self._patches:
            setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old, _ in reversed(self._patches):
            setattr(owner, key, old)

    # -- aggregation -----------------------------------------------------------------

    def per_layer(self, ops_per_pass: int) -> dict[str, float]:
        """Per-operation self times (median over traced passes) and counts.

        Root spans carry the operation's running number, so a span's pass
        is its operation number divided by the operations per pass.
        """
        n = len(self.name_id)
        names, group_of = self.names, self.group_of
        nid, parent = self.name_id, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_time = list(dur)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                self_time[p] -= dur[i]
        by_pass: dict[int, Counter] = {}
        calls: Counter = Counter()
        for i in range(n):
            by_pass.setdefault(self.op_id[i] // ops_per_pass, Counter())[group_of[nid[i]]] += self_time[i]
            calls[names[nid[i]]] += 1
        passes = max(len(by_pass), 1)
        ops = passes * ops_per_pass

        def per_op_s(group):
            return statistics.median(c[group] for c in by_pass.values()) / ops_per_pass if by_pass else 0.0

        def name_at(i):
            return names[nid[i]] if i >= 0 else None

        def has_ancestor(i, target):
            p = parent[i]
            while p >= 0:
                if names[nid[p]] == target:
                    return True
                p = parent[p]
            return False

        canon = [i for i in range(n) if names[nid[i]] == "_canonical"]
        seg_in = sum(self.size_in[i] for i in canon)
        seg_out = sum(self.size_out[i] for i in canon)
        at_union = [i for i in canon if name_at(parent[i]) == "union_all"]
        union_in = sum(self.size_in[i] for i in at_union)
        union_out = sum(self.size_out[i] for i in at_union)
        in_tail = sum(1 for i in canon if has_ancestor(i, "tail_union"))
        raw_arcs = sum(self.size_in[i] for i in canon if name_at(parent[i]) == "thicken")
        # every library span has a parent: at least the operation's root span
        boolean_outer = sum(
            1 for i in range(n) if group_of[nid[i]] == "arcs.boolean" and group_of[nid[parent[i]]] != "arcs.boolean"
        )
        terms = sum(1 for i in range(n) if names[nid[i]] == "approx_order_set" and has_ancestor(i, "tail_union"))
        sieve = sum(self.size_in[i] for i in range(n) if names[nid[i]] == "totient_range")
        found = sum(self.size_out[i] for i in range(n) if names[nid[i]] == "invariant_set_search")
        return {
            "cli.parse_s": per_op_s("cli.parse"),
            "cli.render_s": per_op_s("cli.render"),
            "experiments.self_s": per_op_s("experiments.self"),
            "approx.tail_union_s": per_op_s("approx.tail_union"),
            "approx.thicken_s": per_op_s("approx.thicken"),
            "approx.terms": terms / ops,
            "approx.raw_arcs": raw_arcs / ops,
            "approx.canonical_per_union": in_tail / calls["tail_union"] if calls["tail_union"] else 0.0,
            "arcs.canonical_s": per_op_s("arcs.canonical"),
            "arcs.canonical_calls": len(canon) / ops,
            "arcs.segments_in": seg_in / ops,
            "arcs.segments_out": seg_out / ops,
            "arcs.merge_ratio": union_out / union_in if union_in else 0.0,
            "arcs.boolean_s": per_op_s("arcs.boolean"),
            "arcs.boolean_calls": boolean_outer / ops,
            "arcs.contains_s": per_op_s("arcs.contains"),
            "arcs.contains_calls": calls["__contains__"] / ops,
            "arcs.map_s": per_op_s("arcs.map"),
            "density.ratio_s": per_op_s("density.ratio"),
            "density.ratio_calls": calls["density_ratio"] / ops,
            "circle.dist_to_order_s": per_op_s("circle.dist_to_order"),
            "circle.dist_to_order_calls": calls["dist_to_order"] / ops,
            "numtheory.totient_range_s": per_op_s("numtheory.totient_range"),
            "numtheory.sieve_entries": sieve / ops,
            "ergodic.preimage_s": per_op_s("ergodic.preimage"),
            "ergodic.preimage_calls": calls["preimage"] / ops,
            "ergodic.search_s": per_op_s("ergodic.search"),
            "ergodic.sets_found": found / ops,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "parent", "op", "name", "start_s", "end_s", "size_in", "size_out"])
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name_id)):
                w.writerow([i, self.parent[i], self.op_id[i], self.names[self.name_id[i]],
                            f"{self.start[i] - t0:.9f}", f"{self.end[i] - t0:.9f}",
                            self.size_in[i], self.size_out[i]])


class GcMeter:
    """Collector pauses in this process, from ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._t0 = 0.0
        self.active = False

    def __call__(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
