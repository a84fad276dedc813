"""In-memory span tracer for the traced benchmark run.

The tracer patches public functions of ``hypersphere_lab`` at every name
through which a caller looks them up (a function imported into another
module is patched there too), records one span per call -- name, start,
end, parent -- and folds the very frequent scalar calls into counters on
the enclosing span instead of storing each one.

Self time of a span is its duration minus its child spans and the scalar
calls folded into it.  Summed by layer (the part of a span name before the
first dot), self times add up to the root span by construction; a negative
self time shows a call counted twice.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "tag", "start", "end", "agg")

    def __init__(self, sid, parent, name, tag, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.tag = tag
        self.start = start
        self.end = None
        # key -> [calls, seconds, calls that returned True]
        self.agg = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans in memory; written out once, after the run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []

    def open(self, name: str, tag: str | None = None) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, name, tag, perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap_call(self, fn, name: str, tag: str | None = None):
        """One span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    def wrap_counted(self, fn, key: str):
        """Calls, seconds and True results added to the enclosing span."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            agg = stack[-1].agg
            rec = agg.get(key)
            if rec is None:
                rec = agg[key] = [0, 0.0, 0]
            rec[0] += 1
            rec[1] += dt
            if result is True:
                rec[2] += 1
            return result

        return wrapper

    def write(self, path: str):
        origin = self.spans[0].start if self.spans else 0.0
        rows = [[s.id, s.parent, s.name, s.tag, s.start - origin, s.end - origin, s.agg]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "name", "tag", "start_s", "end_s",
                                   "agg[key]=[calls,seconds,true_results]"],
                       "spans": rows}, fh, separators=(",", ":"))


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def install(tracer: Tracer, cli, constructions, counting, geometry, scalars) -> Patches:
    """Patch the layer boundaries the benchmark measures; returns the undo."""
    patches = Patches()
    call = tracer.wrap_call
    counted = tracer.wrap_counted

    cofactors = geometry.maximal_cofactors
    patches.set(cli, "run", call(cli.run, "cli.run"))
    for attr in ("coset_config", "trivial_config"):
        patches.set(constructions, attr,
                    call(getattr(constructions, attr), "constructions.generate"))
    patches.set(constructions, "compare_report",
                call(constructions.compare_report, "constructions.compare_report"))
    for attr in ("residue_oracle", "residue_oracle_scan"):
        patches.set(constructions, attr,
                    call(getattr(constructions, attr), "constructions.oracle"))

    spectrum = call(counting.spectrum, "counting.spectrum")
    patches.set(counting, "spectrum", spectrum)
    patches.set(constructions, "spectrum", spectrum)
    patches.set(counting, "ordinary_hyperplane_spectrum",
                call(counting.ordinary_hyperplane_spectrum, "counting.hyperplane_spectrum"))
    patches.set(counting, "verify_correspondence",
                call(counting.verify_correspondence, "counting.verify_correspondence"))
    # the counting engine calls maximal_cofactors once per candidate subset
    patches.set(counting, "maximal_cofactors",
                call(cofactors, "geometry.maximal_cofactors", tag="subset"))
    patches.set(geometry, "maximal_cofactors", call(cofactors, "geometry.maximal_cofactors"))
    patches.set(counting, "is_zero", counted(counting.is_zero, "scalars.is_zero"))

    lift_set = call(geometry.lift_set, "geometry.lift_set")
    patches.set(geometry, "lift_set", lift_set)
    patches.set(counting, "lift_set", lift_set)
    general_position = call(geometry.general_position_check, "geometry.general_position")
    patches.set(geometry, "general_position_check", general_position)
    patches.set(constructions, "general_position_check", general_position)
    point_set = geometry.PointSet
    patches.set(point_set, "from_json",
                classmethod(call(point_set.__dict__["from_json"].__func__, "geometry.load")))

    cyclo = scalars.CycloElement
    mul = counted(cyclo.__dict__["__mul__"], "scalars.mul")
    add = counted(cyclo.__dict__["__add__"], "scalars.add")
    for attr, fn in (("__mul__", mul), ("__rmul__", mul), ("__add__", add), ("__radd__", add)):
        patches.set(cyclo, attr, fn)
    return patches


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer, root: Span) -> dict:
    """Per-name and per-layer totals over the subtree of ``root``.

    Returns ``{"names": {name: {"calls", "incl_s", "self_s"}},
    "agg": {key: {"calls", "s", "true"}}, "layers": {layer: self_s},
    "tagged": {tag: calls}, "duration_s": root duration,
    "min_self_s": smallest self time of a span}``.
    """
    children = defaultdict(list)
    for span in tracer.spans:
        children[span.parent].append(span)
    names = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "true": 0})
    layers = defaultdict(float)
    tagged = defaultdict(int)
    min_self = float("inf")
    todo = [root]
    while todo:
        span = todo.pop()
        kids = children.get(span.id, ())
        todo.extend(kids)
        folded = 0.0
        for key, (calls, seconds, true) in span.agg.items():
            rec = agg[key]
            rec["calls"] += calls
            rec["s"] += seconds
            rec["true"] += true
            layers[layer_of(key)] += seconds
            folded += seconds
        own = span.duration - sum(k.duration for k in kids) - folded
        rec = names[span.name]
        rec["calls"] += 1
        rec["incl_s"] += span.duration
        rec["self_s"] += own
        min_self = min(min_self, own)
        layers[layer_of(span.name)] += own
        if span.tag:
            tagged[span.tag] += 1
    return {
        "names": dict(names),
        "agg": dict(agg),
        "layers": dict(layers),
        "tagged": dict(tagged),
        "duration_s": root.duration,
        "min_self_s": min_self,
    }
