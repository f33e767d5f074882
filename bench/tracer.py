"""Spans at zenokick's layer boundaries, recorded from outside the program.

``install`` wraps every public function of ``core``, ``engine``, ``oracle``,
``analytics`` and ``cli`` (and ``pathlib.Path.write_text``, which is how the
CLI writes its outputs) in every namespace and default argument that refers
to it.  Each call appends one span: name, start, end and the span that was
open when it began.  Spans stay in flat in-memory arrays until ``save``;
``derive`` turns a saved file into busy time, self time and work counts.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("core", "engine", "oracle", "analytics", "cli")
WRITE = "cli.write"
SURVIVAL_EVAL = "analytics.survival_function.eval"
#: work counts taken from return values at these boundaries
CELLS = "engine.sweep.cells"
SAMPLES = "engine.run_schedule.samples"
OUTPUT_BYTES = "cli.output_bytes"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = dict.fromkeys((CELLS, SAMPLES, OUTPUT_BYTES), 0)
        self._stack = [-1]

    def wrap(self, name: str, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            return result if on_result is None else on_result(result)

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            count_names=np.array(list(self.counts)),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
        )

    def counted(self, count: str):
        """A result hook adding ``len(result)`` to ``count``."""

        def hook(result):
            self.counts[count] += len(result)
            return result

        return hook


def install(tracer: Tracer, package) -> None:
    modules = [getattr(package, layer) for layer in LAYERS]
    namespaces = [package, *modules]
    public = [
        (f"{layer}.{name}", obj)
        for layer, module in zip(LAYERS, modules)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]
    hooks = {
        "analytics.survival_function": lambda p10: tracer.wrap(SURVIVAL_EVAL, p10),
        "engine.sweep": tracer.counted(CELLS),
        "engine.run_schedule": tracer.counted(SAMPLES),
    }
    for span, obj in public:
        wrapped = tracer.wrap(span, obj, hooks.get(span))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is obj:
                    setattr(ns, attr, wrapped)
        # Defaults such as ``kick_op=apply_kick`` were bound at definition time.
        for _, fn in public:
            if fn.__defaults__ and any(d is obj for d in fn.__defaults__):
                fn.__defaults__ = tuple(wrapped if d is obj else d for d in fn.__defaults__)

    write_text = Path.write_text

    def counted_write_text(self, data, *args, **kwargs):
        written = write_text(self, data, *args, **kwargs)
        tracer.counts[OUTPUT_BYTES] += self.stat().st_size
        return written

    Path.write_text = tracer.wrap(WRITE, counted_write_text)


def derive(path: Path) -> dict:
    """Busy time, self time and counts per span name and per layer, from saved spans.

    A span's self time is its duration minus the durations of its direct
    children.  A layer's busy time sums its spans that have no ancestor in
    the same layer, so nested calls inside a layer are not counted twice.
    """
    with np.load(path) as saved:
        names = [str(n) for n in saved["names"]]
        name_id = saved["name_id"]
        parent = saved["parent"]
        duration = (saved["end"] - saved["start"]) * 1e-9
        counts = dict(zip(map(str, saved["count_names"]), map(int, saved["count_values"])))
    n = len(duration)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
    self_time = duration - children

    layer_of_name = np.array([LAYERS.index(s.split(".")[0]) for s in names] or [0])
    layer = layer_of_name[name_id] if n else np.zeros(0, dtype=int)
    nested = np.zeros(n, dtype=bool)
    ancestor = parent.copy()
    while np.any(ancestor >= 0):
        live = ancestor >= 0
        nested[live] |= layer[ancestor[live]] == layer[live]
        ancestor[live] = parent[ancestor[live]]

    width = len(names)
    calls = np.bincount(name_id, minlength=width)
    busy = np.bincount(name_id, weights=duration, minlength=width)
    own = np.bincount(name_id, weights=self_time, minlength=width)
    by_name = {
        name: (int(calls[i]), float(busy[i]), float(own[i])) for i, name in enumerate(names)
    }
    stats = {"counts": counts, "spans": by_name, "layers": {}}
    for k, name in enumerate(LAYERS):
        in_layer = layer == k
        stats["layers"][name] = (
            float(duration[in_layer & ~nested].sum()),
            float(self_time[in_layer].sum()),
        )
    # Calls of each span name, split by the layer of the span that made them.
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], len(LAYERS))
    per_caller = np.bincount(
        name_id * (len(LAYERS) + 1) + parent_layer, minlength=len(names) * (len(LAYERS) + 1)
    ).reshape(len(names), len(LAYERS) + 1)
    stats["calls_from"] = {
        (name, caller): int(per_caller[i, k])
        for i, name in enumerate(names)
        for k, caller in enumerate(LAYERS)
    }
    return stats
