"""In-memory spans around the calls into each difflab layer.

The tracer wraps public functions at the module attributes their callers
look up (``difflab.cli.fit``, ``difflab.select.h_asic``, ...), so the program
itself is not edited.  Spans are kept in memory as (name, start, end,
parent, run id, attrs) and written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  The attribute is the name the caller
# resolves at call time, so wrapping it there catches every call it makes.
WRAPPED = (
    ("difflab.cli", "load_edge_list", "graph.load"),
    ("difflab.cli", "read_cascades", "cascade.read"),
    ("difflab.cli", "write_cascades", "cascade.write"),
    ("difflab.cli", "generate_training_set", "simulate.train"),
    ("difflab.cli", "fit", "em.fit"),
    ("difflab.cli", "select_model", "select.select_model"),
    ("difflab.cli", "influence_percolation", "influence.percolation"),
    ("difflab.cli", "influence_direct_mc", "influence.direct_mc"),
    ("difflab.cli", "centrality", "centrality"),
    ("difflab.select", "fit", "em.fit"),
    ("difflab.select", "h_asic", "likelihood.h"),
    ("difflab.select", "h_aslt", "likelihood.h"),
)

# The nine layers; params, rng and errors are leaf helpers whose time is
# counted in their callers.
LAYERS = ("cli", "graph", "cascade", "simulate", "em", "likelihood",
          "select", "influence", "centrality")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _call_attrs(bound, result) -> dict:
    """Work counts recorded at the boundary: model, mode, sizes."""
    a = bound.arguments
    attrs = {}
    if "model" in a:
        attrs["model"] = a["model"]
    if "metric" in a:
        attrs["metric"] = a["metric"]
    if "samples" in a:
        attrs["samples"] = int(a["samples"])
    if "g" in a and hasattr(a["g"], "node_count"):
        attrs["nodes"] = a["g"].node_count
    config = a.get("config")
    if config is not None and hasattr(config, "mode"):
        attrs["mode"] = config.mode
    if hasattr(result, "total_active"):
        attrs["active"] = result.total_active
        attrs["cascades"] = len(result)
    return attrs


class Tracer:
    """Records nested spans; ``run`` tags the benchmark pass they belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._saved: list = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sp = Span(name, 0.0, parent=self._stack[-1] if self._stack else None,
                  run=self.run, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
                sp.attrs.update(_call_attrs(signature.bind(*args, **kwargs),
                                            result))
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": sp.name,
                                     "start": sp.start, "end": sp.end,
                                     "parent": sp.parent, "run": sp.run,
                                     "attrs": sp.attrs}) + "\n")


def self_seconds(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    own = [sp.seconds for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.seconds
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
