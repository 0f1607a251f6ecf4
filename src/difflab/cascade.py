"""Cascade records: observed diffusion results over a directed graph.

A cascade is a time-ordered list of (node, activation time) pairs plus an
observation horizon.  The horizon is the end of the observation window and
may exceed the last activation.  Activation times are non-decreasing in the
stored order; ties can only occur for simultaneously seeded nodes, and every
"active before t" computation uses a strict time comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import index

from ._files import write_text
from .errors import CascadeError


_NOT_NUMBERS = (str, bytes, bool)


def _event(e):
    """``e`` as an (int node, float time) pair.  Node ids must be integers
    and times numbers: text and booleans, which ``int`` and ``float`` would
    convert, are refused."""
    try:
        v, t = e
        if type(v) is not bool and not isinstance(t, _NOT_NUMBERS):
            return index(v), float(t)
    except (TypeError, ValueError):
        pass
    raise CascadeError(f"event {e!r} must be a (node, time) pair with an "
                       "integer node and a numeric time")


class Cascade:
    """One diffusion result: sorted (node, time) events and a horizon."""

    __slots__ = ("events", "horizon", "_times")

    def __init__(self, events, horizon):
        try:
            evs = sorted(map(_event, events), key=lambda e: (e[1], e[0]))
        except TypeError:
            raise CascadeError("events must be a list of (node, time) "
                               f"pairs, got {events!r}") from None
        times = {}
        for v, t in evs:
            if v in times:
                raise CascadeError(f"node {v} appears more than once")
            if not math.isfinite(t):
                raise CascadeError(f"activation time of node {v} is not finite")
            times[v] = t
        if not isinstance(horizon, _NOT_NUMBERS):
            try:
                horizon = float(horizon)
            except (TypeError, ValueError):
                pass
        if type(horizon) is not float:
            raise CascadeError(f"horizon must be a number, got {horizon!r}")
        if evs and horizon < evs[-1][1]:
            raise CascadeError(
                f"horizon {horizon} precedes last activation {evs[-1][1]}")
        object.__setattr__(self, "events", tuple(evs))
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "_times", times)

    def __setattr__(self, name, value):
        raise AttributeError("Cascade is immutable")

    def __len__(self):
        return len(self.events)

    def __contains__(self, node):
        return node in self._times

    def time_of(self, node) -> float:
        return self._times[node]

    @property
    def nodes(self):
        """Active nodes in activation order."""
        return tuple(v for v, _ in self.events)

    @property
    def initial_time(self) -> float:
        if not self.events:
            raise CascadeError("empty cascade has no initial time")
        return self.events[0][1]

    def truncated(self, cutoff: float) -> "Cascade":
        """Events observed in [0, cutoff), with the horizon set to the cutoff."""
        return Cascade([e for e in self.events if e[1] < cutoff], cutoff)

    def __repr__(self):
        return f"Cascade(len={len(self.events)}, horizon={self.horizon:.6g})"


@dataclass
class CascadeSet:
    """A collection of cascades, optionally tagged with ids and topic labels."""

    cascades: list = field(default_factory=list)
    ids: list = None
    topics: list = None

    def __post_init__(self):
        if self.ids is None:
            self.ids = [str(i) for i in range(len(self.cascades))]
        if len(self.ids) != len(self.cascades):
            raise CascadeError("ids length must match cascades")
        if self.topics is not None:
            if len(self.topics) != len(self.cascades):
                raise CascadeError("topics length must match cascades")
            for cid, topic in zip(self.ids, self.topics):
                if not isinstance(topic, str):
                    raise CascadeError(f"cascade {cid}: topic must be a "
                                       f"string, got {topic!r}")

    def __len__(self):
        return len(self.cascades)

    def __iter__(self):
        return iter(self.cascades)

    def __getitem__(self, i):
        return self.cascades[i]

    @property
    def total_active(self) -> int:
        return sum(len(c) for c in self.cascades)

    def by_topic(self) -> dict:
        """Group into per-topic subsets; a missing label map is one topic."""
        if self.topics is None:
            return {"default": self}
        groups: dict[str, CascadeSet] = {}
        for c, cid, topic in zip(self.cascades, self.ids, self.topics):
            grp = groups.setdefault(topic, CascadeSet([], [], []))
            grp.cascades.append(c)
            grp.ids.append(cid)
            grp.topics.append(topic)
        return groups


# -- JSON-lines serialization ----------------------------------------------
#
# One cascade per line:
#   {"id": str, "events": [[node, t], ...] ascending by t, "horizon": number}
# Floats are emitted at full double precision (repr round-trip).


def dumps_cascades(cs: CascadeSet) -> str:
    lines = []
    for i, c in enumerate(cs.cascades):
        rec = {
            "id": cs.ids[i],
            "events": [[v, t] for v, t in c.events],
            "horizon": c.horizon,
        }
        if cs.topics is not None:
            rec["topic"] = cs.topics[i]
        lines.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def loads_cascades(text: str) -> CascadeSet:
    cascades, ids, topics = [], [], []
    saw_topic = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CascadeError(f"line {lineno}: invalid JSON: {exc}") from None
        try:
            if not isinstance(rec, dict):
                raise CascadeError("expected a JSON object, got a "
                                   f"{type(rec).__name__}")
            cascades.append(Cascade(rec["events"], rec["horizon"]))
            ids.append(str(rec.get("id", len(ids))))
            if not isinstance(rec.get("topic", ""), str):
                raise CascadeError(
                    f"topic must be a string, got {rec['topic']!r}")
        except KeyError as exc:
            raise CascadeError(f"line {lineno}: missing field {exc}") from None
        except CascadeError as exc:
            raise CascadeError(f"line {lineno}: {exc}") from None
        if "topic" in rec:
            saw_topic = True
        topics.append(rec.get("topic"))
    return CascadeSet(cascades, ids, topics if saw_topic else None)


def write_cascades(path, cs: CascadeSet) -> None:
    """Write ``cs`` to ``path`` as JSON lines.  An existing regular file
    is replaced by a new one, not truncated; ``OSError`` if the path
    cannot be written."""
    write_text(path, dumps_cascades(cs))


def read_cascades(path) -> CascadeSet:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_cascades(fh.read())


# -- structural queries ------------------------------------------------------


def check_in_graph(g, data) -> None:
    """Raise ``CascadeError`` if a cascade names a node outside ``g``."""
    for m, c in enumerate(data):
        for v, _ in c.events:
            if not 0 <= v < g.node_count:
                raise CascadeError(
                    f"cascade {m} references node {v} outside the graph")


def effective_parents(g, c: Cascade, v: int) -> set:
    """Parents of v that had a chance to influence it in cascade c.

    For an active v these are the parents active strictly before v's own
    activation; for a frontier node, all active parents.  Asking about any
    other node is an error.
    """
    times = c._times
    every = g.tails[g.in_edges[g.in_ptr[v]:g.in_ptr[v + 1]]].tolist()
    if v in times:
        tv = times[v]
        return {u for u in every if u in times and times[u] < tv}
    parents = {u for u in every if u in times}
    if not parents:
        raise CascadeError(
            f"node {v} is neither active nor adjacent to the cascade")
    return parents
