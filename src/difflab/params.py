"""Model parameter containers, the delay-semantics switch and the one
reader of parameter values.

Both diffusion models carry a delay-rate parameter ``r`` and a strength
parameter (diffusion probability ``p`` for the cascade model, link weight
coefficient ``q`` for the threshold model).  Parameters come in two modes:

* ``shared``   - one float per parameter for the whole network,
* ``per_link`` - read-only float64 arrays over edge ids: entry e belongs
  to the link ``g.tails[e] -> g.heads[e]``.  Rates are stored per link
  under every delay mode.

``edge_values`` is the one reader of parameter values: it spreads either
mode over edge ids.  ``link_array`` turns a ``{(u, v): value}`` map, the
form of per-link parameter files, into an edge array.  ``check_model``
refuses the parameters of one model where the other model's are needed.
"""

from __future__ import annotations

import enum
import math
from operator import index

import numpy as np

from .errors import ParameterError

SHARED = "shared"
PER_LINK = "per_link"


class DelayMode(enum.Enum):
    """Where the exponential delay attaches.

    LINK: delay is incurred in transit over each link; rate is per-link.
    NODE_NON_OVERRIDE: delay is the target node's response time, decided once.
    NODE_OVERRIDE: node response time, re-decidable while still inactive.
    Under the node-delay variants node v's rate is the common rate of its
    in-links.
    """

    LINK = "link"
    NODE_NON_OVERRIDE = "node-no"
    NODE_OVERRIDE = "node-ov"


def _number(name, value, link=None):
    """``value`` as a float; text and booleans, which ``float`` would
    convert, are refused too, naming ``name[link]`` if a link is given."""
    if not isinstance(value, (str, bytes, bool)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    where = name if link is None else f"{name}[{link}]"
    raise ParameterError(f"{where} must be a number, got {value!r}")


def link_array(g, name, values):
    """A map from every link of ``g`` to a number, as a float64 array over
    edge ids.  Keys are ``(u, v)`` pairs of internal node ids, or ``"u,v"``
    strings as in parameter files.  A malformed key, a link missing from
    the map or absent from ``g``, and a value that is not a number raise
    ``ParameterError``; of several defects, the first key in map order is
    named."""
    malformed = ParameterError(f'per-link "{name}" must be an object '
                               'mapping "u,v" links to values')
    if not isinstance(values, dict):
        raise malformed
    links = list(zip(g.tails.tolist(), g.heads.tolist()))
    edge_ids = dict(zip(links, range(g.edge_count)))
    ids, numbers = [], []
    for key, value in values.items():
        try:
            u, v = (map(int, key.split(",")) if isinstance(key, str)
                    else map(index, key))
        except (TypeError, ValueError):
            raise malformed from None
        e = edge_ids.get((u, v))
        if e is None:
            raise ParameterError(
                f"{name}: link ({u}, {v}) is not in the graph")
        ids.append(e)
        numbers.append(_number(name, value, (u, v)))
    given = np.zeros(g.edge_count, dtype=bool)
    given[ids] = True
    if not given.all():
        u, v = links[int(np.argmin(given))]
        raise ParameterError(f"{name}: no value for link ({u}, {v})")
    out = np.empty(g.edge_count)
    out[ids] = numbers
    return out


def _edge_floats(g, name, values):
    """``values``, one per edge of ``g``, as a new float64 array.  Text and
    booleans are refused as ``_number`` refuses them."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        values = (values.tolist() if isinstance(values, np.ndarray)
                  else list(values))
        if len(values) == g.edge_count:
            links = zip(g.tails.tolist(), g.heads.tolist())
            values = [_number(name, x, link)
                      for link, x in zip(links, values)]
    if np.shape(values) != (g.edge_count,):
        raise ParameterError(f"{name} must hold one value per link "
                             f"({g.edge_count}), got {np.shape(values)}")
    return np.array(values, dtype=np.float64)


def _refuse(g, name, values, ok, what):
    """Raise naming the first value that is not ``ok``: a link of ``g``,
    or the shared value when ``g`` is None (``ok`` is then a bool)."""
    if ok is not True and not np.all(ok):
        e = int(np.argmin(ok))
        where = (name if g is None else
                 f"{name}[{(int(g.tails[e]), int(g.heads[e]))}]")
        raise ParameterError(
            f"{where} {what}, got {float(np.ravel(values)[e])}")


class _Params:
    """Shared values are floats; per-link values are read-only float64
    arrays over edge ids.  Build with ``shared(strength, r)`` or with
    ``per_link(g, strength, r)``, which takes one value per link in edge
    id order; both check the values."""

    __slots__ = ("mode", "r")
    _STRENGTH = ""

    def __init__(self, mode, strength, r):
        if mode == PER_LINK:
            strength.flags.writeable = r.flags.writeable = False
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, self._STRENGTH, strength)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.mode, self.strength, self.r))

    @property
    def strength(self):
        return getattr(self, self._STRENGTH)

    @classmethod
    def shared(cls, strength, r):
        return cls._checked(None, strength, r)

    @classmethod
    def per_link(cls, g, strength, r):
        return cls._checked(g, strength, r)

    @classmethod
    def _checked(cls, g, strength, r):
        """Shared parameters when ``g`` is None, else per-link ones."""
        name, closed = cls._STRENGTH, cls is AsicParams
        if g is None:
            s, r = _number(name, strength), _number("r", r)
        else:
            s, r = _edge_floats(g, name, strength), _edge_floats(g, "r", r)
        _refuse(g, name, s, ((s >= 0.0) if closed else (s > 0.0)) & (s <= 1.0),
                f"must lie in {'[0' if closed else '(0'}, 1]")
        _refuse(g, "r", r, (r > 0.0) & (r < math.inf),
                "must be a positive finite rate")
        if g is None:
            return cls(SHARED, s, r)
        if not closed:
            sums = np.bincount(g.heads, weights=s, minlength=g.node_count)
            over = np.flatnonzero(sums > 1.0 + 1e-9)
            if over.size:
                v = int(over[0])
                raise ParameterError(
                    f"incoming weights of node {v} sum to {sums[v]} > 1")
        return cls(PER_LINK, s, r)

    def edge_values(self, g, delay: DelayMode, edges=None):
        """``(strength, rate)`` float64 arrays over edge ids ``edges``, or
        over all edges of ``g`` when ``edges`` is None.

        The strength is the diffusion probability (cascade model) or the
        link weight (threshold model); a shared weight q splits over each
        node's parents as q / |B(v)|.  Under node delay each edge gets its
        head's rate, the common rate of the head's in-links; in-link rates
        that differ raise ``ParameterError`` naming the node.
        """
        edges = np.arange(g.edge_count) if edges is None else edges
        if self.mode == SHARED:
            values = np.empty((2, len(edges)))
            values[0], values[1] = self.strength, self.r
            if self._STRENGTH == "q":
                values[0] /= g.in_degree[g.heads[edges]]
            return values[0], values[1]
        rate = self.r[edges]
        if delay is not DelayMode.LINK:
            heads = g.heads[edges]
            same = rate == self.r[g.in_edges[g.in_ptr[heads]]]
            if not same.all():
                raise ParameterError(
                    f"node delay needs one rate per node: the in-link rates "
                    f"of node {int(heads[np.argmin(same)])} differ")
        return self.strength[edges], rate

    def __repr__(self):
        name = type(self).__name__
        if self.mode == SHARED:
            return (f"{name}.shared({self._STRENGTH}={self.strength:.6g}, "
                    f"r={self.r:.6g})")
        return f"{name}.per_link(<{len(self.r)} links>)"


class AsicParams(_Params):
    """Parameters of the asynchronous independent-cascade model.

    ``p`` is the per-attempt diffusion probability, ``r`` the exponential
    delay rate.  The closed bounds p = 0 and p = 1 are accepted so that
    never/always-succeeding simulation setups can be expressed; learning
    keeps p strictly interior.
    """

    __slots__ = ("p",)
    _STRENGTH = "p"


class AsltParams(_Params):
    """Parameters of the asynchronous linear-threshold model.

    In shared mode a single coefficient ``q`` in (0, 1] spreads over each
    node's parents as q / |B(v)|, leaving slack weight 1 - q on the node
    itself.  In per-link mode every node's incoming weights must sum to at
    most 1; the remainder is the slack weight.
    """

    __slots__ = ("q",)
    _STRENGTH = "q"


def check_model(model, params):
    """Raise ``ValueError`` unless ``model`` is "asic" or "aslt", and
    ``ParameterError`` unless ``params`` is that model's class."""
    cls = {"asic": AsicParams, "aslt": AsltParams}.get(model)
    if cls is None:
        raise ValueError(f"unknown model {model!r}")
    if not isinstance(params, cls):
        raise ParameterError(f"the {model} model needs {cls.__name__}, "
                             f"got {type(params).__name__}")
