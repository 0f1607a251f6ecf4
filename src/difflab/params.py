"""Model parameter containers and the delay-semantics switch.

Both diffusion models carry a delay-rate parameter ``r`` and a strength
parameter (diffusion probability ``p`` for the cascade model, link weight
coefficient ``q`` for the threshold model).  Parameters come in two modes:

* ``shared``   - one scalar per parameter for the whole network,
* ``per_link`` - explicit per-edge maps (per-node for node-delay rates).
"""

from __future__ import annotations

import enum
import math

from .errors import ParameterError

SHARED = "shared"
PER_LINK = "per_link"


class DelayMode(enum.Enum):
    """Where the exponential delay attaches.

    LINK: delay is incurred in transit over each link; rate is per-link.
    NODE_NON_OVERRIDE: delay is the target node's response time, decided once.
    NODE_OVERRIDE: node response time, re-decidable while still inactive.
    Node-delay variants use a per-node rate.
    """

    LINK = "link"
    NODE_NON_OVERRIDE = "node-no"
    NODE_OVERRIDE = "node-ov"


def _number(name, value):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number, got {value!r}") from None


def _check_prob(name, value, allow_zero=False):
    value = _number(name, value)
    lower_ok = value >= 0.0 if allow_zero else value > 0.0
    if not (lower_ok and value <= 1.0 and math.isfinite(value)):
        lo = "[0" if allow_zero else "(0"
        raise ParameterError(f"{name} must lie in {lo}, 1], got {value}")
    return value


def _check_rate(name, value):
    value = _number(name, value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ParameterError(f"{name} must be a positive finite rate, got {value}")
    return value


class _RateMixin:
    """Shared handling of the delay-rate parameter.

    In per-link mode the rate map is keyed by edge (u, v) under LINK delay
    and by node v under the node-delay variants.
    """

    __slots__ = ()

    def rate(self, delay: DelayMode, u: int, v: int) -> float:
        if self.mode == SHARED:
            return self.r
        if delay is DelayMode.LINK:
            try:
                return self.r[(u, v)]
            except KeyError:
                raise ParameterError(f"no delay rate for link ({u}, {v})") from None
        try:
            return self.r[v]
        except KeyError:
            raise ParameterError(f"no delay rate for node {v}") from None

    def _validate_rates(self):
        if self.mode == SHARED:
            object.__setattr__(self, "r", _check_rate("r", self.r))
            return
        checked = {}
        for key, val in dict(self.r).items():
            checked[key] = _check_rate(f"r[{key}]", val)
        object.__setattr__(self, "r", checked)


class AsicParams(_RateMixin):
    """Parameters of the asynchronous independent-cascade model.

    ``p`` is the per-attempt diffusion probability, ``r`` the exponential
    delay rate.  The closed bounds p = 0 and p = 1 are accepted so that
    never/always-succeeding simulation setups can be expressed; learning
    keeps p strictly interior.
    """

    __slots__ = ("mode", "p", "r")

    def __init__(self, mode, p, r):
        if mode not in (SHARED, PER_LINK):
            raise ParameterError(f"mode must be {SHARED!r} or {PER_LINK!r}")
        object.__setattr__(self, "mode", mode)
        if mode == SHARED:
            object.__setattr__(self, "p", _check_prob("p", p, allow_zero=True))
        else:
            object.__setattr__(
                self, "p",
                {k: _check_prob(f"p[{k}]", val, allow_zero=True)
                 for k, val in dict(p).items()})
        object.__setattr__(self, "r", r)
        self._validate_rates()

    def __setattr__(self, name, value):
        raise AttributeError("AsicParams is immutable")

    def __reduce__(self):
        return (AsicParams, (self.mode, self.p, self.r))

    @classmethod
    def shared(cls, p, r):
        return cls(SHARED, p, r)

    @classmethod
    def per_link(cls, p, r):
        return cls(PER_LINK, p, r)

    def prob(self, u: int, v: int) -> float:
        if self.mode == SHARED:
            return self.p
        try:
            return self.p[(u, v)]
        except KeyError:
            raise ParameterError(f"no diffusion probability for link ({u}, {v})") from None

    def __repr__(self):
        if self.mode == SHARED:
            return f"AsicParams.shared(p={self.p:.6g}, r={self.r:.6g})"
        return f"AsicParams.per_link(<{len(self.p)} links>)"


class AsltParams(_RateMixin):
    """Parameters of the asynchronous linear-threshold model.

    In shared mode a single coefficient ``q`` in (0, 1] spreads over each
    node's parents as q / |B(v)|, leaving slack weight 1 - q on the node
    itself.  In per-link mode the weight map must satisfy, for every node,
    sum of incoming weights <= 1; the remainder is the slack weight.
    """

    __slots__ = ("mode", "q", "r", "_in_weight_sum")

    def __init__(self, mode, q, r):
        if mode not in (SHARED, PER_LINK):
            raise ParameterError(f"mode must be {SHARED!r} or {PER_LINK!r}")
        object.__setattr__(self, "mode", mode)
        if mode == SHARED:
            object.__setattr__(self, "q", _check_prob("q", q))
            object.__setattr__(self, "_in_weight_sum", None)
        else:
            qmap = {k: _check_prob(f"q[{k}]", val) for k, val in dict(q).items()}
            sums: dict[int, float] = {}
            for (u, v), val in qmap.items():
                sums[v] = sums.get(v, 0.0) + val
            for v, total in sums.items():
                if total > 1.0 + 1e-9:
                    raise ParameterError(
                        f"incoming weights of node {v} sum to {total} > 1")
            object.__setattr__(self, "q", qmap)
            object.__setattr__(self, "_in_weight_sum", sums)
        object.__setattr__(self, "r", r)
        self._validate_rates()

    def __setattr__(self, name, value):
        raise AttributeError("AsltParams is immutable")

    def __reduce__(self):
        return (AsltParams, (self.mode, self.q, self.r))

    @classmethod
    def shared(cls, q, r):
        return cls(SHARED, q, r)

    @classmethod
    def per_link(cls, q, r):
        return cls(PER_LINK, q, r)

    def weight(self, g, u: int, v: int) -> float:
        """Link weight q_{u,v}; needs the graph for the shared split."""
        if self.mode == SHARED:
            nb = len(g.in_adj[v])
            if nb == 0:
                raise ParameterError(f"node {v} has no parents, weight undefined")
            return self.q / nb
        try:
            return self.q[(u, v)]
        except KeyError:
            raise ParameterError(f"no weight for link ({u}, {v})") from None

    def slack(self, g, v: int) -> float:
        """Residual self weight q_{v,v} = 1 - sum of incoming weights."""
        if self.mode == SHARED:
            return 1.0 - self.q if len(g.in_adj[v]) > 0 else 1.0
        return max(0.0, 1.0 - self._in_weight_sum.get(v, 0.0))

    def __repr__(self):
        if self.mode == SHARED:
            return f"AsltParams.shared(q={self.q:.6g}, r={self.r:.6g})"
        return f"AsltParams.per_link(<{len(self.q)} links>)"
