"""Seeded synthetic inputs for the benchmark, independent of the program.

Graphs are generated here rather than by ``difflab.graph`` so that a change
to the program's own generators never changes what the benchmark feeds it.
"""

from __future__ import annotations

import random


def rng_for(seed: int, *labels) -> random.Random:
    """A ``random.Random`` stream fixed by the workload seed and labels."""
    return random.Random("/".join(str(x) for x in (seed,) + labels))


def preferential_attachment(n: int, m: int, rng: random.Random) -> list:
    """Bidirectional preferential-attachment edges, in growth order.

    Same urn process as the acceptance suite's PA graphs.  Emitting edges in
    growth order makes node ``i`` first appear before node ``i + 1``, so the
    edge-list loader's dense ids equal these ids and cascades simulated on
    the loaded graph can be written back next to the file.
    """
    urn: list = []
    edges = []
    for v in range(1, m + 1):
        edges += [(0, v), (v, 0)]
        urn += [0, v]
    for new in range(m + 1, n):
        targets: set = set()
        while len(targets) < m:
            targets.add(urn[rng.randrange(len(urn))])
        for t in sorted(targets):
            edges += [(new, t), (t, new)]
            urn += [new, t]
    return edges


def erdos_renyi(n: int, p_edge: float, rng: random.Random) -> list:
    """Directed G(n, p) edges; isolated nodes do not appear in the list."""
    return [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < p_edge]


def edge_list_text(edges, title: str) -> str:
    lines = [f"# {title}"] + [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def node_count(edges) -> int:
    return len({x for e in edges for x in e})
