import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from difflab import DirectedGraph, erdos_renyi  # noqa: E402


@pytest.fixture
def four_cpus(monkeypatch):
    """Report four CPUs, so that ``threads`` of 2 or 3 still gets a real
    process pool on a smaller host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


@pytest.fixture
def chain2():
    """Two nodes, one link 0 -> 1."""
    return DirectedGraph(2, [(0, 1)])


@pytest.fixture
def chain3():
    return DirectedGraph(3, [(0, 1), (1, 2)])


@pytest.fixture
def fan_in():
    """Two parents 0, 1 feeding node 2."""
    return DirectedGraph(3, [(0, 2), (1, 2)])


@pytest.fixture
def star4():
    """Directed star out of the center."""
    return DirectedGraph(4, [(0, 1), (0, 2), (0, 3)])


def random_graph(n, p_edge, seed):
    return erdos_renyi(n, p_edge, seed)
