import random

import pytest

from coarse_lab.flows import FlowNetwork
from coarse_lab.oracles import _EKGraph


def random_edges(rng: random.Random):
    n = rng.randint(2, 12)
    edges = [
        (rng.randrange(n), rng.randrange(n), rng.randint(0, 5))
        for _ in range(rng.randint(1, 40))
    ]
    return n, edges


def network(n, edges) -> FlowNetwork:
    net = FlowNetwork(range(n))
    for u, v, c in edges:
        net.add_edge(u, v, c)
    return net


def cut_capacity(net: FlowNetwork, side: set) -> int:
    """Original capacity of the arcs leaving ``side``."""
    return sum(
        net.cap[e] + net.cap[e ^ 1]
        for e in range(0, len(net.to), 2)
        if net.to[e ^ 1] in side and net.to[e] not in side
    )


def test_long_chain_has_no_recursion_limit():
    n = 20_000
    net = FlowNetwork(range(n))
    for i in range(n - 1):
        net.add_edge(i, i + 1, 3)
    assert net.max_flow(0, n - 1) == 3


def test_flow_value_matches_edmonds_karp():
    for seed in range(50):
        rng = random.Random(seed)
        n, edges = random_edges(rng)
        ek = _EKGraph(n)
        for u, v, c in edges:
            ek.add(u, v, c)
        assert network(n, edges).max_flow(0, n - 1) == ek.max_flow(0, n - 1), seed


def test_warm_solve_adds_only_the_new_flow():
    for seed in range(50):
        rng = random.Random(seed)
        n, edges = random_edges(rng)
        net = network(n, edges)
        first = net.max_flow(0, n - 1)
        raised = list(edges)
        for e, (u, v, c) in enumerate(edges):
            if rng.random() < 0.5:
                raised[e] = (u, v, c + rng.randint(1, 4))
                net.raise_capacity(2 * e, raised[e][2])
        added = net.max_flow(0, n - 1)
        assert first + added == network(n, raised).max_flow(0, n - 1), seed
        assert net.max_flow(0, n - 1) == 0


def test_raise_capacity_refuses_to_lower():
    net = FlowNetwork(["s", "t"])
    e = net.add_edge(0, 1, 2)
    net.max_flow(0, 1)
    with pytest.raises(ValueError, match="raised"):
        net.raise_capacity(e, 1)
    net.raise_capacity(e, 5)
    assert net.flow_on(e) == 2
    assert net.max_flow(0, 1) == 3


def test_source_side_is_a_min_cut():
    for seed in range(50):
        rng = random.Random(seed)
        n, edges = random_edges(rng)
        net = network(n, edges)
        value = net.max_flow(0, n - 1)
        side = net.source_side(0)
        assert 0 in side and n - 1 not in side
        assert cut_capacity(net, side) == value, seed
