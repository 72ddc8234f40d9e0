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


def random_mixed_edges(rng: random.Random):
    """Edges (u, v, c, back): directed with back 0 or undirected with back c."""
    n, edges = random_edges(rng)
    return n, [(u, v, c, c if rng.random() < 0.5 else 0) for u, v, c in edges]


def network(n, edges) -> FlowNetwork:
    net = FlowNetwork(range(n))
    for u, v, c, *back in edges:
        net.add_edge(u, v, c, *back)
    return net


def edmonds_karp(n, edges) -> int:
    """The oracle's max flow from 0 to n - 1, an undirected edge added both ways."""
    ek = _EKGraph(n)
    for u, v, c, back in edges:
        ek.add(u, v, c)
        if back:
            ek.add(v, u, back)
    return ek.max_flow(0, n - 1)


def cut_capacity(edges, side: set) -> int:
    """Capacity of the edges leaving ``side``; an undirected edge counts once."""
    return sum(c if u in side else back for u, v, c, back in edges if (u in side) != (v in side))


def test_long_chain_has_no_recursion_limit():
    n = 20_000
    net = FlowNetwork(range(n))
    for i in range(n - 1):
        net.add_edge(i, i + 1, 3)
    assert net.max_flow(0, n - 1) == 3


def test_flow_value_matches_edmonds_karp():
    for seed in range(50):
        rng = random.Random(seed)
        n, edges = random_mixed_edges(rng)
        assert network(n, edges).max_flow(0, n - 1) == edmonds_karp(n, edges), seed


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
                net.cap[2 * e] += raised[e][2] - c
        added = net.max_flow(0, n - 1)
        assert first + added == network(n, raised).max_flow(0, n - 1), seed
        assert net.max_flow(0, n - 1) == 0


def test_warm_solve_after_raising_undirected_edges():
    for seed in range(50):
        rng = random.Random(seed)
        n, edges = random_mixed_edges(rng)
        net = network(n, edges)
        first = net.max_flow(0, n - 1)
        grow = rng.randint(1, 4)
        raised = [(u, v, c + grow, back + grow) if back else (u, v, c, 0) for u, v, c, back in edges]
        for e, (_, _, _, back) in enumerate(edges):
            if back:  # both directions, so the edge keeps its net flow
                net.cap[2 * e] += grow
                net.cap[2 * e + 1] += grow
        added = net.max_flow(0, n - 1)
        assert first + added == network(n, raised).max_flow(0, n - 1), seed
        assert net.max_flow(0, n - 1) == 0


def test_add_edge_rejects_negative_capacity():
    net = FlowNetwork(["s", "t"])
    for capacity, back in [(-1, 0), (1, -1)]:
        with pytest.raises(ValueError, match="nonnegative"):
            net.add_edge(0, 1, capacity, back)
    assert net.to == [] and net.cap == []


def test_add_edges_appends_arc_pairs_in_order():
    net = FlowNetwork(range(4))
    assert net.add_edge(0, 3, 7) == 0
    assert net.add_edges(iter([(0, 1), (1, 2), (2, 0)]), 2, 1) == range(2, 8, 2)
    assert net.to == [3, 0, 1, 0, 2, 1, 0, 2]
    assert net.cap == [7, 0, 2, 1, 2, 1, 2, 1]
    assert net.adj == [[0, 2, 7], [3, 4], [5, 6], [1]]
    assert list(net.add_edges([], 5)) == [] and len(net.to) == 8


def test_source_side_is_a_min_cut():
    for seed in range(50):
        rng = random.Random(seed)
        n, edges = random_mixed_edges(rng)
        net = network(n, edges)
        value = net.max_flow(0, n - 1)
        side = {i for i, lv in enumerate(net.level) if lv >= 0}
        assert 0 in side and n - 1 not in side
        assert cut_capacity(edges, side) == value, seed
