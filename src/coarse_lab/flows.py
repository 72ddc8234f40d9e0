"""Integer maximum flow on small graphs (Dinic's algorithm).

Nodes are the dense indices 0 .. n-1, fixed when the network is built:
node i stands for ``labels[i]``, and the labels are kept only for reports.
Each edge is one arc pair e, e ^ 1 joining two indices, with a capacity
each way: ``back`` 0 for a directed arc, the same capacity both ways for
an undirected edge, whose residual ``cap[e]`` is then that capacity minus
its net flow.  All capacities are nonnegative integers, so every maximum
flow found here is integral.  This backs both the doubling matchings and
the transshipment feasibility solves.

``max_flow`` is iterative, so its stack does not grow with the length of
an augmenting path, and warm-startable: it augments whatever flow the
network already holds.  Raising ``cap[e]``, or both ``cap[e]`` and
``cap[e ^ 1]`` of an undirected edge by the same amount, keeps that flow
feasible, so a parametric caller re-solves the same residual network.
Its final level search labels exactly the nodes that s reaches in the
residual graph, which by max-flow/min-cut are the source side of a minimum
cut, so the solve leaves that cut behind in ``level``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable


class FlowNetwork:
    def __init__(self, labels: Iterable):
        self.labels: list = list(labels)
        self.adj: list[list[int]] = [[] for _ in self.labels]
        # parallel arrays: to[e], cap[e]; e ^ 1 is the reverse arc
        self.to: list[int] = []
        self.cap: list[int] = []
        # the last solve's final BFS levels: level[i] >= 0 puts i on the
        # source side of a minimum cut
        self.level: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int, back: int = 0) -> int:
        """Add u -> v with ``capacity`` and v -> u with ``back``; returns the u -> v arc."""
        if capacity < 0 or back < 0:
            raise ValueError("capacity must be nonnegative")
        e = len(self.to)
        self.to += (v, u)
        self.cap += (capacity, back)
        self.adj[u].append(e)
        self.adj[v].append(e + 1)
        return e

    def flow_on(self, e: int) -> int:
        """Flow on arc e of a pair added with ``back`` 0."""
        return self.cap[e ^ 1]

    def max_flow(self, s: int, t: int) -> int:
        """Augment the current flow to a maximum one; return the value added.

        Each phase builds BFS levels and then finds a blocking flow by a
        depth-first search kept on an explicit path, with one current-arc
        pointer per node.  Arcs are tried in insertion order, so a solve on a
        fresh network routes the same flow every time.
        """
        adj, to, cap = self.adj, self.to, self.cap
        n = len(adj)
        added = 0
        while True:
            level = [-1] * n
            level[s] = 0
            queue = deque([s])
            # nodes at the sink's level or beyond are dead ends: stop there
            while queue and level[t] < 0:
                u = queue.popleft()
                nxt = level[u] + 1
                for e in adj[u]:
                    v = to[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = nxt
                        queue.append(v)
            if level[t] < 0:
                self.level = level
                return added
            it = [0] * n
            path: list[int] = []  # arcs of the current search path from s
            u = s
            while True:
                if u == t:
                    pushed = min(map(cap.__getitem__, path))
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    added += pushed
                    # a fresh search from s would retrace the path up to its
                    # first saturated arc, so resume at that arc's tail
                    i = 0
                    while cap[path[i]]:
                        i += 1
                    u = to[path[i] ^ 1]
                    del path[i:]
                    continue
                arcs = adj[u]
                i, end = it[u], len(arcs)
                want = level[u] + 1
                while i < end:
                    e = arcs[i]
                    if cap[e] and level[to[e]] == want:
                        break
                    i += 1
                it[u] = i
                if i < end:
                    path.append(e)
                    u = to[e]
                elif path:
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break
