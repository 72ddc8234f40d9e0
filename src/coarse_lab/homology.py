"""Degree <= 1 uniformly finite chains and minimum sup-norm boundary filling.

A zero chain is an integer function on window points; a one chain assigns
integers to ordered pairs within a propagation bound P.  The boundary of the
pair (x, y) is the difference of point masses at y and x, so filling a zero
chain c means routing its mass along pairs of length at most P.  The filling
solver minimises the sup norm of the filler exactly: a chain over a window
core is a boundary in the ambient space iff a uniformly bounded fill exists,
with mass allowed to exit through the halo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .flows import FlowNetwork
from .space import WindowedSpace


@dataclass
class ZeroChain:
    """Finitely supported integer function on window points."""

    coeffs: dict

    def __post_init__(self):
        self.coeffs = {p: int(v) for p, v in self.coeffs.items() if v != 0}

    def restricted_to(self, points: Iterable) -> "ZeroChain":
        pts = set(points)
        return ZeroChain({p: v for p, v in self.coeffs.items() if p in pts})


@dataclass
class OneChain:
    """Bounded integer function on ordered pairs of propagation <= P."""

    coeffs: dict
    propagation: int

    def __post_init__(self):
        self.coeffs = {e: int(v) for e, v in self.coeffs.items() if v != 0}

    def sup_norm(self) -> int:
        return max((abs(v) for v in self.coeffs.values()), default=0)


class InfeasibleFill(ValueError):
    """No fill exists at any bound: a closed core component carries mass."""

    def __init__(self, component, total: int):
        super().__init__(
            f"component of {len(component)} core points with no halo contact "
            f"carries total mass {total}"
        )
        self.component = frozenset(component)
        self.total = total


@dataclass
class FillResult:
    """A minimum sup-norm filler, with counters of the solve that found it.

    ``solves`` is the number of max-flow calls; ``nodes`` and ``arcs`` count the
    nodes and arc pairs (one per point pair or halo exit) of the network they shared,
    leaving out the components of the distance-P graph that the chain does not meet.
    """

    chain: OneChain
    norm: int
    solves: int = 0
    nodes: int = 0
    arcs: int = 0


def apply_boundary(h: OneChain) -> ZeroChain:
    """Boundary of a one chain: each pair (x, y) deposits +1 at y and -1 at x."""
    out: dict = {}
    for (x, y), v in h.coeffs.items():
        out[y] = out.get(y, 0) + v
        out[x] = out.get(x, 0) - v
    return ZeroChain(out)


def min_norm_fill(window: WindowedSpace, c: ZeroChain, P: int) -> FillResult:
    """Fill c by a one chain of propagation P with the least possible sup norm.

    The chain must be supported on the core and P may not exceed the halo
    depth, so mass exiting through the halo behaves as it would in the
    ambient space.  Raises :class:`InfeasibleFill` when some component of
    the distance-P graph lies entirely in the core yet carries nonzero
    total mass.

    One transshipment network is built over all points, with every point
    pair an undirected edge at bound 1, and the components are read off its
    pair edges.  Only the components that the chain meets get arcs from the
    source, to the sink or to the halo exit, so max flow never enters the
    others, and the bound raises and the filler skip their pair edges.
    While the flow falls short of the demand, the min cut of the residual
    network, crossed by k pair edges and with ``fixed`` capacity on its
    other arcs, shows that every feasible bound b has fixed + k*b >= demand.
    So the bound is raised to ceil((demand - fixed) / k) in both directions
    of every charged pair edge, which keeps its net flow, and the same
    residual network is solved again from its current flow.  Each bound
    tried is a lower bound on the optimum, so the first feasible one is the
    exact optimum, and max-flow integrality gives an integer filler.  The
    filler holds each pair's net flow: at most one of h(x,y), h(y,x) is
    nonzero.
    """
    if P < 1:
        raise ValueError("propagation must be a positive integer")
    if P > window.halo_depth and window.halo:
        raise ValueError(
            f"propagation {P} exceeds halo depth {window.halo_depth}; "
            "exits through the halo would not be faithful"
        )
    if not c.coeffs.keys() <= window.core:
        raise ValueError("zero chain must be supported on the core")
    if not c.coeffs:
        return FillResult(OneChain({}, P), 0)

    space = window.space
    points = sorted(space.points, key=repr)
    rank = {p: i for i, p in enumerate(points)}
    # each pair as (lower rank, higher rank), in one sort: the order in
    # which the network adds its pair edges
    pairs = sorted(
        (a, b) if a < b else (b, a)
        for a, b in ((rank[x], rank[y]) for x, y in space.pairs_within(P))
    )
    n = len(points)
    s, t, w = n, n + 1, n + 2
    net = FlowNetwork(points + ["s", "t", "w"])
    pair_arcs = net.add_edges(pairs, 1, 1)
    adj, to, cap = net.adj, net.to, net.cap

    # components, by breadth-first search over the pair edges, which are all
    # the network holds so far; each point meets its neighbours in rank order
    support = c.coeffs.keys()
    seen = [False] * n
    exits: list[int] = []
    rel: list[int] = []  # the points of the components the chain meets
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for p in comp:  # comp grows while it is read
            for e in adj[p]:
                q = to[e]
                if not seen[q]:
                    seen[q] = True
                    comp.append(q)
        members = [points[i] for i in comp]
        charged = support & members
        if not charged:
            # no arc from s, t or w reaches it, so it carries no flow
            continue
        touch = [i for i in comp if points[i] in window.halo]
        if not touch:
            total = sum(c.coeffs[p] for p in charged)
            if total != 0:
                raise InfeasibleFill([points[i] for i in sorted(comp)], total)
        exits += touch
        rel += comp
    # the pair edges that flow can reach, those of the charged components,
    # each read at its lower-ranked end
    live = pair_arcs if len(rel) == n else sorted(e for p in rel for e in adj[p] if not e & 1)

    demand = 0
    # s and t meet the chain's points in rank order
    for k in sorted(rank[p] for p in support):
        v = c.coeffs[points[k]]
        if v > 0:
            net.add_edge(k, t, v)
            demand += v
        else:
            net.add_edge(s, k, -v)
    # a nonzero chain needs some nonzero pair, so 1 is a lower bound; at
    # the bound ``mass`` every pair edge carries the whole demand
    norm = 1
    mass = sum(map(abs, c.coeffs.values()))
    total = sum(c.coeffs.values())
    if total > 0:
        net.add_edge(s, w, total)
    elif total < 0:
        net.add_edge(w, t, -total)
        demand -= total
    for h in sorted(exits):
        net.add_edge(w, h, mass + 1, mass + 1)
    nodes = len(rel) + (3 if total or exits else 2)
    flow = net.max_flow(s, t)
    solves = 1
    while flow < demand:
        # the solve's last level search is the source side of a min cut
        level = net.level
        k = sum(1 for e in live if (level[to[e]] < 0) != (level[to[e ^ 1]] < 0))
        assert k > 0, "a cut without pair edges would make every bound infeasible"
        # the cut's capacity, fixed + k*norm, equals the flow, and a feasible
        # bound b needs fixed + k*b >= demand
        grow = -(-(demand - flow) // k)
        norm += grow
        assert norm <= mass, f"bound {norm} exceeds the chain's total absolute mass {mass}"
        for e in live:
            cap[e] += grow
            cap[e ^ 1] += grow
        flow += net.max_flow(s, t)
        solves += 1

    coeffs: dict = {}
    # the net flow along pair edge e is norm - cap[e]: keep it as it runs
    for e in live:
        f = norm - cap[e]
        if f > 0:
            coeffs[(points[to[e ^ 1]], points[to[e]])] = f
        elif f < 0:
            coeffs[(points[to[e]], points[to[e ^ 1]])] = -f
    chain = OneChain(coeffs, P)
    assert chain.sup_norm() <= norm
    got = apply_boundary(chain).restricted_to(window.core)
    assert got == c.restricted_to(window.core), "fill does not bound the chain"
    return FillResult(chain, norm, solves, nodes, len(to) // 2 - len(pair_arcs) + len(live))
