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

    def support(self) -> set:
        return set(self.coeffs)

    def total(self) -> int:
        return sum(self.coeffs.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, ZeroChain) and self.coeffs == other.coeffs

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

    def validate(self, window: WindowedSpace) -> None:
        space = window.space
        for (x, y), v in self.coeffs.items():
            if x not in space or y not in space:
                raise ValueError(f"pair ({x!r}, {y!r}) leaves the window")
            if space.dist(x, y) > self.propagation:
                raise ValueError(
                    f"pair ({x!r}, {y!r}) exceeds propagation {self.propagation}"
                )


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
    nodes and arc pairs (one per point pair or halo exit) of the network they shared.
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


def _components(nbrs: list[list[int]]) -> list[list[int]]:
    """Components of the graph joining each point rank to its P-ball ranks."""
    seen = [False] * len(nbrs)
    components = []
    for start in range(len(nbrs)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for p in comp:  # breadth first: comp grows while it is read
            for q in nbrs[p]:
                if not seen[q]:
                    seen[q] = True
                    comp.append(q)
        components.append(comp)
    return components


def _build_network(window: WindowedSpace, points: list, rank: dict, rel: list, nbrs: list, coeffs: dict):
    """Transshipment feasibility network at sup-norm bound 1.

    Node k is the relevant point ``points[rel[k]]``; then come s, t and,
    only when some arc uses it, the halo exit w.  Each point pair and each
    halo exit {w, h} is one undirected edge; a pair is added from its
    lower-ranked end, so each node keeps its pair edges in ``repr`` order.
    """
    n = len(rel)
    s, t, w = n, n + 1, n + 2
    node = dict(zip(rel, range(n)))
    total = sum(coeffs.values())
    halo = [k for k, r in enumerate(rel) if points[r] in window.halo]
    labels = [points[r] for r in rel] + ["s", "t"] + (["w"] if total or halo else [])
    net = FlowNetwork(labels)
    pair_arcs = []
    for k, r in enumerate(rel):
        for q in nbrs[r]:
            if q > r:
                pair_arcs.append(net.add_edge(k, node[q], 1, 1))
    demand = 0
    # the chain lives on the core, and every point of its support is relevant
    for k in sorted(node[rank[p]] for p in coeffs):
        c = coeffs[labels[k]]
        if c > 0:
            net.add_edge(k, t, c)
            demand += c
        else:
            net.add_edge(s, k, -c)
    big = sum(abs(v) for v in coeffs.values()) + 1
    if total > 0:
        net.add_edge(s, w, total)
    elif total < 0:
        net.add_edge(w, t, -total)
        demand += -total
    for h in halo:
        net.add_edge(w, h, big, big)
    return net, pair_arcs, demand


def min_norm_fill(window: WindowedSpace, c: ZeroChain, P: int) -> FillResult:
    """Fill c by a one chain of propagation P with the least possible sup norm.

    The chain must be supported on the core and P may not exceed the halo
    depth, so mass exiting through the halo behaves as it would in the
    ambient space.  Raises :class:`InfeasibleFill` when some component of
    the distance-P graph lies entirely in the core yet carries nonzero
    total mass.

    Otherwise one transshipment network is built, with every point pair an
    undirected edge at bound 1, and solved by max flow.  While the flow falls
    short of the demand, the min cut of the residual network, crossed by k
    pair edges and with ``fixed`` capacity on its other arcs, shows that
    every feasible bound b has fixed + k*b >= demand.  So the bound is raised
    to ceil((demand - fixed) / k) in both directions of every pair edge,
    which keeps its net flow, and the same residual network is solved again
    from its current flow.  Each bound tried is a lower bound on the
    optimum, so the first feasible one is the exact optimum, and max-flow
    integrality gives an integer filler.  The filler holds each pair's net
    flow: at most one of h(x,y), h(y,x) is nonzero.
    """
    if P < 1:
        raise ValueError("propagation must be a positive integer")
    if P > window.halo_depth and window.halo:
        raise ValueError(
            f"propagation {P} exceeds halo depth {window.halo_depth}; "
            "exits through the halo would not be faithful"
        )
    if not c.support() <= window.core:
        raise ValueError("zero chain must be supported on the core")
    if not c.coeffs:
        return FillResult(OneChain({}, P), 0)

    space = window.space
    points = sorted(space.points, key=repr)
    rank = {p: i for i, p in enumerate(points)}
    nbrs = [sorted(map(rank.__getitem__, space.ball_of(p, P))) for p in points]
    support = c.coeffs.keys()
    rel: list[int] = []
    for comp in _components(nbrs):
        members = [points[i] for i in comp]
        charged = support & members
        if not charged:
            continue
        if window.halo.isdisjoint(members):
            total = sum(c.coeffs[p] for p in charged)
            if total != 0:
                raise InfeasibleFill([points[i] for i in sorted(comp)], total)
        rel += comp
    rel.sort()

    # a nonzero chain needs some nonzero pair, so 1 is a lower bound; at
    # the bound ``mass`` every pair edge carries the whole demand
    norm = 1
    mass = sum(map(abs, c.coeffs.values()))
    net, pair_arcs, demand = _build_network(window, points, rank, rel, nbrs, c.coeffs)
    s, t = len(rel), len(rel) + 1
    to, cap, labels = net.to, net.cap, net.labels
    flow = net.max_flow(s, t)
    solves = 1
    while flow < demand:
        # the solve's last level search is the source side of a min cut
        level = net.level
        k = sum(1 for e in pair_arcs if (level[to[e]] < 0) != (level[to[e ^ 1]] < 0))
        assert k > 0, "a cut without pair edges would make every bound infeasible"
        # the cut's capacity, fixed + k*norm, equals the flow, and a feasible
        # bound b needs fixed + k*b >= demand
        grow = -(-(demand - flow) // k)
        norm += grow
        assert norm <= mass, f"bound {norm} exceeds the chain's total absolute mass {mass}"
        for e in pair_arcs:
            cap[e] += grow
            cap[e ^ 1] += grow
        flow += net.max_flow(s, t)
        solves += 1

    coeffs: dict = {}
    # the net flow along pair edge e is norm - cap[e]: keep it as it runs
    for e in pair_arcs:
        f = norm - cap[e]
        if f > 0:
            coeffs[(labels[to[e ^ 1]], labels[to[e]])] = f
        elif f < 0:
            coeffs[(labels[to[e]], labels[to[e ^ 1]])] = -f
    chain = OneChain(coeffs, P)
    assert chain.sup_norm() <= norm
    got = apply_boundary(chain).restricted_to(window.core)
    assert got == c.restricted_to(window.core), "fill does not bound the chain"
    return FillResult(chain, norm, solves, len(net.labels), len(net.to) // 2)
