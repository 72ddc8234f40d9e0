"""Folner-set search and the paradoxical side of the amenability dichotomy.

A window is declared amenable-looking when some core set has a small outer
R-boundary; it is paradoxical-looking when a set admits two disjoint
injective translates with displacement at most R.  The two outcomes of
``doubling_check`` are exactly the two sides of the Hall condition
|B_R(S)| >= 2|S| and are certified either by an explicit pair of maps or by
an explicit violating subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .flows import FlowNetwork
from .space import (
    IntegerLineSpace,
    WindowedSpace,
    ball,
    outer_boundary,
)


@dataclass
class FolnerResult:
    """Best candidate seen by a bounded search; never a non-existence proof."""

    points: frozenset
    ratio: Fraction
    success: bool
    examined: int


@dataclass
class ParadoxWitness:
    """Two injective maps with displacement <= R and disjoint images."""

    phi1: dict
    phi2: dict
    R: int

    def replay(self, window: WindowedSpace) -> None:
        space = window.space
        assert set(self.phi1) == set(self.phi2)
        images = list(self.phi1.values()) + list(self.phi2.values())
        assert len(images) == len(set(images)), "images collide"
        for phi in (self.phi1, self.phi2):
            for x, y in phi.items():
                assert y in space, f"image {y!r} outside the window"
                assert space.dist(x, y) <= self.R, f"displacement of {x!r} exceeds R"


@dataclass
class HallViolator:
    """A subset S of F whose R-ball is too small to hold two copies of S."""

    points: frozenset
    R: int

    def replay(self, window: WindowedSpace) -> None:
        space = window.space
        b = set(self.points) | outer_boundary(space, self.points, self.R)
        assert len(b) < 2 * len(self.points), "claimed violator satisfies Hall"


def _candidate_balls(window: WindowedSpace, R: int, budget: int):
    """Balls about the core points, radius by radius, centers in ``repr`` order.

    A ball and its R-neighbourhood only grow with the radius, so a center
    whose ball is halo-contaminated at one radius is dropped for good.
    """
    space = window.space
    centers = sorted(window.core, key=repr)
    produced = 0
    radius = 0
    while centers:
        clean = []
        for c in centers:
            F = ball(space, c, radius)
            bd, contaminated = window.boundary(F, R)
            if not contaminated:
                clean.append(c)
                yield F, len(bd)
                produced += 1
                if produced >= budget:
                    return
        centers = clean
        radius += 1


def _candidate_intervals(window: WindowedSpace, R: int, budget: int):
    if not isinstance(window.space, IntegerLineSpace):
        raise ValueError("interval strategy needs an integer-line window")
    core = sorted(window.core)
    lo, hi = core[0], core[-1]
    mid = (lo + hi) // 2
    for length in range(1, budget + 1):
        a = mid - length // 2
        b = a + length - 1
        if a < lo or b > hi:
            return
        F = set(range(a, b + 1))
        bd, contaminated = window.boundary(F, R)
        if not contaminated:
            yield F, len(bd)


def _candidate_greedy(window: WindowedSpace, R: int, budget: int):
    """Hill climbing: grow the set one boundary point at a time.

    The R-neighbourhood of a set is the union of the R-balls of its points,
    so in every metric space ∂_R(F ∪ {p}) = (∂_R F ∪ B_R(p)) − F − {p}.  A
    candidate p is therefore scored from its ball alone, as
    |∂_R F| + |B_R(p) − ∂_R F − F| − 1: the − 1 is p itself, which lies in
    its own ball and never in F.  All candidates at one step have the same
    size, so these counts order them as their ratios would, and the first
    one in ``repr`` order wins a tie.

    The kept F is not halo-contaminated, so F ∪ ∂_R F misses the halo, and
    F ∪ {p} is contaminated, by the window's rule, exactly when B_R(p)
    meets the halo.  Only the winner's boundary is built, and it is the
    next frontier.

    Every core point is scored at the first step.  Its ball is kept until
    the point joins F, since a point outside one frontier may enter a later
    one; so no ball is computed twice in one search, and no more balls are
    held at once than the first step holds.  F itself grows in place: each
    yielded F is valid until the next step.
    """
    space, halo = window.space, window.halo
    balls: dict = {}
    F: set = set()
    bd: set = set()
    candidates = sorted(window.core, key=repr)
    while True:
        best = best_count = None
        for p in candidates:
            b = balls.get(p)
            if b is None:
                b = balls[p] = space.ball_of(p, R)
            if not b.isdisjoint(halo):
                continue
            count = len(bd) + len(b - bd - F) - 1
            if best_count is None or count < best_count:
                best, best_count = p, count
        if best is None:
            return
        F.add(best)
        bd = (bd | balls.pop(best)) - F
        yield F, best_count
        if len(F) >= budget:
            return
        candidates = sorted((q for q in bd if q in window.core), key=repr)


# each strategy yields (F, |∂_R F|) for halo-free candidates only, each F
# scored once; F may change after the next step, so a caller keeps a copy
_STRATEGIES = {
    "balls": _candidate_balls,
    "intervals": _candidate_intervals,
    "greedy": _candidate_greedy,
}


def folner_search(
    window: WindowedSpace,
    R: int,
    epsilon: Fraction,
    strategy: str = "balls",
    budget: int = 200,
) -> FolnerResult:
    """Examine up to ``budget`` candidate sets and return the best ratio seen.

    Candidates are restricted to sets that are not halo-contaminated, so
    every reported ratio is faithful to the ambient space.  The search is
    deliberately incomplete: success means a witness was found, failure only
    means none was found among the examined candidates.  Ratios are compared
    as cross-multiplied counts; the first of equal ratios is kept.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy!r}")
    if R < 0:
        raise ValueError("radius must be nonnegative")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    epsilon = Fraction(epsilon)
    best: frozenset | None = None
    best_count = 0
    examined = 0
    for F, count in _STRATEGIES[strategy](window, R, budget):
        examined += 1
        if best is None or count * len(best) < best_count * len(F):
            best, best_count = frozenset(F), count
    if best is None:
        raise ValueError("no admissible candidate set; window too small for R")
    ratio = Fraction(best_count, len(best))
    return FolnerResult(
        points=best,
        ratio=ratio,
        success=ratio < epsilon,
        examined=examined,
    )


def doubling_check(window: WindowedSpace, F: Iterable, R: int) -> ParadoxWitness | HallViolator:
    """Try to fit two disjoint R-translates of F inside the window.

    This succeeds precisely when |B_R(S)| >= 2|S| for every S inside F, by
    max-flow duality on the doubled bipartite graph.  The returned object is
    either a witness pair of maps or a minimum-cut violating subset; exactly
    one of the two is possible.  Domains live in the core; images may use
    the whole window, halo included.
    """
    space = window.space
    Fs = set(F)
    if not Fs <= window.core:
        raise ValueError("the doubled set must lie inside the core")
    if R < 0:
        raise ValueError("R must be nonnegative")

    order = {p: i for i, p in enumerate(sorted(space.points, key=repr))}
    xs = sorted(Fs, key=order.__getitem__)
    balls = [sorted(space.ball_of(x, R), key=order.__getitem__) for x in xs]
    ys = sorted(set().union(*balls), key=order.__getitem__)
    # nodes: s = 0, t = 1, ("L", x) for x in xs, then ("R", y) for y in ys
    right = {y: i for i, y in enumerate(ys, 2 + len(xs))}
    net = FlowNetwork(["s", "t"] + [("L", x) for x in xs] + [("R", y) for y in ys])
    big = 2 * len(Fs) + 1
    net.add_edges(((0, i) for i in range(2, 2 + len(xs))), 2)
    arcs = iter(net.add_edges(((i, right[y]) for i, b in enumerate(balls, 2) for y in b), big))
    net.add_edges(((right[y], 1) for y in ys), 1)
    # per x, its (y, arc) pairs in ascending order of y
    target_arcs = {x: [(y, next(arcs)) for y in b] for x, b in zip(xs, balls)}

    value = net.max_flow(0, 1)
    if value == 2 * len(Fs):
        phi1: dict = {}
        phi2: dict = {}
        for x in Fs:
            hits = [y for y, e in target_arcs[x] if net.flow_on(e) > 0]
            assert len(hits) == 2, "flow decomposition must give two targets"
            phi1[x], phi2[x] = hits
        return ParadoxWitness(phi1=phi1, phi2=phi2, R=R)

    # the solve's last level search is the source side of a min cut
    S = {x for i, x in enumerate(xs, 2) if net.level[i] >= 0}
    violator = HallViolator(points=frozenset(S), R=R)
    violator.replay(window)
    return violator
