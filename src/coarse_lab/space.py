"""Finite bounded-geometry metric spaces with integer metrics.

A window splits a finite point set into a *core* and a *halo* so that the
finite set can stand in for an infinite ambient space: any boundary
computation at radius R <= halo depth on a core subset sees exactly what
the ambient space would show.  All distances are nonnegative integers and
all invariance ratios are exact rationals, so strict inequalities such as
|boundary| < eps * |F| never involve floating point.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress, cycle, islice, product, repeat
from operator import lt
from typing import AbstractSet, Collection, Hashable, Iterable, Sequence

Point = Hashable


class FiniteMetricSpace:
    """Base class: a finite point set with a total symmetric integer metric.

    Each subclass provides ``dist``, ``boundary_of`` and ``diameter_of``
    from its own structure; the base class holds the point index and the
    bulk operations built on those kernels.  A ball is its center with the
    center's boundary, unless the subclass builds it directly.
    ``boundary_counts`` gives |∂_R F| for each set of a batch as the size of
    ``boundary_of``; integer subsets, lines among them, count a set that is
    one run in closed form, building no set.  ``pairs_within`` lists the
    pairs of distinct points within a distance by reading one ball per
    point; graphs read their edges at distance 1.
    """

    def __init__(self, points: Iterable[Point]):
        pts = tuple(points)
        index = dict(zip(pts, range(len(pts))))
        if len(index) < len(pts):
            seen: set = set()
            first = next(p for p in pts if p in seen or seen.add(p))
            raise ValueError(f"duplicate point identifier: {first!r}")
        self.points = pts
        self._index = index

    def __contains__(self, p: Point) -> bool:
        return p in self._index

    def point_set(
        self, F: Iterable[Point], message: str = "set contains an unknown point: {!r}"
    ) -> AbstractSet[Point]:
        """F as a set of points of this space; a set or frozenset is not copied.

        Membership is one C-level subset test.  Only a failure walks the
        points, in the order of a fresh ``set(F)``, to name the first unknown
        one in ``message``.
        """
        Fs = F if isinstance(F, (set, frozenset)) else set(F)
        if not self._index.keys() >= Fs:
            for p in set(F) if Fs is F else Fs:
                if p not in self._index:
                    raise ValueError(message.format(p))
        return Fs

    def _require_points(self, *ps: Point) -> None:
        """Raise ``KeyError(p)`` for the first p that is not a point of this space."""
        for p in ps:
            if p not in self._index:
                raise KeyError(p)

    # -- bulk operations over the subclass kernels, overridable -----------

    def ball_of(self, center: Point, R: int) -> set:
        return {center} | self.boundary_of({center}, R)

    def boundary_counts(self, sets: Iterable[Collection[Point]], R: int) -> list[int]:
        """|∂_R F| for each F, a nonempty collection of distinct points."""
        boundary_of = self.boundary_of
        return [len(boundary_of(_as_set(F), R)) for F in sets]

    def pairs_within(self, P: int) -> list[tuple[Point, Point]]:
        """Every unordered pair of distinct points at distance <= P, each once."""
        index = self._index
        return [
            (p, q)
            for i, p in enumerate(self.points)
            for q in self.ball_of(p, P)
            if index[q] > i
        ]


class GraphSpace(FiniteMetricSpace):
    """Hop-count shortest-path metric of an undirected graph.

    Pairs in distinct components get the documented sentinel distance
    ``len(points) + 1``, which keeps the metric total; every radius used in
    practice stays below the sentinel.  Every query is a breadth-first
    search bounded to the question asked, built from ``_step``; nothing is
    cached per point, so memory grows with the searched region, not with n.
    """

    def __init__(self, points: Iterable[Point], edges: Iterable[tuple[Point, Point]]):
        super().__init__(points)
        pts, get = self.points, self._index.get
        n = len(pts)
        # an edge is keyed i * n + j by its vertex indices i < j
        keys: list[int] = []
        for a, b in edges:
            i = get(a)
            j = None if i is None else get(b)
            if j is None:
                raise ValueError(f"edge ({a!r}, {b!r}) references an undeclared vertex")
            if i == j:
                raise ValueError(f"self-loop edge at {a!r}")
            keys.append(i * n + j if i < j else j * n + i)
        # keys that already rise strictly (the generators' edges do) need no dedupe or sort
        if not all(map(lt, keys, islice(keys, 1, None))):
            keys = sorted(set(keys))
        # in key order a vertex meets its lower neighbours, then its higher: index order
        nbrs: list[list[Point]] = [[] for _ in pts]
        for i, j in map(divmod, keys, repeat(n)):
            nbrs[i].append(pts[j])
            nbrs[j].append(pts[i])
        self._adj = dict(zip(pts, nbrs))
        self.sentinel = n + 1

    def _step(self, seen: set, frontier: list) -> list:
        """The breadth-first layer after frontier; its points are added to seen."""
        adj = self._adj
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        return nxt

    def _eccentricity(self, f: Point, F: AbstractSet[Point]) -> int:
        """The largest distance from f to a point of F: layers until F is seen."""
        seen = {f}
        frontier = [f]
        d = 0
        while not seen >= F:
            frontier = self._step(seen, frontier)
            if not frontier:
                return self.sentinel
            d += 1
        return d

    def dist(self, x: Point, y: Point) -> int:
        self._require_points(x, y)
        return self._eccentricity(x, {y})

    def _reach(self, F: Collection[Point], R: int) -> set:
        """The points within R of F, F among them; the whole space once R reaches the sentinel."""
        if R >= self.sentinel:
            return set(self.points) if F else set()
        seen = set(F)
        frontier = list(F)
        for _ in range(R):
            frontier = self._step(seen, frontier)
            if not frontier:
                break
        return seen

    def ball_of(self, center: Point, R: int) -> set:
        return self._reach((center,), R)

    def boundary_of(self, F: set, R: int) -> set:
        return self._reach(F, R) - F

    def pairs_within(self, P: int) -> list[tuple[Point, Point]]:
        if P != 1:
            return super().pairs_within(P)
        # the pairs at distance 1 are the edges: each is read from its lower-indexed end
        index, adj = self._index, self._adj
        return [(p, q) for i, p in enumerate(self.points) for q in adj[p] if index[q] > i]

    def diameter_of(self, F: set) -> int:
        return max((self._eccentricity(f, F) for f in F), default=0)


def _as_set(F: Collection[Point]) -> AbstractSet[Point]:
    """F itself when it is a set or frozenset, else a set of its points."""
    return F if isinstance(F, (set, frozenset)) else set(F)


def _by_first(F: Iterable[tuple]) -> dict[Point, list]:
    """The second coordinates of F's pairs, listed under their first coordinate."""
    groups: dict[Point, list] = {}
    for x, n in F:
        groups.setdefault(x, []).append(n)
    return groups


def _runs(values: list[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers in a sorted nonempty list, as (first, last)."""
    runs = []
    start = prev = values[0]
    for v in values[1:]:
        if v != prev + 1:
            runs.append((start, prev))
            start = v
        prev = v
    runs.append((start, prev))
    return runs


class IntegerSubsetSpace(FiniteMetricSpace):
    """A strictly increasing set of integers with the metric |a - b|.

    This is the subspace metric inherited from the integer line; the subset
    is treated as the whole space, so boundaries count only subset points.
    Every kernel bisects the sorted ``points`` tuple: a ball is one slice of
    it, and a set's boundary is the two flanks of each of its index runs, so
    a set that is one run is counted in closed form.
    """

    def __init__(self, values: Iterable[int]):
        vals = tuple(values)
        if not vals:
            raise ValueError("empty integer subset")
        if not all(map(lt, vals, islice(vals, 1, None))):
            raise ValueError("values must be strictly increasing")
        super().__init__(vals)

    def dist(self, x: int, y: int) -> int:
        self._require_points(x, y)
        return abs(x - y)

    def ball_of(self, center: int, R: int) -> set:
        vals = self.points
        return set(vals[bisect_left(vals, center - R):bisect_right(vals, center + R)])

    def boundary_of(self, F: set, R: int) -> set:
        if not F:
            return set()
        vals, index = self.points, self._index
        i, j = index[min(F)], index[max(F)]
        # a set that is one index run [i, j] needs no sort, and its flanks miss F
        runs = [(i, j)] if j - i + 1 == len(F) else _runs(sorted(map(index.__getitem__, F)))
        out: set = set()
        for i, j in runs:
            out.update(vals[bisect_left(vals, vals[i] - R):i])
            out.update(vals[j + 1:bisect_right(vals, vals[j] + R)])
        return out if len(runs) == 1 else out - F

    def boundary_counts(self, sets: Iterable[Collection[int]], R: int) -> list[int]:
        vals, index = self.points, self._index
        counts = []
        for F in sets:
            a, b = min(F), max(F)
            i, j = index[a], index[b]
            if j - i + 1 == len(F):
                # F is the run vals[i..j]: its boundary is the values within R outside it
                counts.append(i - bisect_left(vals, a - R) + bisect_right(vals, b + R) - j - 1)
            else:
                counts.append(len(self.boundary_of(_as_set(F), R)))
        return counts

    def diameter_of(self, F: set) -> int:
        return max(F) - min(F)


class IntegerLineSpace(IntegerSubsetSpace):
    """A finite integer interval [lo, hi]: the subset space of its range."""

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError("empty integer interval")
        super().__init__(range(lo, hi + 1))


class StackedSpace(FiniteMetricSpace):
    """Finite window of the column space over a base space.

    Points are pairs (x, n) with x in the base and 0 <= n < K.  The metric
    is d((x,n),(y,m)) = n + m + d_base(x,y) for x != y and |n - m| on a
    single column, so any route between distinct columns passes through the
    base level.
    """

    def __init__(self, base: FiniteMetricSpace, K: int):
        if K < 2:
            raise ValueError("stacked window needs height K >= 2")
        super().__init__(product(base.points, range(K)))
        self.base = base
        self.K = K

    def dist(self, p: tuple, q: tuple) -> int:
        self._require_points(p, q)
        (x, n), (y, m) = p, q
        if x == y:
            return abs(n - m)
        return n + m + self.base.dist(x, y)

    def _other_columns(self, x: Point, budget: int, out: set) -> None:
        """Add to out the points of columns y != x within budget of (x, 0).

        A route to another column passes through level 0, so column y at
        base distance r gets levels 0 .. budget - r, every level once
        r <= full; so at most K base balls are read however large budget is.
        """
        full = budget - self.K + 1
        inner = {x}
        if full >= 1:
            inner = self.base.ball_of(x, full)
            out.update(product(inner - {x}, range(self.K)))
        for r in range(max(1, full + 1), budget + 1):
            ring = self.base.ball_of(x, r)
            out.update(product(ring - inner, range(budget - r + 1)))
            inner = ring

    def ball_of(self, center: tuple, R: int) -> set:
        # the center's column run, then the columns reached through level 0;
        # the center itself is kept at every radius, as the base class keeps it
        x, n = center
        out = {center}
        out.update(product((x,), range(max(0, n - R), min(self.K, n + R + 1))))
        self._other_columns(x, R - n, out)
        return out

    def boundary_of(self, F: set, R: int) -> set:
        out: set = set()
        for x, levels in _by_first(F).items():
            levels.sort()
            for a, b in _runs(levels):
                out.update((x, m) for m in range(max(0, a - R), a))
                out.update((x, m) for m in range(b + 1, min(self.K - 1, b + R) + 1))
            # the lowest level reaches furthest into the other columns
            self._other_columns(x, R - levels[0], out)
        return out - F

    def diameter_of(self, F: set) -> int:
        best = 0
        items = [(x, min(levels), max(levels)) for x, levels in _by_first(F).items()]
        for i, (x, lo_x, hi_x) in enumerate(items):
            best = max(best, hi_x - lo_x)
            for y, _, hi_y in items[i + 1:]:
                best = max(best, hi_x + hi_y + self.base.dist(x, y))
        return best


class BoxSpace(FiniteMetricSpace):
    """Coarse disjoint union of cycle graphs, one per modulus.

    Points are pairs (i, a) with a in the cycle of length moduli[i].  Within
    a block the distance is the cycle-graph distance; across blocks i != j
    it is D_i + D_j where D_i accumulates the block diameters plus one, so
    block separation grows with the index.
    """

    def __init__(self, moduli: Sequence[int]):
        mods = list(moduli)
        if not mods or any(m < 1 for m in mods):
            raise ValueError("moduli must be positive integers")
        super().__init__((i, a) for i, m in enumerate(mods) for a in range(m))
        self.moduli = mods
        offsets = []
        acc = 0
        for m in mods:
            acc += m // 2 + 1
            offsets.append(acc)
        self.block_offsets = offsets

    def _cycle_dist(self, m: int, a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, m - d)

    def dist(self, p: tuple, q: tuple) -> int:
        self._require_points(p, q)
        (i, a), (j, b) = p, q
        if i == j:
            return self._cycle_dist(self.moduli[i], a, b)
        return self.cross_block_dist(i, j)

    def cross_block_dist(self, i: int, j: int) -> int:
        """The distance between any two points of distinct blocks i and j."""
        return self.block_offsets[i] + self.block_offsets[j]

    def boundary_of(self, F: set, R: int) -> set:
        blocks = _by_first(F)
        # D_j > m_j / 2, so a radius that crosses into a block F meets already
        # covers its cycle; other blocks are reached from F's lowest block
        near = min((self.block_offsets[i] for i in blocks), default=R + 1)
        out: set = set()
        for j, mj in enumerate(self.moduli):
            if j in blocks and 2 * R + 1 < mj:
                out.update((j, (a + d) % mj) for a in blocks[j] for d in range(-R, R + 1))
            elif j in blocks or near + self.block_offsets[j] <= R:
                out.update((j, b) for b in range(mj))
        return out - F

    def diameter_of(self, F: set) -> int:
        blocks = _by_first(F)
        best = 0
        idxs = sorted(blocks)
        for i in idxs:
            m = self.moduli[i]
            pts = blocks[i]
            for u, a in enumerate(pts):
                for b in pts[u + 1:]:
                    best = max(best, self._cycle_dist(m, a, b))
        for u, i in enumerate(idxs):
            for j in idxs[u + 1:]:
                best = max(best, self.cross_block_dist(i, j))
        return best


@dataclass(frozen=True)
class WindowedSpace:
    """A finite stand-in for an infinite space: core plus quarantined halo.

    The halo absorbs truncation artifacts.  A set F is halo-contaminated at
    radius R when F ∪ ∂_R F meets the halo, that is (the metric being
    symmetric) when F meets N_R(halo) = halo ∪ ∂_R(halo); only a clean F
    has the boundary the ambient space gives it.  ``halo_depth`` is declared
    by the window's constructor; nothing checks that every halo point lies
    within it of the core.  ``boundary`` gives one checked set's boundary
    and flag; ``boundary_counts`` gives a batch's sizes and flags.
    """

    space: FiniteMetricSpace
    core: frozenset
    halo: frozenset
    halo_depth: int

    def __post_init__(self):
        core, halo, keys = self.core, self.halo, self.space._index.keys()
        if not core.isdisjoint(halo):
            raise ValueError("core and halo overlap")
        # disjoint sets partition the points when both lie in them and the sizes add up
        if len(core) + len(halo) != len(self.space.points) or not (keys >= core and keys >= halo):
            raise ValueError("core and halo do not partition the window")
        if self.halo_depth < 0:
            raise ValueError("halo depth must be nonnegative")

    def boundary(self, F: Collection[Point], R: int) -> tuple[set, bool]:
        """The outer R-boundary of F, and whether F is halo-contaminated.

        The empty set has no boundary and meets no halo, so it is clean.
        For a nonempty F, |∂_R F| / |F| is its Følner ratio.  Callers compare
        ratios by cross-multiplying counts and build a ``Fraction`` only for
        a ratio they store or report, and skip contaminated sets or downgrade
        them to advisory.
        """
        bd = outer_boundary(self.space, F, R)
        return bd, not (self.halo.isdisjoint(bd) and self.halo.isdisjoint(F))

    def boundary_counts(self, sets: Sequence[Collection[Point]], R: int) -> Iterable[tuple[int, bool]]:
        """(|∂_R F|, whether F is halo-contaminated) for each F of a batch.

        Contract: every set is a nonempty collection of distinct window
        points, and the caller has established this for the whole batch (a
        partition of the core, one membership test over all the sets, or
        sets cut from the core), so no set is looked up here.  R is checked
        once, before the first boundary, so an empty batch raises nothing.
        Every count comes from the space's ``boundary_counts``; the flags
        test each set against N_R(halo), built once per batch as the halo
        with its ``outer_boundary``.
        """
        if not sets:
            return []
        if R < 0:
            raise ValueError("radius must be nonnegative")
        counts = self.space.boundary_counts(sets, R)
        if not self.halo:
            return zip(counts, repeat(False))
        near = self.halo | outer_boundary(self.space, self.halo, R)
        return zip(counts, [not near.isdisjoint(F) for F in sets])


# ---------------------------------------------------------------------------
# operations


def build_graph_metric(vertices: Iterable[Point], edges: Iterable[tuple[Point, Point]]) -> GraphSpace:
    """Shortest-path metric of an undirected graph.

    Distinct components are assigned the sentinel distance n + 1 so the
    metric stays total.
    """
    return GraphSpace(vertices, edges)


def ball(space: FiniteMetricSpace, center: Point, R: int) -> set:
    """Closed ball {y : d(center, y) <= R}."""
    if center not in space:
        raise ValueError(f"unknown center: {center!r}")
    if R < 0:
        raise ValueError("radius must be nonnegative")
    return space.ball_of(center, R)


def outer_boundary(space: FiniteMetricSpace, F: Iterable[Point], R: int) -> set:
    """Outer R-boundary: the points outside F at distance at most R from F."""
    Fs = space.point_set(F)
    if R < 0:
        raise ValueError("radius must be nonnegative")
    if not Fs:
        return set()
    return space.boundary_of(Fs, R)


def stacked_product_window(X: FiniteMetricSpace, K: int, halo_depth: int | None = None) -> WindowedSpace:
    """Stack K copies of X into a column space and quarantine the top layers.

    The ambient column space is infinite upward, so the top of a finite
    window lies about boundaries; by default the top quarter (rounded down)
    is declared halo.
    """
    space = StackedSpace(X, K)
    H = K // 4 if halo_depth is None else halo_depth
    if H < 0 or H >= K:
        raise ValueError("halo depth must satisfy 0 <= H < K")
    # the points run column by column, levels 0 .. K - 1 in each
    levels = [True] * (K - H) + [False] * H
    core = frozenset(compress(space.points, cycle(levels)))
    halo = frozenset(compress(space.points, cycle([not b for b in levels])))
    return WindowedSpace(space, core, halo, H)


def integer_window(lo: int, hi: int, halo_depth: int) -> WindowedSpace:
    """Integer interval core [lo, hi] padded with halo_depth points per side."""
    if lo > hi:
        raise ValueError("empty core interval")
    if halo_depth < 0:
        raise ValueError("halo depth must be nonnegative")
    space = IntegerLineSpace(lo - halo_depth, hi + halo_depth)
    core = frozenset(range(lo, hi + 1))
    halo = frozenset(chain(range(lo - halo_depth, lo), range(hi + 1, hi + halo_depth + 1)))
    return WindowedSpace(space, core, halo, halo_depth)


def regular_tree_window(degree: int, core_depth: int, halo_depth: int) -> WindowedSpace:
    """Ball of a degree-regular tree, the outermost halo_depth shells quarantined.

    The root has ``degree`` children and every other internal node has
    degree - 1 children, so the full tree is degree-regular away from the
    leaves.  Node identifiers are path strings, e.g. "v", "v0", "v02".
    """
    if degree < 2:
        raise ValueError("tree degree must be at least 2")
    if core_depth < 0 or halo_depth < 0:
        raise ValueError("depths must be nonnegative")
    # shell by shell, so the core comes first; parents[k] is vertices[k + 1]'s parent
    digits = [str(c) for c in range(degree)]
    vertices = ["v"]
    parents: list[str] = []
    shell = ["v"]
    n_core = 1
    for depth in range(1, core_depth + halo_depth + 1):
        fanout = digits if depth == 1 else digits[:-1]
        parents += [p for p in shell for _ in fanout]
        shell = [p + c for p in shell for c in fanout]
        vertices += shell
        if depth == core_depth:
            n_core = len(vertices)
    space = GraphSpace(vertices, zip(parents, islice(vertices, 1, None)))
    core = frozenset(islice(vertices, n_core))
    halo = frozenset(islice(vertices, n_core, None))
    return WindowedSpace(space, core, halo, halo_depth)


def subset_window(values: Iterable[int]) -> WindowedSpace:
    """A strictly increasing integer set treated as a complete space (no halo)."""
    space = IntegerSubsetSpace(values)
    return WindowedSpace(space, frozenset(space.points), frozenset(), 0)


def box_window(moduli: Sequence[int]) -> WindowedSpace:
    """Coarse disjoint union of cycles treated as a complete space (no halo)."""
    space = BoxSpace(moduli)
    return WindowedSpace(space, frozenset(space.points), frozenset(), 0)
