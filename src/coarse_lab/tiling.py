"""Tilings of arbitrary invariance: constructions and a verifier.

A tiling partitions the core of a window into uniformly bounded tiles whose
outer R-boundaries are small relative to the tiles, strictly below a target
ratio eps.  Four explicit constructions are provided (integer intervals,
sparse integer subsets, stacked column spaces, cycle-quotient box spaces)
together with a verifier that replays every claim from scratch.

The interval and sparse constructions cut their tiles as index runs of the
space's sorted points and read each tile's metadata off the two ends of its
run; the stacked and box constructions take theirs from the space kernels.
The verifier never reads that metadata to compute: it replays every count
and diameter through ``WindowedSpace.boundary_counts`` and
``space.diameter_of``, and compares.

A ``Tiling`` is frozen: its tiles, metadata and notes are tuples, and no
field can be reassigned.  So the verifier's report stays true of the tiling
it was computed for, and ``verify_tiling`` keeps it on the tiling: the
first call replays, later calls (``castle_from_tiling``'s among them)
return that report, which is frozen too.  ``dataclasses.replace`` makes a
new tiling with nothing cached.  A partition or radius error is never
cached; every call raises it again.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from typing import NamedTuple

from .space import (
    BoxSpace,
    IntegerLineSpace,
    StackedSpace,
    WindowedSpace,
    box_window,
    subset_window,
)


class PartitionError(ValueError):
    """Tiles overlap or fail to cover the core; offending points attached."""

    def __init__(self, message: str, points):
        super().__init__(f"{message}: {sorted(points, key=repr)[:20]!r}")
        self.points = set(points)


@dataclass(frozen=True)
class TileMeta:
    ratio: Fraction
    diameter: int
    contaminated: bool


@dataclass(frozen=True)
class Tiling:
    """A partition of the window core with per-tile invariance metadata.

    Frozen, with ``tiles``, ``meta`` and ``notes`` stored as tuples (lists
    are converted).  ``_report`` is where ``verify_tiling`` keeps its
    report; it is not an init field, so ``dataclasses.replace`` does not
    carry it over.
    """

    window: WindowedSpace
    tiles: tuple[frozenset, ...]
    R: int
    epsilon: Fraction
    meta: tuple[TileMeta, ...]
    diameter_bound: int
    notes: tuple[str, ...] = ()
    _report: TilingReport | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("tiles", "meta", "notes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def max_ratio(self) -> Fraction:
        return max((m.ratio for m in self.meta if not m.contaminated), default=Fraction(0))


class TileReport(NamedTuple):
    """One tile as ``verify_tiling`` recomputed it; ``boundary`` is |∂_R T|."""

    index: int
    size: int
    boundary: int
    diameter: int
    contaminated: bool

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.boundary, self.size)


@dataclass(frozen=True)
class TilingReport:
    """Everything ``verify_tiling`` recomputed, plus the verdict; immutable.

    The verdict ignores halo-contaminated tiles: the window cannot speak
    for the ambient space there.
    """

    tiles: tuple[TileReport, ...]
    max_ratio: Fraction
    max_diameter: int
    passed: bool
    failures: tuple[str, ...] = ()
    meta_mismatches: tuple[int, ...] = ()


def block_length(R: int, epsilon: Fraction) -> int:
    """Least integer strictly above 2R/eps, the canonical interval length."""
    if R < 1:
        raise ValueError("R must be a positive integer")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return math.floor(Fraction(2 * R) / epsilon) + 1


def _blocks(ends: list[int], N: int) -> list[tuple[int, int]]:
    """The nonempty index runs [ends[k], ends[k + 1]) each cut into runs of
    length N, the remainder merged into its final run so that run's length
    lands in [N, 2N); a run shorter than 2N, one shorter than N included,
    comes back whole."""
    cuts = [c for a, b in zip(ends, ends[1:]) for c in range(a, b - N + 1, N) or (a,)]
    return list(zip(cuts, [*cuts[1:], ends[-1]]))


def _tile_metas(window: WindowedSpace, tiles: list[frozenset], R: int) -> list[TileMeta]:
    """Metadata of tiles cut from the window's core, each a nonempty set of
    core points, from the space kernels."""
    diameter_of = window.space.diameter_of
    return [
        TileMeta(Fraction(b, len(tile)), diameter_of(tile), contaminated)
        for tile, (b, contaminated) in zip(tiles, window.boundary_counts(tiles, R))
    ]


def _cut_runs(
    values, runs: list[tuple[int, int]], core: tuple[int, int], R: int, flag_from: int | None = None
) -> tuple[list[frozenset], list[TileMeta]]:
    """Tiles ``values[a:b]`` for each index run (a, b), with metadata read off the run's two ends.

    ``values`` are the points of an integer space in increasing order, and
    the window's core is the index range ``core``; every point outside it is
    halo.  The run's R-boundary is the points within R of its ends but
    outside it, two index ranges found by bisection, and the tile is
    contaminated when they leave the core.  Tiles that start at index
    ``flag_from`` or later are flagged contaminated whatever their boundary
    says.  Tiles with equal boundary, size, diameter and flag share one
    frozen ``TileMeta``.
    """
    c0, c1 = core
    flag_from = len(values) if flag_from is None else flag_from
    shared: dict[tuple[int, int, int, bool], TileMeta] = {}
    tiles, meta = [], []
    for a, b in runs:
        first, last = values[a], values[b - 1]
        lo, hi = bisect_left(values, first - R), bisect_right(values, last + R)
        key = (a - lo + hi - b, b - a, last - first, lo < c0 or hi > c1 or a >= flag_from)
        m = shared.get(key)
        if m is None:
            m = shared[key] = TileMeta(Fraction(key[0], key[1]), key[2], key[3])
        tiles.append(frozenset(values[a:b]))
        meta.append(m)
    return tiles, meta


def tile_interval(window: WindowedSpace, R: int, epsilon: Fraction) -> Tiling:
    """Tile a contiguous integer core into blocks of the canonical length.

    Every interior block has boundary exactly 2R, hence ratio 2R/N < eps.
    A core shorter than one block comes back as a single flagged tile.  The
    halo of a line window is the two flanks of its core, so each block's
    metadata is read off its two ends.
    """
    epsilon = Fraction(epsilon)
    space = window.space
    if not isinstance(space, IntegerLineSpace):
        raise ValueError("interval tiling needs an integer-line window")
    core = window.core
    if not core:
        raise ValueError("window core is empty")
    # distinct integers are contiguous exactly when they span len(core) values
    first = min(core)
    if max(core) - first + 1 != len(core):
        raise ValueError("window core is not a contiguous integer interval")
    N = block_length(R, epsilon)
    c0 = first - space.points[0]
    c1 = c0 + len(core)
    tiles, meta = _cut_runs(space.points, _blocks([c0, c1], N), (c0, c1), R)
    short = len(core) < N
    bound = len(core) - 1 if short else 2 * N - 2
    return Tiling(window, tiles, R, epsilon, meta, bound, ["window too small"] if short else [])


def tile_sparse_subset(
    A,
    R: int,
    epsilon: Fraction,
    prefix_of_unbounded: bool = False,
) -> Tiling:
    """Tile a strictly increasing integer set viewed as its own space.

    The set splits at gaps greater than R into maximal runs.  Runs shorter
    than the canonical block length are kept whole (their boundary inside
    the set is empty), longer runs are chopped into blocks.  Every tile has
    diameter at most 2RN.  When the set is declared a prefix of an unbounded
    set, the final run's tiles are flagged contaminated: the truncation may
    have cut that run short.  Each tile's metadata is read off the two ends
    of its run.
    """
    epsilon = Fraction(epsilon)
    window = subset_window(A)
    values = window.space.points
    N = block_length(R, epsilon)
    breaks = [i for i, (prev, cur) in enumerate(zip(values, values[1:]), 1) if cur - prev > R]
    ends = [0, *breaks, len(values)]
    flag_from = ends[-2] if prefix_of_unbounded else None
    tiles, meta = _cut_runs(values, _blocks(ends, N), (0, len(values)), R, flag_from)
    return Tiling(window, tiles, R, epsilon, meta, 2 * R * N)


def stacked_block_height(window: WindowedSpace, R: int, epsilon: Fraction) -> tuple[int, int]:
    """The base-ball bound S and block height N for a stacked window."""
    space = window.space
    if not isinstance(space, StackedSpace):
        raise ValueError("stacked tiling needs a window built by stacked_product_window")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    S = max(len(space.ball_of((x, 0), R)) for x in space.base.points)
    N = math.floor(Fraction(max(S, R) + R) / Fraction(epsilon)) + 1
    return S, N


def tile_stacked_product(window: WindowedSpace, R: int, epsilon: Fraction) -> Tiling:
    """Tile a stacked column window into per-column level blocks.

    Blocks of height N chosen above (max{S,R}+R)/eps make the bottom block
    of each column (boundary at most S+R points) and all higher blocks
    (boundary at most 2R points) strictly eps-invariant.
    """
    epsilon = Fraction(epsilon)
    space = window.space
    S, N = stacked_block_height(window, R, epsilon)
    core_height = space.K - window.halo_depth
    if N > core_height or core_height % N != 0:
        needed = max(N, core_height - core_height % N + N)
        raise ValueError(
            f"core height {core_height} is not a positive multiple of N={N}; "
            f"nearest admissible core height is {needed}"
        )
    tiles = []
    for x in sorted(space.base.points, key=repr):
        for k in range(core_height // N):
            tiles.append(frozenset((x, n) for n in range(k * N, (k + 1) * N)))
    return Tiling(window, tiles, R, epsilon, _tile_metas(window, tiles, R), N - 1)


@dataclass(frozen=True)
class BoxTilingPlan:
    """Choices made by the box-space construction, kept for inspection."""

    monotile_index: int
    monotile_length: int
    absorbed_blocks: tuple[int, ...]
    arc_blocks: tuple[int, ...]


def box_tiling_plan(moduli, R: int, epsilon: Fraction) -> BoxTilingPlan:
    """Pick the monotile and split the quotients into absorbed and arc blocks.

    The monotile T is the shortest initial interval with 2R/|T| < eps, with
    center reach L = |T| - 1.  A quotient block hosts arcs only if it is
    separated from all earlier blocks by more than R and long enough for the
    projection from the integer line to be isometric on intervals of
    diameter 2(R + L); everything before the first such block is absorbed.
    """
    epsilon = Fraction(epsilon)
    mods = list(moduli)
    if not mods:
        raise ValueError("empty moduli sequence")
    space = BoxSpace(mods)  # refuses a modulus below 1 before the chain test divides by it
    if any(b % a != 0 or b <= a for a, b in zip(mods, mods[1:])):
        raise ValueError("moduli must be a strictly increasing divisibility chain")
    i0 = next((i for i, m in enumerate(mods) if Fraction(2 * R, m) < epsilon), None)
    if i0 is None:
        raise ValueError("no admissible monotile length within the supplied moduli")
    m0 = mods[i0]
    L = m0 - 1

    def isometric(i: int) -> bool:
        # the projection onto a cycle of length m is isometric on an
        # interval of diameter 2(R+L) iff 2*2(R+L) <= m
        return mods[i] >= 4 * (R + L)

    def separated(i1: int) -> bool:
        return all(
            space.cross_block_dist(i, j) > R
            for i in range(i1, len(mods))
            for j in range(i1)
        )

    i1 = next(
        (i for i in range(i0, len(mods)) if isometric(i) and separated(i)),
        None,
    )
    if i1 is None:
        raise ValueError(
            "no quotient passes the separation and isometry-radius checks"
        )
    return BoxTilingPlan(
        monotile_index=i0,
        monotile_length=m0,
        absorbed_blocks=tuple(range(i1)),
        arc_blocks=tuple(range(i1, len(mods))),
    )


def tile_box_space(moduli, R: int, epsilon: Fraction) -> Tiling:
    """Tile a coarse disjoint union of cycles by arcs of a monotile length.

    Quotients failing the separation or isometry-radius checks are absorbed
    into a single tile X_0, which then has empty outer R-boundary; every
    remaining cycle splits into arcs of the monotile length, each with
    boundary exactly 2R inside its own cycle.
    """
    epsilon = Fraction(epsilon)
    mods = list(moduli)
    plan = box_tiling_plan(mods, R, epsilon)
    window = box_window(mods)
    m0 = plan.monotile_length
    tiles: list[frozenset] = []
    if plan.absorbed_blocks:
        x0 = frozenset((i, a) for i in plan.absorbed_blocks for a in range(mods[i]))
        tiles.append(x0)
    for i in plan.arc_blocks:
        for c in range(0, mods[i], m0):
            tiles.append(frozenset((i, c + t) for t in range(m0)))
    meta = _tile_metas(window, tiles, R)
    bound = max(m.diameter for m in meta)
    notes = [
        f"monotile length {m0} from block {plan.monotile_index}",
        f"absorbed blocks {list(plan.absorbed_blocks)}",
    ]
    return Tiling(window, tiles, R, epsilon, meta, bound, notes)


def verify_tiling(t: Tiling) -> TilingReport:
    """Replay every claim of a tiling from scratch, once per tiling.

    Raises :class:`PartitionError` when the tiles are not an exact partition
    of the core.  The verdict is a pass when every non-contaminated tile is
    strictly below epsilon, no tile exceeds the declared diameter bound, and
    the bound itself is declared.  Ratios are compared as boundary and tile
    counts, cross-multiplied; only the reported maximum is a ``Fraction``.

    The first call on a tiling replays and keeps the immutable report on
    the frozen tiling; later calls return that same report without
    replaying.  Errors are not kept, so a broken partition or a negative
    radius raises on every call.
    """
    report = t._report
    if report is None:
        report = _replay(t)
        object.__setattr__(t, "_report", report)
    return report


def _replay(t: Tiling) -> TilingReport:
    """The report of :func:`verify_tiling`, recomputed from the tiling's tiles."""
    window = t.window
    if not all(t.tiles):
        raise PartitionError("empty tile", set())
    covered = set().union(*t.tiles)
    if len(covered) != sum(map(len, t.tiles)):
        seen: set = set()
        overlap: set = set()
        for tile in t.tiles:
            for p in tile:
                if p in seen:
                    overlap.add(p)
                seen.add(p)
        raise PartitionError("tiles overlap", overlap)
    if covered != window.core:
        missing = window.core - covered
        if missing:
            raise PartitionError("core points not covered", missing)
        raise PartitionError("tiles leave the core", covered - window.core)

    eps = Fraction(t.epsilon)
    eps_num, eps_den = eps.numerator, eps.denominator
    best_b, best_n = 0, 1
    reports = []
    failures = []
    mismatches = []
    diameter_of, bound = window.space.diameter_of, t.diameter_bound
    # the partition check made every tile a nonempty set of core points; a
    # tile past the last declared meta is paired with None
    counts = window.boundary_counts(t.tiles, t.R)
    for i, (tile, (b, contaminated), declared) in enumerate(zip(t.tiles, counts, chain(t.meta, repeat(None)))):
        if declared is not None:
            contaminated = contaminated or declared.contaminated
        n = len(tile)
        diam = diameter_of(tile)
        reports.append(TileReport(i, n, b, diam, contaminated))
        if declared is not None and (
            declared.ratio.numerator * n != b * declared.ratio.denominator
            or declared.diameter != diam
        ):
            mismatches.append(i)
        if not contaminated:
            if b * eps_den >= eps_num * n:
                failures.append(
                    f"tile {i}: ratio {Fraction(b, n)} is not strictly below {t.epsilon}"
                )
            if b * best_n > best_b * n:
                best_b, best_n = b, n
        if diam > bound:
            failures.append(f"tile {i}: diameter {diam} exceeds declared bound {bound}")
    max_diam = max((r.diameter for r in reports), default=0)
    return TilingReport(
        tiles=tuple(reports),
        max_ratio=Fraction(best_b, best_n),
        max_diameter=max_diam,
        passed=not failures,
        failures=tuple(failures),
        meta_mismatches=tuple(mismatches),
    )
