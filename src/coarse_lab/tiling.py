"""Tilings of arbitrary invariance: constructions and a verifier.

A tiling partitions the core of a window into uniformly bounded tiles whose
outer R-boundaries are small relative to the tiles, strictly below a target
ratio eps.  Four explicit constructions are provided (integer intervals,
sparse integer subsets, stacked column spaces, cycle-quotient box spaces)
together with a verifier that replays every claim from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

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


@dataclass
class Tiling:
    """A partition of the window core with per-tile invariance metadata."""

    window: WindowedSpace
    tiles: list[frozenset]
    R: int
    epsilon: Fraction
    meta: list[TileMeta]
    diameter_bound: int
    notes: list[str] = field(default_factory=list)

    def max_ratio(self) -> Fraction:
        return max((m.ratio for m in self.meta if not m.contaminated), default=Fraction(0))


@dataclass
class TileReport:
    """One tile as ``verify_tiling`` recomputed it; ``boundary`` is |∂_R T|."""

    index: int
    size: int
    boundary: int
    diameter: int
    contaminated: bool

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.boundary, self.size)


@dataclass
class TilingReport:
    """Everything ``verify_tiling`` recomputed, plus the verdict.

    The verdict ignores contaminated tiles: their boundaries meet the halo,
    so the window cannot speak for the ambient space there.
    """

    tiles: list[TileReport]
    max_ratio: Fraction
    max_diameter: int
    passed: bool
    failures: list[str] = field(default_factory=list)
    meta_mismatches: list[int] = field(default_factory=list)


def block_length(R: int, epsilon: Fraction) -> int:
    """Least integer strictly above 2R/eps, the canonical interval length."""
    if R < 1:
        raise ValueError("R must be a positive integer")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return math.floor(Fraction(2 * R) / epsilon) + 1


def _chop(run: list, N: int) -> list[list]:
    """Split a run into blocks of length N, the remainder merged into the
    final block so its length lands in [N, 2N)."""
    if len(run) < 2 * N:
        return [run]
    count = len(run) // N
    blocks = [run[i * N:(i + 1) * N] for i in range(count - 1)]
    blocks.append(run[(count - 1) * N:])
    return blocks


def _tile_meta(window: WindowedSpace, tile: frozenset, R: int, forced_contaminated: bool = False) -> TileMeta:
    bd, contaminated = window.boundary(tile, R)
    diam = window.space.diameter_of(tile)
    return TileMeta(
        ratio=Fraction(len(bd), len(tile)),
        diameter=diam,
        contaminated=forced_contaminated or contaminated,
    )


def tile_interval(window: WindowedSpace, R: int, epsilon: Fraction) -> Tiling:
    """Tile a contiguous integer core into blocks of the canonical length.

    Every interior block has boundary exactly 2R, hence ratio 2R/N < eps.
    A core shorter than one block comes back as a single flagged tile.
    """
    epsilon = Fraction(epsilon)
    if not isinstance(window.space, IntegerLineSpace):
        raise ValueError("interval tiling needs an integer-line window")
    core = sorted(window.core)
    if any(b != a + 1 for a, b in zip(core, core[1:])):
        raise ValueError("window core is not a contiguous integer interval")
    N = block_length(R, epsilon)
    notes = []
    if len(core) < N:
        notes.append("window too small")
        blocks = [core]
        bound = len(core) - 1
    else:
        blocks = _chop(core, N)
        bound = 2 * N - 2
    tiles = [frozenset(b) for b in blocks]
    meta = [_tile_meta(window, t, R) for t in tiles]
    return Tiling(window, tiles, R, epsilon, meta, bound, notes)


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
    have cut that run short.
    """
    epsilon = Fraction(epsilon)
    window = subset_window(A)
    values = list(window.space.points)
    N = block_length(R, epsilon)
    runs: list[list[int]] = [[values[0]]]
    for prev, cur in zip(values, values[1:]):
        if cur - prev > R:
            runs.append([cur])
        else:
            runs[-1].append(cur)
    tiles: list[frozenset] = []
    meta: list[TileMeta] = []
    for ri, run in enumerate(runs):
        last_run = ri == len(runs) - 1
        blocks = [run] if len(run) < N else _chop(run, N)
        for b in blocks:
            t = frozenset(b)
            tiles.append(t)
            meta.append(_tile_meta(window, t, R, forced_contaminated=prefix_of_unbounded and last_run))
    return Tiling(window, tiles, R, epsilon, meta, 2 * R * N)


def stacked_block_height(window: WindowedSpace, R: int, epsilon: Fraction) -> tuple[int, int]:
    """The base-ball bound S and block height N for a stacked window."""
    space = window.space
    if not isinstance(space, StackedSpace):
        raise ValueError("stacked tiling needs a window built by stacked_product_window")
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
    meta = [_tile_meta(window, t, R) for t in tiles]
    return Tiling(window, tiles, R, epsilon, meta, N - 1)


@dataclass(frozen=True)
class BoxTilingPlan:
    """Choices made by the box-space construction, kept for inspection."""

    monotile_index: int
    monotile_length: int
    center_reach: int
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
    if any(b % a != 0 or b <= a for a, b in zip(mods, mods[1:])):
        raise ValueError("moduli must be a strictly increasing divisibility chain")
    space = BoxSpace(mods)
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
        center_reach=L,
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
    meta = [_tile_meta(window, t, R) for t in tiles]
    bound = max(m.diameter for m in meta)
    notes = [
        f"monotile length {m0} from block {plan.monotile_index}",
        f"absorbed blocks {list(plan.absorbed_blocks)}",
    ]
    return Tiling(window, tiles, R, epsilon, meta, bound, notes)


def verify_tiling(t: Tiling) -> TilingReport:
    """Replay every claim of a tiling from scratch.

    Raises :class:`PartitionError` when the tiles are not an exact partition
    of the core.  The verdict is a pass when every non-contaminated tile is
    strictly below epsilon, no tile exceeds the declared diameter bound, and
    the bound itself is declared.  Ratios are compared as boundary and tile
    counts, cross-multiplied; only the reported maximum is a ``Fraction``.
    """
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
    for i, tile in enumerate(t.tiles):
        declared = t.meta[i] if i < len(t.meta) else None
        bd, contaminated = window.boundary(tile, t.R)
        contaminated = contaminated or bool(declared and declared.contaminated)
        b, n = len(bd), len(tile)
        diam = window.space.diameter_of(tile)
        reports.append(TileReport(index=i, size=n, boundary=b, diameter=diam, contaminated=contaminated))
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
        if diam > t.diameter_bound:
            failures.append(
                f"tile {i}: diameter {diam} exceeds declared bound {t.diameter_bound}"
            )
    max_diam = max((r.diameter for r in reports), default=0)
    return TilingReport(
        tiles=reports,
        max_ratio=Fraction(best_b, best_n),
        max_diameter=max_diam,
        passed=not failures,
        failures=failures,
        meta_mismatches=mismatches,
    )
