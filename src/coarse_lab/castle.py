"""Finite clopen castles: towers of bijectively linked levels over atoms.

A castle partitions a finite atom set into towers; a tower of height N is a
list of columns, each an ordered sequence of N distinct atoms, with column
position j holding the atom at level j.  The positional encoding carries
all the level-to-level bijections implicitly, so the composition laws
between them hold by construction and validation reduces to the partition
property.  Orbits are columns; the type vector of an integer function is
its per-orbit mass, which makes comparison questions exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .space import WindowedSpace
from .tiling import Tiling, verify_tiling


@dataclass(frozen=True)
class Tower:
    height: int
    columns: tuple[tuple, ...]

    def level(self, j: int) -> set:
        return {col[j] for col in self.columns}


@dataclass
class Castle:
    towers: list[Tower]

    def atoms(self) -> set:
        return {a for t in self.towers for col in t.columns for a in col}

    def orbits(self) -> list[tuple]:
        """All columns across towers, in castle enumeration order."""
        return [col for t in self.towers for col in t.columns]


@dataclass
class TypeVector:
    """Per-orbit masses of an integer function, aligned with ``orbits``."""

    masses: tuple[int, ...]
    orbits: tuple[tuple, ...]

    def __le__(self, other: "TypeVector") -> bool:
        if self.orbits != other.orbits:
            raise ValueError("type vectors over different castles")
        return all(a <= b for a, b in zip(self.masses, other.masses))


def validate(c: Castle) -> list[str]:
    """All castle invariants; an empty list means the castle is valid.

    A castle whose atoms are all distinct and whose towers have a positive
    height, columns, and only columns of that height is valid; the walk
    that names each violation runs only when that test fails.
    """
    atoms = [a for t in c.towers for col in t.columns for a in col]
    if len(set(atoms)) == len(atoms) and all(
        t.height >= 1 and set(map(len, t.columns)) == {t.height} for t in c.towers
    ):
        return []
    violations = []
    seen: dict = {}
    for i, tower in enumerate(c.towers):
        if tower.height < 1:
            violations.append(f"tower {i}: height must be at least 1")
        if not tower.columns:
            violations.append(f"tower {i}: has no columns, levels would be empty")
        for ci, col in enumerate(tower.columns):
            if len(col) != tower.height:
                violations.append(
                    f"tower {i} column {ci}: length {len(col)} != height {tower.height}"
                )
            if len(set(col)) != len(col):
                violations.append(f"tower {i} column {ci}: repeated atom")
            for a in col:
                if a in seen:
                    violations.append(
                        f"atom {a!r} appears in tower {seen[a]} and tower {i}"
                    )
                seen[a] = i
    return violations


def _require_valid(c: Castle) -> None:
    violations = validate(c)
    if violations:
        raise ValueError("invalid castle: " + "; ".join(violations[:5]))


def refine(c: Castle, targets: Sequence[Iterable]) -> Castle:
    """Split towers until every level is contained in or disjoint from each target.

    Columns of a tower are grouped by their membership pattern: which levels
    lie in which target.  Each group becomes a thinner tower whose levels
    are then homogeneous with respect to every target.  Atoms, columns and
    hence orbits are untouched; only the grouping changes.
    """
    _require_valid(c)
    target_sets = [frozenset(t) for t in targets]
    atoms = c.atoms()
    for i, t in enumerate(target_sets):
        if not t <= atoms:
            raise ValueError(f"target {i} contains non-atoms")
    new_towers: list[Tower] = []
    for tower in c.towers:
        groups: dict[tuple, list] = {}
        for col in tower.columns:
            pattern = tuple(
                tuple(col[j] in t for t in target_sets) for j in range(tower.height)
            )
            groups.setdefault(pattern, []).append(col)
        for pattern in sorted(groups, key=repr):
            new_towers.append(Tower(tower.height, tuple(groups[pattern])))
    return Castle(new_towers)


def type_vector(c: Castle, f: dict) -> TypeVector:
    """Sum the values of f over each orbit (column); absent atoms count 0."""
    _require_valid(c)
    orbits = tuple(c.orbits())
    masses = tuple(sum(f.get(a, 0) for a in col) for col in orbits)
    if any(m < 0 for m in masses):
        raise ValueError("type vectors need nonnegative functions")
    return TypeVector(masses, orbits)


def indicator(A: Iterable) -> dict:
    return {a: 1 for a in A}


@dataclass
class ComparisonWitness:
    """Level-to-level bisections moving A into B with disjoint images.

    Each entry maps the atoms of one refined level inside A bijectively to
    the atoms of a level inside B; sources partition A and images are
    pairwise disjoint subsets of B.
    """

    bisections: list[dict]

    def replay(self, A: set, B: set) -> None:
        sources: list = []
        images: list = []
        for bij in self.bisections:
            assert len(set(bij.values())) == len(bij), "bisection not injective"
            sources.extend(bij.keys())
            images.extend(bij.values())
        assert len(sources) == len(set(sources)), "sources overlap"
        assert set(sources) == set(A), "sources do not partition A"
        assert len(images) == len(set(images)), "images overlap"
        assert set(images) <= set(B), "images leave B"


@dataclass
class ComparisonRefusal:
    tower_index: int
    a_levels: int
    b_levels: int


@dataclass
class ComparisonResult:
    ok: bool
    witness: ComparisonWitness | None = None
    refusal: ComparisonRefusal | None = None


def compare(c: Castle, A: Iterable, B: Iterable) -> ComparisonResult:
    """Decide subequivalence of A to B inside the castle, with certificate.

    After refining against {A, B}, count per tower the levels inside A and
    inside B; A is subequivalent to B iff the A-count never exceeds the
    B-count, and in that case level-to-level bisections realise the move.
    """
    A = frozenset(A)
    B = frozenset(B)
    refined = refine(c, [A, B])
    bisections: list[dict] = []
    for ti, tower in enumerate(refined.towers):
        a_levels = [j for j in range(tower.height) if tower.level(j) <= A]
        b_levels = [j for j in range(tower.height) if tower.level(j) <= B]
        if len(a_levels) > len(b_levels):
            return ComparisonResult(
                ok=False,
                refusal=ComparisonRefusal(ti, len(a_levels), len(b_levels)),
            )
        for j, k in zip(a_levels, b_levels):
            bisections.append({col[j]: col[k] for col in tower.columns})
    return ComparisonResult(ok=True, witness=ComparisonWitness(bisections))


def _order_key(a):
    """A total order on ints, strings and nested tuples of them.

    Ints come before strings and scalars before tuples; wherever plain ``<``
    decides between two values, this key agrees with it.
    """
    if isinstance(a, tuple):
        return (2, tuple(map(_order_key, a)))
    return (isinstance(a, str), a)


def castle_from_tiling(t: Tiling) -> Castle:
    """Tiles become orbits: one tower per tile size, one column per tile.

    Atoms of each tile are ordered canonically (by identifier order), which
    fixes the positional bijections between levels.  The columns of a tower
    are disjoint, so their first atoms alone order them, by :func:`_order_key`.
    The tiling is verified first; a broken partition propagates as
    :class:`PartitionError`.  A tiling already verified is not replayed:
    :func:`verify_tiling` returns the report it keeps on the frozen tiling.
    """
    verify_tiling(t)
    by_size: dict[int, list[tuple]] = {}
    for tile in t.tiles:
        col = tuple(sorted(tile, key=repr))
        by_size.setdefault(len(col), []).append(col)
    towers = [
        Tower(size, tuple(sorted(by_size[size], key=lambda col: _order_key(col[0]))))
        for size in sorted(by_size)
    ]
    return Castle(towers)


def random_castle(rng, max_atoms: int = 60) -> Castle:
    """Seeded random castle for sweeps: random tower heights and widths."""
    n = rng.randint(1, max_atoms)
    atoms = list(range(n))
    rng.shuffle(atoms)
    towers = []
    pos = 0
    while pos < n:
        remaining = n - pos
        height = rng.randint(1, min(6, remaining))
        width = rng.randint(1, max(1, remaining // height))
        take = height * width
        chunk = atoms[pos:pos + take]
        pos += take
        columns = tuple(
            tuple(chunk[k * height:(k + 1) * height]) for k in range(width)
        )
        towers.append(Tower(height, columns))
    return Castle(towers)


def invariance_defect(c: Castle, window: WindowedSpace, R: int) -> Fraction:
    """Worst orbit boundary ratio: max over orbits of |bd_R(orbit)| / |orbit|.

    Orbits whose R-neighbourhood meets the halo are skipped; the window
    cannot speak for the ambient space there.
    """
    _require_valid(c)
    # a generator, so that a failure names the first unknown atom in c.atoms() order
    window.space.point_set(
        (a for t in c.towers for col in t.columns for a in col),
        "castle atom {!r} is not a window point",
    )
    best = None
    orbits = c.orbits()
    # a valid castle's orbits are nonempty and repeat no atom, and every atom is a window point
    for orbit, (b, contaminated) in zip(orbits, window.boundary_counts(orbits, R)):
        if contaminated:
            continue
        if best is None or b * best[1] > best[0] * len(orbit):
            best = (b, len(orbit))
    if best is None:
        raise ValueError("every orbit is halo-contaminated at this radius")
    return Fraction(*best)
