import random
from fractions import Fraction

import pytest

from coarse_lab.castle import (
    Castle,
    Tower,
    _order_key,
    castle_from_tiling,
    compare,
    indicator,
    invariance_defect,
    random_castle,
    refine,
    type_vector,
    validate,
)
from coarse_lab.space import integer_window
from coarse_lab.tiling import PartitionError, Tiling, tile_interval


def castle_of(towers) -> Castle:
    """A castle from (height, columns) pairs, each column a sequence of atoms."""
    return Castle([Tower(h, tuple(map(tuple, cols))) for h, cols in towers])


def two_tower_castle():
    # towers: (height 3, 2 columns) and (height 2, 1 column)
    return castle_of(
        [
            (3, [("a0", "a1", "a2"), ("b0", "b1", "b2")]),
            (2, [("c0", "c1")]),
        ]
    )


def test_refine_refuses_a_target_with_a_non_atom():
    with pytest.raises(ValueError, match="target 1 contains non-atoms"):
        refine(two_tower_castle(), [{"a0"}, {"a1", "nope"}])


def level_partition(c: Castle) -> set:
    return {frozenset(t.level(j)) for t in c.towers for j in range(t.height)}


def orbit_masses(c: Castle, f) -> dict:
    tv = type_vector(c, f)
    return {frozenset(o): m for o, m in zip(tv.orbits, tv.masses)}


# -- validation ---------------------------------------------------------------


def test_validate_ok():
    c = castle_of([(2, [("a", "c"), ("b", "d")])])
    assert validate(c) == []


def test_validate_repeated_atom():
    c = castle_of([(2, [("a", "c"), ("a", "d")])])
    assert any("appears" in v for v in validate(c))


def test_validate_empty_tower():
    c = Castle([Tower(2, ())])
    assert any("no columns" in v for v in validate(c))


def test_validate_column_length_mismatch():
    c = Castle([Tower(3, (("a", "b"),))])
    assert any("length" in v for v in validate(c))


def validate_by_walk(c: Castle) -> list[str]:
    """The violation walk as it stood before validate's fast test, kept as the reference."""
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


def _with_tower(c: Castle, i: int, tower: Tower) -> Castle:
    return Castle(c.towers[:i] + [tower] + c.towers[i + 1:])


def _with_column(c: Castle, i: int, ci: int, col: tuple) -> Castle:
    t = c.towers[i]
    return _with_tower(c, i, Tower(t.height, t.columns[:ci] + (col,) + t.columns[ci + 1:]))


def castle_mutations(c: Castle, rng: random.Random):
    """(name, castle) for each one-place break of c that its shape allows."""
    i = rng.randrange(len(c.towers))
    t = c.towers[i]
    ci = rng.randrange(len(t.columns))
    col = t.columns[ci]
    if t.height >= 2:
        j = rng.randrange(1, t.height)
        yield "repeat in a column", _with_column(c, i, ci, col[:j] + (col[0],) + col[j + 1:])
    if len(c.towers) >= 2:
        k = rng.choice([k for k in range(len(c.towers)) if k != i])
        other = c.towers[k].columns[0][0]
        yield "repeat across towers", _with_column(c, i, ci, (other,) + col[1:])
    yield "short column", _with_column(c, i, ci, col[:-1])
    yield "no columns", _with_tower(c, i, Tower(t.height, ()))
    yield "height 0", _with_tower(c, i, Tower(0, t.columns))


def test_validate_fast_test_keeps_every_message_and_its_order():
    rng = random.Random(71)
    kinds = {}
    for _ in range(200):
        c = random_castle(rng)
        assert validate(c) == validate_by_walk(c) == []
        for name, broken in castle_mutations(c, rng):
            got = validate(broken)
            assert got == validate_by_walk(broken) and got, (name, broken)
            kinds[name] = kinds.get(name, 0) + 1
    assert len(kinds) == 5 and min(kinds.values()) >= 20, kinds


# -- refinement ---------------------------------------------------------------


def test_refine_pattern_split():
    c = castle_of([(2, [("a", "c"), ("b", "d")])])
    r = refine(c, [{"a", "d"}])
    assert len(r.towers) == 2
    assert all(len(t.columns) == 1 for t in r.towers)
    assert level_partition(r) == {
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
        frozenset({"d"}),
    }
    for t in r.towers:
        for j in range(t.height):
            lvl = t.level(j)
            assert lvl <= {"a", "d"} or not (lvl & {"a", "d"})


def test_refine_full_level_target_is_noop():
    c = two_tower_castle()
    target = {"a1", "b1"}  # level 1 of tower 0
    r = refine(c, [target])
    assert level_partition(r) == level_partition(c)


def test_refine_empty_target_is_noop():
    c = two_tower_castle()
    r = refine(c, [set()])
    assert level_partition(r) == level_partition(c)


def test_refine_idempotent_and_preserves_type_vectors():
    rng = random.Random(5)
    for _ in range(60):
        c = random_castle(rng, 40)
        targets = [
            set(rng.sample(sorted(c.atoms()), rng.randint(0, len(c.atoms()))))
            for _ in range(rng.randint(1, 3))
        ]
        r1 = refine(c, targets)
        assert validate(r1) == []
        for t in r1.towers:
            for j in range(t.height):
                lvl = t.level(j)
                for tgt in targets:
                    assert lvl <= tgt or not (lvl & tgt)
        r2 = refine(r1, targets)
        assert level_partition(r2) == level_partition(r1)
        assert sorted(r1.orbits()) == sorted(c.orbits())
        f = {a: rng.randint(0, 3) for a in c.atoms()}
        assert orbit_masses(c, f) == orbit_masses(r1, f)


# -- type vectors -------------------------------------------------------------


def test_type_vector_constant_one_gives_heights():
    c = two_tower_castle()
    tv = type_vector(c, dict.fromkeys(c.atoms(), 1))
    assert tv.masses == (3, 3, 2)


def test_type_vector_level_indicator():
    c = two_tower_castle()
    tv = type_vector(c, indicator({"a1", "b1"}))
    assert tv.masses == (1, 1, 0)


def test_type_vector_zero():
    c = two_tower_castle()
    assert type_vector(c, dict.fromkeys(c.atoms(), 0)).masses == (0, 0, 0)


def test_type_vectors_over_different_castles_do_not_compare():
    c = two_tower_castle()
    other = castle_of([(1, [("a0",)])])
    with pytest.raises(ValueError, match="type vectors over different castles"):
        type_vector(c, indicator({"a0"})) <= type_vector(other, indicator({"a0"}))


def test_type_vector_of_a_negative_function_is_refused():
    c = two_tower_castle()
    with pytest.raises(ValueError, match="type vectors need nonnegative functions"):
        type_vector(c, {"a0": 1, "a1": -2})


# -- comparison ---------------------------------------------------------------


def test_compare_witness_example():
    c = two_tower_castle()
    A = {"a0", "b0"}  # one level of tower 0
    B = {"a1", "b1", "a2", "b2", "c0"}  # two levels of tower 0, one of tower 1
    res = compare(c, A, B)
    assert res.ok
    res.witness.replay(A, B)


def test_compare_refusal_example():
    c = two_tower_castle()
    A = {"a0", "b0"}
    B = {"a1", "b1", "a2", "b2", "c0"}
    res = compare(c, B, A)
    assert not res.ok
    assert res.refusal.tower_index == 0
    assert (res.refusal.a_levels, res.refusal.b_levels) == (2, 1)


def test_compare_empty_A():
    c = two_tower_castle()
    res = compare(c, set(), {"a0"})
    assert res.ok
    res.witness.replay(set(), {"a0"})


def test_compare_rejects_an_invalid_castle():
    c = castle_of([(2, [("a", "c"), ("a", "d")])])
    with pytest.raises(ValueError) as e:
        compare(c, {"a"}, {"c"})
    assert str(e.value) == "invalid castle: atom 'a' appears in tower 0 and tower 0"


def test_compare_matches_type_vector_oracle():
    rng = random.Random(17)
    for _ in range(200):
        c = random_castle(rng, 40)
        atoms = sorted(c.atoms())
        A = set(rng.sample(atoms, rng.randint(0, len(atoms))))
        B = set(rng.sample(atoms, rng.randint(0, len(atoms))))
        res = compare(c, A, B)
        expected = type_vector(c, indicator(A)) <= type_vector(c, indicator(B))
        assert res.ok == expected
        if res.ok:
            res.witness.replay(A, B)


def test_almost_unperforation_holds_exactly():
    # in the free per-orbit semigroup, (n+1)v <= nw forces v <= w
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(1, 6)
        n = rng.randint(1, 5)
        w = [rng.randint(0, 9) for _ in range(k)]
        v = [rng.randint(0, 9) for _ in range(k)]
        if all((n + 1) * a <= n * b for a, b in zip(v, w)):
            assert all(a <= b for a, b in zip(v, w))


# -- castle from tiling and invariance defect ---------------------------------


def test_castle_from_interval_tiling():
    w = integer_window(-100, 100, 2)
    t = tile_interval(w, 1, Fraction(1, 10))
    c = castle_from_tiling(t)
    assert validate(c) == []
    heights = sorted(tw.height for tw in c.towers)
    sizes = sorted({len(tile) for tile in t.tiles})
    assert heights == sizes
    assert sorted(len(o) for o in c.orbits()) == sorted(len(x) for x in t.tiles)


def test_castle_from_single_tile():
    w = integer_window(0, 4, 1)
    t = tile_interval(w, 1, Fraction(1, 10))  # core shorter than N: one tile
    assert len(t.tiles) == 1
    c = castle_from_tiling(t)
    assert len(c.towers) == 1
    assert len(c.towers[0].columns) == 1
    assert c.towers[0].height == 5


def test_castle_groups_by_size():
    w = integer_window(0, 16, 2)
    from coarse_lab.tiling import TileMeta

    tiles = [frozenset(range(0, 5)), frozenset(range(5, 10)), frozenset(range(10, 17))]
    meta = [TileMeta(Fraction(0), 0, True)] * 3
    t = Tiling(w, tiles, 1, Fraction(2, 1), meta, 7)
    c = castle_from_tiling(t)
    assert sorted((tw.height, len(tw.columns)) for tw in c.towers) == [(5, 2), (7, 1)]


def test_column_order_agrees_with_plain_sort_and_totally_orders_mixed_atoms():
    rng = random.Random(3)
    scalars = [lambda: rng.randint(-3, 3), lambda: rng.choice("abc")]
    for _ in range(200):
        # one kind of entry per tuple position: plain sorted succeeds on these
        kinds = [rng.choice(scalars) for _ in range(rng.randint(1, 3))]
        cols = [tuple(tuple(kind() for kind in kinds) for _ in range(2)) for _ in range(6)]
        assert sorted(cols, key=_order_key) == sorted(cols)
        # ints and strings at one position: plain sorted fails, the key does not
        mixed = [(rng.choice(scalars)(), rng.randint(0, 2)) for _ in range(6)]
        got = sorted(mixed, key=_order_key)
        assert got == sorted(reversed(mixed), key=_order_key)
        assert [type(a) for a, _ in got] == sorted((type(a) for a, _ in got), key=lambda k: k is str)


def test_castle_columns_keep_plain_sort_order():
    rng = random.Random(5)
    w = integer_window(0, 29, 1)
    for _ in range(20):
        pts = sorted(w.core)
        rng.shuffle(pts)
        tiles = [frozenset(pts[i:i + 3]) for i in range(0, len(pts), 3)]
        c = castle_from_tiling(Tiling(w, tiles, 1, Fraction(2), [], 30))
        assert [list(tw.columns) for tw in c.towers] == [sorted(tw.columns) for tw in c.towers]


def test_castle_from_broken_tiling_raises():
    w = integer_window(0, 9, 1)
    t = Tiling(w, [frozenset({0, 1})], 1, Fraction(1, 2), [], 1)
    with pytest.raises(PartitionError):
        castle_from_tiling(t)


def test_defect_equals_max_tile_ratio():
    w = integer_window(-300, 300, 2)
    t = tile_interval(w, 1, Fraction(1, 10))
    c = castle_from_tiling(t)
    assert invariance_defect(c, w, 1) == Fraction(2, 21)
    assert invariance_defect(c, w, 1) == t.max_ratio()


def test_defect_whole_window_single_orbit():
    w = integer_window(0, 9, 0)
    c = castle_of([(10, [tuple(range(10))])])
    assert invariance_defect(c, w, 3) == 0


def test_defect_singleton_orbits():
    w = integer_window(-5, 5, 1)
    c = castle_of([(1, [(i,) for i in range(-5, 6)])])
    assert invariance_defect(c, w, 1) == 2


def test_defect_atom_mismatch():
    w = integer_window(0, 3, 0)
    c = castle_of([(1, [("nope",)])])
    with pytest.raises(ValueError) as e:
        invariance_defect(c, w, 1)
    assert str(e.value) == "castle atom 'nope' is not a window point"
    # several strays: the first in c.atoms() order is named
    c = castle_of([(2, [(0, 7), (1, 9)]), (1, [(2,), (8,)])])
    first = next(a for a in c.atoms() if a not in w.space)
    with pytest.raises(ValueError) as e:
        invariance_defect(c, w, 1)
    assert str(e.value) == f"castle atom {first!r} is not a window point"
