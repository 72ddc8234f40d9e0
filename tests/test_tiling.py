import dataclasses
import random
from fractions import Fraction

import pytest

from coarse_lab import castle, space, tiling
from coarse_lab.space import (
    build_graph_metric,
    integer_window,
    outer_boundary,
    stacked_product_window,
)
from coarse_lab.tiling import (
    PartitionError,
    Tiling,
    TileMeta,
    TileReport,
    block_length,
    box_tiling_plan,
    stacked_block_height,
    tile_box_space,
    tile_interval,
    tile_sparse_subset,
    tile_stacked_product,
    verify_tiling,
)


# -- interval tiling ---------------------------------------------------------


def test_block_length_canonical():
    assert block_length(1, Fraction(1, 10)) == 21
    assert block_length(5, Fraction(1, 100)) == 1001
    # least integer strictly above the bound even when it divides exactly
    assert block_length(1, Fraction(1, 2)) == 5


def test_interval_tiling_basic():
    w = integer_window(-250, 250, 2)
    t = tile_interval(w, 1, Fraction(1, 10))
    assert all(len(tile) in range(21, 42) for tile in t.tiles)
    interior = [m for m in t.meta if not m.contaminated]
    assert interior
    assert all(m.ratio == Fraction(2, 21) for m in interior if m.ratio != 0)
    report = verify_tiling(t)
    assert report.passed


def test_interval_tiling_large_N():
    w = integer_window(0, 5000, 5)
    t = tile_interval(w, 5, Fraction(1, 100))
    assert block_length(5, Fraction(1, 100)) == 1001
    interior = [m for m in t.meta if not m.contaminated]
    assert all(m.ratio == Fraction(10, 1001) for m in interior)


def test_interval_tiling_window_too_small():
    w = integer_window(0, 2, 1)
    t = tile_interval(w, 1, Fraction(1, 10))
    assert len(t.tiles) == 1
    assert "window too small" in t.notes


def test_interval_tiling_needs_an_integer_line_window():
    with pytest.raises(ValueError, match="interval tiling needs an integer-line window"):
        tile_interval(space.subset_window(range(10)), 1, Fraction(1, 2))


def test_interval_tiling_needs_a_contiguous_core():
    line = space.IntegerLineSpace(0, 9)
    core = frozenset({0, 1, 2, 5})
    window = space.WindowedSpace(line, core, frozenset(line.points) - core, 0)
    with pytest.raises(ValueError, match="window core is not a contiguous integer interval"):
        tile_interval(window, 1, Fraction(1, 2))


def test_interval_tiling_refuses_an_empty_core():
    line = space.IntegerLineSpace(0, 3)
    window = space.WindowedSpace(line, frozenset(), frozenset(range(4)), 1)
    with pytest.raises(ValueError, match="window core is empty"):
        tile_interval(window, 1, Fraction(1, 2))


def test_interval_tiles_partition_core():
    w = integer_window(-100, 100, 3)
    t = tile_interval(w, 2, Fraction(1, 4))
    got = sorted(p for tile in t.tiles for p in tile)
    assert got == sorted(w.core)
    sizes = [len(tile) for tile in t.tiles]
    N = block_length(2, Fraction(1, 4))
    assert all(s == N for s in sizes[:-1])
    assert N <= sizes[-1] < 2 * N


def test_interval_diameter_bound():
    w = integer_window(-100, 100, 2)
    t = tile_interval(w, 1, Fraction(1, 5))
    N = block_length(1, Fraction(1, 5))
    assert all(m.diameter <= 2 * N - 2 for m in t.meta)


def test_refining_epsilon_still_passes_coarser():
    w = integer_window(-300, 300, 2)
    fine = tile_interval(w, 1, Fraction(1, 20))
    assert verify_tiling(dataclasses.replace(fine, epsilon=Fraction(1, 10))).passed


# -- sparse subset tiling ----------------------------------------------------


def test_sparse_squares_are_singleton_runs():
    A = [n * n for n in range(2, 41)]
    t = tile_sparse_subset(A, 1, Fraction(1, 2))
    assert all(len(tile) == 1 for tile in t.tiles)
    assert all(m.ratio == 0 for m in t.meta)
    assert verify_tiling(t).passed


def test_sparse_two_runs_chopped():
    A = list(range(0, 10)) + list(range(100, 110))
    t = tile_sparse_subset(A, 1, Fraction(1, 2))
    assert block_length(1, Fraction(1, 2)) == 5
    assert len(t.tiles) == 4
    assert all(len(tile) == 5 for tile in t.tiles)
    assert all(m.ratio == Fraction(1, 5) for m in t.meta)
    assert verify_tiling(t).passed


def test_sparse_singleton():
    t = tile_sparse_subset([7], 3, Fraction(1, 4))
    assert len(t.tiles) == 1
    assert t.meta[0].ratio == 0


def test_sparse_empty_rejected():
    with pytest.raises(ValueError):
        tile_sparse_subset([], 1, Fraction(1, 2))


def test_sparse_short_runs_kept_whole():
    # gaps of 2 > R=1 split everything; runs below N stay whole with ratio 0
    A = [0, 1, 2, 10, 11, 20]
    t = tile_sparse_subset(A, 1, Fraction(1, 3))
    assert sorted(len(tile) for tile in t.tiles) == [1, 2, 3]
    assert all(m.ratio == 0 for m in t.meta)


def test_sparse_diameter_bound():
    rng = random.Random(2)
    A = sorted(rng.sample(range(0, 4000), 300))
    for R in (1, 2, 5):
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            t = tile_sparse_subset(A, R, eps)
            N = block_length(R, eps)
            assert all(m.diameter <= 2 * R * N for m in t.meta)
            assert verify_tiling(t).passed


def test_sparse_prefix_flag_contaminates_last_run():
    A = list(range(0, 30)) + list(range(100, 130))
    t = tile_sparse_subset(A, 1, Fraction(1, 2), prefix_of_unbounded=True)
    # tiles from the first run clean, tiles from the final run flagged
    first_run = [m for tile, m in zip(t.tiles, t.meta) if max(tile) < 100]
    last_run = [m for tile, m in zip(t.tiles, t.meta) if min(tile) >= 100]
    assert all(not m.contaminated for m in first_run)
    assert all(m.contaminated for m in last_run)


# -- run-end metadata against the space kernels --------------------------------


def _kernel_metas(window, tiles, R):
    """(ratio, diameter, halo flag) of each tile from the space kernels."""
    diameter_of = window.space.diameter_of
    return [
        (Fraction(b, len(tile)), diameter_of(tile), contaminated)
        for tile, (b, contaminated) in zip(tiles, window.boundary_counts(tiles, R))
    ]


def test_sparse_run_end_metadata_matches_the_space_kernels():
    rng = random.Random(2020)
    gaps = [1, 1, 2, 3, 4, 7, 15, 60, 700]  # criterion 2's menu
    for _ in range(30):
        # the whole menu almost never makes a run long enough to chop, so
        # each set draws from a prefix of it
        menu = gaps[:rng.randint(1, len(gaps))]
        A = [rng.randint(0, 50)]
        for _ in range(rng.randint(0, 250)):
            A.append(A[-1] + rng.choice(menu))
        for R in range(1, 6):
            # the final run starts after the last gap above R
            last_run = max((b for a, b in zip(A, A[1:]) if b - a > R), default=A[0])
            for eps in (Fraction(1, 2), Fraction(1, 10)):
                for prefix in (False, True):
                    t = tile_sparse_subset(A, R, eps, prefix)
                    expected = [
                        (ratio, diam, c or (prefix and min(tile) >= last_run))
                        for tile, (ratio, diam, c) in zip(t.tiles, _kernel_metas(t.window, t.tiles, R))
                    ]
                    assert [(m.ratio, m.diameter, m.contaminated) for m in t.meta] == expected
                    assert len(t.meta) == len(t.tiles)


def test_interval_run_end_metadata_matches_the_space_kernels():
    rng = random.Random(2021)
    for R in range(1, 5):
        for eps in (Fraction(1, 2), Fraction(1, 3)):
            N = block_length(R, eps)
            for h in sorted({0, 1, R - 1, R, R + 1}):
                for length in (N - 1, N, 2 * N - 1, 2 * N, 3 * N + 1):
                    lo = rng.randint(-100, 100)
                    w = integer_window(lo, lo + length - 1, h)
                    t = tile_interval(w, R, eps)
                    assert [(m.ratio, m.diameter, m.contaminated) for m in t.meta] == _kernel_metas(w, t.tiles, R)
                    assert len(t.meta) == len(t.tiles)


# -- stacked product tiling --------------------------------------------------


def test_stacked_single_point_column_tiling():
    X = build_graph_metric(["p"], [])
    w = stacked_product_window(X, 28, halo_depth=0)
    S, N = stacked_block_height(w, 1, Fraction(1, 2))
    assert (S, N) == (2, 7)
    t = tile_stacked_product(w, 1, Fraction(1, 2))
    assert len(t.tiles) == 4
    bottom = next(tile for tile in t.tiles if ("p", 0) in tile)
    i = t.tiles.index(bottom)
    assert t.meta[i].ratio == Fraction(1, 7)


def test_stacked_two_point_constants():
    X = build_graph_metric(["x", "y"], [("x", "y")])
    w = stacked_product_window(X, 18, halo_depth=0)
    S, N = stacked_block_height(w, 1, Fraction(1, 2))
    assert (S, N) == (3, 9)


def test_stacked_height_mismatch_reports_requirement():
    X = build_graph_metric(["p"], [])
    w = stacked_product_window(X, 10, halo_depth=0)
    with pytest.raises(ValueError, match="multiple of N=7"):
        tile_stacked_product(w, 1, Fraction(1, 2))


def test_stacked_tiling_needs_a_stacked_window():
    with pytest.raises(ValueError, match="stacked tiling needs a window built by stacked_product_window"):
        tile_stacked_product(integer_window(0, 20, 1), 1, Fraction(1, 2))


def test_stacked_tiling_verifies():
    X = build_graph_metric(["x", "y", "z"], [("x", "y"), ("y", "z")])
    w = stacked_product_window(X, 28, halo_depth=6)
    S, N = stacked_block_height(w, 1, Fraction(1, 2))
    assert (S, N) == (4, 11)
    assert (w.space.K - w.halo_depth) % N == 0
    t = tile_stacked_product(w, 1, Fraction(1, 2))
    report = verify_tiling(t)
    assert report.passed
    # top tiles touch the halo and are flagged
    top = [m for tile, m in zip(t.tiles, t.meta) if any(n == 21 for _, n in tile)]
    assert top and all(m.contaminated for m in top)
    bottom = [m for tile, m in zip(t.tiles, t.meta) if any(n == 0 for _, n in tile)]
    assert bottom and all(not m.contaminated for m in bottom)
    assert all(m.ratio <= Fraction(S + 1, N) for m in bottom)


def test_stacked_singleton_blocks_when_eps_huge():
    X = build_graph_metric(["p"], [])
    w = stacked_product_window(X, 8, halo_depth=0)
    t = tile_stacked_product(w, 1, Fraction(7, 2))
    assert all(len(tile) == 1 for tile in t.tiles)
    # singleton blocks have ratio at most 2, still below this huge epsilon
    report = verify_tiling(t)
    assert report.max_ratio == 2
    assert report.passed


# -- box space tiling --------------------------------------------------------


def test_box_plan_powers_of_two():
    mods = [2 ** k for k in range(1, 13)]
    plan = box_tiling_plan(mods, 1, Fraction(1, 3))
    assert plan.monotile_length == 8
    # blocks shorter than 4(R+L)=32 fail the isometry-radius check
    assert plan.absorbed_blocks == (0, 1, 2, 3)
    assert [mods[i] for i in plan.arc_blocks] == [32, 64, 128, 256, 512, 1024, 2048, 4096]


def test_box_tiling_arcs():
    mods = [2 ** k for k in range(1, 8)]
    t = tile_box_space(mods, 1, Fraction(1, 3))
    x0 = t.tiles[0]
    assert x0 == frozenset((i, a) for i in range(4) for a in range(mods[i]))
    assert t.meta[0].ratio == 0
    assert outer_boundary(t.window.space, x0, 1) == set()
    arcs = t.tiles[1:]
    assert all(len(a) == 8 for a in arcs)
    assert all(m.ratio == Fraction(1, 4) for m in t.meta[1:])
    assert verify_tiling(t).passed


def test_box_c4_absorbed_at_R2():
    mods = [4, 8, 16, 32, 64, 128, 256]
    plan = box_tiling_plan(mods, 2, Fraction(1, 2))
    # monotile is the cycle of length 16 (2R/m < eps needs m > 8)
    assert plan.monotile_length == 16
    assert 0 in plan.absorbed_blocks  # C_4 fails the isometry-radius check
    t = tile_box_space(mods, 2, Fraction(1, 2))
    assert outer_boundary(t.window.space, t.tiles[0], 2) == set()


def test_box_rejects_non_chain():
    with pytest.raises(ValueError):
        tile_box_space([2, 3], 1, Fraction(1, 2))


def test_box_rejects_empty_moduli():
    with pytest.raises(ValueError, match="empty moduli sequence"):
        tile_box_space([], 1, Fraction(1, 2))


def test_box_rejects_hopeless_epsilon():
    with pytest.raises(ValueError, match="monotile"):
        tile_box_space([2, 4], 1, Fraction(1, 100))


# -- verifier ----------------------------------------------------------------


def test_verifier_rejects_overlap():
    w = integer_window(0, 5, 1)
    tiles = [frozenset({0, 1, 2}), frozenset({2, 3, 4, 5})]
    meta = [TileMeta(Fraction(0), 2, False)] * 2
    t = Tiling(w, tiles, 1, Fraction(1, 2), meta, 5)
    with pytest.raises(PartitionError) as e:
        verify_tiling(t)
    assert 2 in e.value.points


def test_verifier_rejects_empty_tile_before_overlap():
    w = integer_window(0, 5, 1)
    tiles = [frozenset({0, 1, 2}), frozenset({2, 3}), frozenset(), frozenset({4, 5})]
    t = Tiling(w, tiles, 1, Fraction(1, 2), [], 5)
    with pytest.raises(PartitionError) as e:
        verify_tiling(t)
    assert str(e.value) == "empty tile: []"
    assert e.value.points == set()


def test_verifier_rejects_overlap_before_uncovered():
    w = integer_window(0, 5, 1)
    tiles = [frozenset({0, 1}), frozenset({1, 2})]
    t = Tiling(w, tiles, 1, Fraction(1, 2), [], 5)
    with pytest.raises(PartitionError) as e:
        verify_tiling(t)
    assert str(e.value) == "tiles overlap: [1]"


def test_verifier_rejects_tiles_leaving_the_core():
    w = integer_window(0, 5, 1)
    tiles = [frozenset({0, 1, 2}), frozenset({3, 4, 5, 6})]  # 6 is a halo point
    t = Tiling(w, tiles, 1, Fraction(1, 2), [], 5)
    with pytest.raises(PartitionError) as e:
        verify_tiling(t)
    assert str(e.value) == "tiles leave the core: [6]"
    assert e.value.points == {6}


def test_verifier_rejects_uncovered():
    w = integer_window(0, 5, 1)
    tiles = [frozenset({0, 1, 2})]
    meta = [TileMeta(Fraction(0), 2, False)]
    t = Tiling(w, tiles, 1, Fraction(1, 2), meta, 5)
    with pytest.raises(PartitionError) as e:
        verify_tiling(t)
    assert e.value.points == {3, 4, 5}


def test_verifier_fails_ratio_at_epsilon():
    # a clean tile whose ratio equals epsilon exactly must fail the strict check
    w = integer_window(0, 14, 2)
    tiles = [frozenset(range(0, 5)), frozenset(range(5, 10)), frozenset(range(10, 15))]
    t = Tiling(w, tiles, 1, Fraction(2, 5), [], 14)
    report = verify_tiling(t)
    assert not report.passed
    assert any("tile 1" in f for f in report.failures)


# -- one verification per tiling ---------------------------------------------


def test_tiling_is_frozen_and_stores_tuples():
    w = integer_window(0, 5, 1)
    t = Tiling(w, [frozenset({0, 1, 2}), frozenset({3, 4, 5})], 1, Fraction(1, 2), [], 2, ["a note"])
    assert (t.tiles, t.meta, t.notes) == ((frozenset({0, 1, 2}), frozenset({3, 4, 5})), (), ("a note",))
    for name, value in (("epsilon", Fraction(1, 10)), ("tiles", ()), ("meta", ()), ("R", 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, value)
    assert dataclasses.replace(t, notes=["other"]).notes == ("other",)


def test_replaced_tiling_gets_a_fresh_verdict():
    t = tile_interval(integer_window(-300, 300, 2), 1, Fraction(1, 20))
    assert verify_tiling(t).passed
    # interior ratio 2/41 is not below 1/100: a cached verdict would still pass
    coarse = dataclasses.replace(t, epsilon=Fraction(1, 100))
    assert not verify_tiling(coarse).passed
    assert verify_tiling(t).passed


def test_editing_a_report_leaves_the_next_one_alone():
    # the middle tile is clean at ratio 1/5, not below 1/10, and tile 0 declares a false diameter
    tiles = [frozenset(range(a, a + 10)) for a in (0, 10, 20)]
    t = Tiling(integer_window(0, 29, 1), tiles, 1, Fraction(1, 10), [TileMeta(Fraction(1, 10), 0, True)], 9)
    first = verify_tiling(t)
    expected = verify_tiling(dataclasses.replace(t))
    assert first == expected and first.failures and first.meta_mismatches == [0]
    first.tiles.clear()
    first.failures.append("edited")
    first.meta_mismatches.clear()
    first.passed = True
    assert verify_tiling(t) == expected


def test_errors_are_raised_on_every_call():
    w = integer_window(0, 5, 1)
    overlap = Tiling(w, [frozenset({0, 1, 2}), frozenset({2, 3, 4, 5})], 1, Fraction(1, 2), [], 5)
    for call in (verify_tiling, verify_tiling, castle.castle_from_tiling, verify_tiling):
        with pytest.raises(PartitionError, match="tiles overlap"):
            call(overlap)
    negative = dataclasses.replace(_valid_line_tiling(), R=-1)
    for _ in range(2):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            verify_tiling(negative)


def test_castle_from_a_verified_tiling_counts_no_boundary(monkeypatch):
    t = _valid_line_tiling()
    report = verify_tiling(t)
    calls = []
    counts = space.WindowedSpace.boundary_counts

    def counting(self, sets, R):
        calls.append(R)
        return counts(self, sets, R)

    monkeypatch.setattr(space.WindowedSpace, "boundary_counts", counting)
    c = castle.castle_from_tiling(t)
    assert calls == []
    assert sorted(map(frozenset, c.orbits()), key=min) == sorted(t.tiles, key=min)
    assert verify_tiling(t) == report and calls == []
    # an unverified copy replays, and the defect always counts for itself
    castle.castle_from_tiling(dataclasses.replace(t))
    assert castle.invariance_defect(c, t.window, t.R) == report.max_ratio
    assert calls == [t.R, t.R]


def test_max_ratio_is_the_largest_clean_ratio():
    w = integer_window(0, 9, 1)
    rng = random.Random(17)
    # declared ratios, as a loaded tiling may carry: negative, tied and contaminated ones among them
    for _ in range(200):
        meta = [
            TileMeta(Fraction(rng.randint(-3, 6), rng.randint(1, 5)), 0, rng.random() < 0.3)
            for _ in range(rng.randint(0, 8))
        ]
        t = Tiling(w, [], 1, Fraction(1, 2), meta, 0)
        clean = [m.ratio for m in meta if not m.contaminated]
        assert t.max_ratio() == (max(clean) if clean else 0)


def test_verifier_reports_mismatched_meta():
    w = integer_window(0, 9, 2)
    tiles = [frozenset(range(0, 10))]
    lying = [TileMeta(Fraction(0), 0, False)]
    t = Tiling(w, tiles, 1, Fraction(1, 2), lying, 9)
    report = verify_tiling(t)
    assert report.meta_mismatches == [0]


def test_verifier_pairs_declared_meta_with_tiles_by_position():
    # fewer metas than tiles: tile 1 is contaminated only by its declared
    # flag, tile 2 has no meta, so its clean ratio 1 fails; tiles 0 and 3
    # meet the halo, and tile 0 declares a wrong diameter
    w = integer_window(0, 9, 2)
    tiles = [frozenset(range(0, 3)), frozenset(range(3, 6)), frozenset({6, 7}), frozenset({8, 9})]
    meta = [TileMeta(Fraction(2, 3), 1, False), TileMeta(Fraction(2, 3), 2, True)]
    report = verify_tiling(Tiling(w, tiles, 1, Fraction(1, 2), meta, 1))
    assert report.tiles == [
        TileReport(0, 3, 2, 2, True),
        TileReport(1, 3, 2, 2, True),
        TileReport(2, 2, 2, 1, False),
        TileReport(3, 2, 2, 1, True),
    ]
    assert report.meta_mismatches == [0]
    assert report.failures == [
        "tile 0: diameter 2 exceeds declared bound 1",
        "tile 1: diameter 2 exceeds declared bound 1",
        "tile 2: ratio 1 is not strictly below 1/2",
    ]
    assert (report.max_ratio, report.max_diameter, report.passed) == (1, 2, False)
    # more metas than tiles: the contaminated flag of meta 4, past the last
    # tile, reaches no tile; tile 1's declared flag spares its ratio 1
    w = space.subset_window([1, 2, 3, 10, 11, 30])
    tiles = [frozenset({1, 2}), frozenset({3}), frozenset({10, 11}), frozenset({30})]
    meta = [
        TileMeta(Fraction(1, 2), 1, False), TileMeta(Fraction(1), 0, True), TileMeta(Fraction(1, 2), 1, False),
        TileMeta(Fraction(0), 0, False), TileMeta(Fraction(5), 9, True), TileMeta(Fraction(0), 0, False),
    ]
    report = verify_tiling(Tiling(w, tiles, 1, Fraction(1, 2), meta, 0))
    assert report.tiles == [
        TileReport(0, 2, 1, 1, False),
        TileReport(1, 1, 1, 0, True),
        TileReport(2, 2, 0, 1, False),
        TileReport(3, 1, 0, 0, False),
    ]
    assert report.meta_mismatches == [2]
    assert report.failures == [
        "tile 0: ratio 1/2 is not strictly below 1/2",
        "tile 0: diameter 1 exceeds declared bound 0",
        "tile 2: diameter 1 exceeds declared bound 0",
    ]
    assert (report.max_ratio, report.max_diameter, report.passed) == (Fraction(1, 2), 1, False)


def test_constructions_pass_verifier_sweep():
    rng = random.Random(41)
    for R in (1, 2, 3):
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
            w = integer_window(-150, 150, R)
            assert verify_tiling(tile_interval(w, R, eps)).passed
            A = sorted(rng.sample(range(0, 2000), 150))
            assert verify_tiling(tile_sparse_subset(A, R, eps)).passed


def test_verifier_compares_counts_not_fractions(monkeypatch):
    # one Fraction for epsilon and one for the reported maximum, however many tiles
    rng = random.Random(5)
    A = sorted(rng.sample(range(0, 4000), 1200))
    t = tile_sparse_subset(A, 1, Fraction(1, 2))
    assert len(t.tiles) >= 300
    expected = verify_tiling(t)
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    # a per-tile ratio built in either module would show up here
    monkeypatch.setattr(space, "Fraction", counted, raising=False)
    monkeypatch.setattr(tiling, "Fraction", counted)
    report = verify_tiling(t)
    assert len(built) <= 2
    monkeypatch.undo()
    assert report == expected
    assert report.passed and report.max_ratio == t.max_ratio()
    assert [r.ratio for r in report.tiles] == [m.ratio for m in t.meta]


# -- one membership and radius check per pass ---------------------------------


def _valid_line_tiling():
    return tile_interval(integer_window(0, 29, 1), 1, Fraction(1, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        # interval and sparse refuse R < 1 in block_length, before any tile is cut
        (lambda: tile_interval(integer_window(0, 20, 2), -1, Fraction(1, 2)), "R must be a positive integer"),
        (lambda: tile_sparse_subset([1, 2, 3, 10], -1, Fraction(1, 2)), "R must be a positive integer"),
        (
            lambda: tile_stacked_product(
                stacked_product_window(space.regular_tree_window(3, 1, 0).space, 8, 0), -1, Fraction(1, 2)
            ),
            "radius must be nonnegative",
        ),
        (lambda: tile_box_space([2, 4, 8, 16, 32], -1, Fraction(1, 3)), "radius must be nonnegative"),
        (lambda: verify_tiling(dataclasses.replace(_valid_line_tiling(), R=-1)), "radius must be nonnegative"),
        (
            lambda: castle.invariance_defect(castle.castle_from_tiling(_valid_line_tiling()), integer_window(0, 29, 1), -1),
            "radius must be nonnegative",
        ),
    ],
    ids=["interval", "sparse", "stacked", "box", "verify_tiling", "invariance_defect"],
)
def test_negative_radius_is_refused(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message


def test_radius_is_checked_after_the_partition_and_only_for_a_nonempty_batch():
    t = _valid_line_tiling()
    with pytest.raises(PartitionError, match="tiles overlap"):
        verify_tiling(dataclasses.replace(t, tiles=(*t.tiles, t.tiles[0]), R=-1))
    # a window with a halo and one without
    assert list(t.window.boundary_counts([], -1)) == []
    assert list(space.subset_window([1, 2, 5]).boundary_counts([], -1)) == []
    # no orbit at all: the defect's own refusal, as before the batch path
    with pytest.raises(ValueError, match="every orbit is halo-contaminated"):
        castle.invariance_defect(castle.Castle([]), t.window, -1)


BATCH_WINDOWS = {
    "line": lambda: integer_window(-40, 40, 3),
    "subset": lambda: space.subset_window(sorted(random.Random(3).sample(range(300), 80))),
    "graph": lambda: space.regular_tree_window(3, 3, 2),
    "stacked": lambda: stacked_product_window(space.regular_tree_window(3, 1, 0).space, 12, 3),
    "box": lambda: space.box_window([2, 4, 8, 16, 32]),
}


def _random_tiles(rng, core, max_size, shuffle=True):
    """A seeded partition of core into pieces of 1..max_size points, each a
    frozenset, set, list or tuple; unshuffled, each piece is a slice of the
    core sorted by value, so on the line and the subset each piece is a run."""
    if shuffle:
        pts = sorted(core, key=repr)
        rng.shuffle(pts)
    else:
        pts = sorted(core)
    tiles = []
    while pts:
        k = rng.randint(1, max_size)
        piece, pts = pts[:k], pts[k:]
        tiles.append(rng.choice((frozenset, set, list, tuple))(piece))
    return tiles


@pytest.mark.parametrize("name", BATCH_WINDOWS)
def test_batch_boundaries_agree_with_boundary_set_by_set(name):
    window = BATCH_WINDOWS[name]()
    rng = random.Random(name)
    # shuffled tiles are almost never runs, so slices of the sorted core,
    # from a second generator, reach the closed-form counts as well
    slices = random.Random(name + "/slices")
    contaminated = set()
    for R in range(4):
        batches = [_random_tiles(rng, window.core, 6) for _ in range(4)]
        batches += [_random_tiles(slices, window.core, 6, shuffle=False) for _ in range(2)]
        for tiles in batches:
            by_set = [window.boundary(F, R) for F in tiles]
            assert list(window.boundary_counts(tiles, R)) == [(len(bd), c) for bd, c in by_set]
            contaminated.update(c for _, c in by_set)
            # each pass on the batch path: verify, castle columns (tuple orbits), defect
            t = Tiling(window, [frozenset(F) for F in tiles], R, Fraction(1, 2), [], 0)
            report = verify_tiling(t)
            assert [(r.boundary, r.contaminated) for r in report.tiles] == [(len(bd), c) for bd, c in by_set]
            c = castle.castle_from_tiling(t)
            by_orbit = [(window.boundary(orbit, R), len(orbit)) for orbit in c.orbits()]
            clean = [Fraction(len(bd), n) for (bd, halo), n in by_orbit if not halo]
            if clean:
                assert castle.invariance_defect(c, window, R) == max(clean)
            else:
                with pytest.raises(ValueError, match="every orbit is halo-contaminated"):
                    castle.invariance_defect(c, window, R)
    # windows with a halo show both kinds of tile
    assert contaminated == ({False, True} if window.halo else {False})


def _two_block_stack(R):
    """Two blocks per column over a tree, the halo R levels deep, so the top blocks are contaminated."""
    base = space.regular_tree_window(3, 1, 0).space
    _, N = stacked_block_height(stacked_product_window(base, 2 * R + 2, 0), R, Fraction(1))
    return tile_stacked_product(stacked_product_window(base, 2 * N + R, R), R, Fraction(1))


@pytest.mark.parametrize(
    "construct",
    [
        lambda R: tile_interval(integer_window(-60, 60, R), R, Fraction(1, 4)),
        lambda R: tile_sparse_subset(sorted(random.Random(R).sample(range(400), 90)), R, Fraction(1, 2), True),
        lambda R: _two_block_stack(R),
        lambda R: tile_box_space([2 ** k for k in range(1, 9)], R, Fraction(1, 2)),
    ],
    ids=["interval", "sparse", "stacked", "box"],
)
def test_construction_metadata_agrees_with_boundary_set_by_set(construct):
    for R in (1, 2):
        t = construct(R)
        for tile, m in zip(t.tiles, t.meta):
            bd, contaminated = t.window.boundary(tile, R)
            assert (m.ratio, m.diameter) == (Fraction(len(bd), len(tile)), t.window.space.diameter_of(tile))
            assert m.contaminated >= contaminated
        assert len(t.meta) == len(t.tiles)
