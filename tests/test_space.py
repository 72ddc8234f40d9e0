import random
import tracemalloc
from fractions import Fraction

import pytest

from coarse_lab.space import (
    BoxSpace,
    FiniteMetricSpace,
    GraphSpace,
    IntegerLineSpace,
    IntegerSubsetSpace,
    MatrixSpace,
    StackedSpace,
    TRIANGLE_CHECK_LIMIT,
    WindowedSpace,
    ball,
    box_window,
    build_graph_metric,
    integer_window,
    outer_boundary,
    regular_tree_window,
    stacked_product_window,
    subset_window,
)


def brute_boundary(space, F, R):
    """Definition replay: points outside F at distance <= R from F."""
    F = set(F)
    return {
        x
        for x in space.points
        if x not in F and any(space.dist(x, f) <= R for f in F)
    }


def brute_ball(space, center, R):
    return {y for y in space.points if space.dist(center, y) <= R}


# -- graph metric -----------------------------------------------------------


def test_path_graph_two_hops():
    s = build_graph_metric([0, 1, 2], [(0, 1), (1, 2)])
    assert s.dist(0, 2) == 2


def test_single_vertex_identity():
    s = build_graph_metric(["v"], [])
    assert s.dist("v", "v") == 0


def test_disconnected_sentinel():
    # components of sizes 2 and 1: sentinel is 3 + 1
    s = build_graph_metric(["a", "b", "c"], [("a", "b")])
    assert s.dist("a", "c") == 4
    assert s.dist("c", "b") == 4
    assert s.sentinel == 4


def test_duplicate_vertex_rejected():
    with pytest.raises(ValueError):
        build_graph_metric(["a", "a"], [])


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        build_graph_metric(["a", "b"], [("a", "a")])


def test_edge_to_undeclared_vertex_rejected():
    with pytest.raises(ValueError):
        build_graph_metric(["a"], [("a", "b")])


def frozenset_adjacency(vertices, edges):
    """The neighbour lists built edge by edge: a frozenset dedupe key per edge, then a sort per vertex."""
    index = {p: i for i, p in enumerate(vertices)}
    adj = {p: [] for p in vertices}
    seen = set()
    for a, b in edges:
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            adj[a].append(b)
            adj[b].append(a)
    for p in adj:
        adj[p].sort(key=index.__getitem__)
    return adj


@pytest.mark.parametrize("seed", range(20))
def test_graph_adjacency_matches_the_frozenset_reference(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    vertices = rng.sample([*range(40), *map(str, range(40))], n)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        a, b = rng.sample(vertices, 2)
        edges += [(a, b)] * rng.randint(1, 2) + [(b, a)] * rng.randint(0, 1)
    rng.shuffle(edges)
    # in index order too, where each repeat sits next to its first copy
    index = {p: i for i, p in enumerate(vertices)}
    in_order = sorted(edges, key=lambda e: sorted(map(index.__getitem__, e)))
    for es in (edges, in_order):
        # same lists in the same dict order, so every search visits neighbours alike
        assert list(GraphSpace(vertices, es)._adj.items()) == list(frozenset_adjacency(vertices, es).items())


def test_tree_window_adjacency_matches_the_frozenset_reference():
    w = regular_tree_window(3, 3, 2)
    edges = [(p[:-1], p) for p in w.space.points if p != "v"]
    assert list(w.space._adj.items()) == list(frozenset_adjacency(w.space.points, edges).items())
    assert w.core == ball(w.space, "v", 3)


def test_graph_ball_crosses_sentinel():
    s = build_graph_metric(["a", "b", "c"], [("a", "b")])
    assert ball(s, "a", 1) == {"a", "b"}
    assert ball(s, "a", 4) == {"a", "b", "c"}


def random_forest(rng):
    """A seeded random graph with at least two components, and its vertex list."""
    n = rng.randint(2, 14)
    labels = [0, 1] + [rng.randrange(rng.randint(2, 4)) for _ in range(n - 2)]
    rng.shuffle(labels)
    vertices = [f"v{i}" if i % 3 else i for i in range(n)]
    edges = [
        (vertices[i], vertices[j])
        for i in range(n)
        for j in range(i + 1, n)
        if labels[i] == labels[j] and rng.random() < 0.4
    ]
    return vertices, edges


def floyd_warshall(vertices, edges):
    """All-pairs hop distances, with n + 1 between components."""
    n = len(vertices)
    D = {x: {y: 0 if x == y else n + 1 for y in vertices} for x in vertices}
    for a, b in edges:
        D[a][b] = D[b][a] = 1
    for k in vertices:
        for i in vertices:
            for j in vertices:
                if D[i][k] + D[k][j] < D[i][j]:
                    D[i][j] = D[i][k] + D[k][j]
    return D


def test_graph_dist_and_diameter_match_floyd_warshall():
    rng = random.Random(41)
    sentinels = 0
    for _ in range(60):
        vertices, edges = random_forest(rng)
        D = floyd_warshall(vertices, edges)
        s = GraphSpace(vertices, edges)
        for x in vertices:
            for y in vertices:
                assert s.dist(x, y) == D[x][y], (x, y)
        for _ in range(10):
            F = set(rng.sample(vertices, rng.randint(1, len(vertices))))
            want = max(D[x][y] for x in F for y in F)
            assert s.diameter_of(F) == want, F
            sentinels += want == s.sentinel
    assert sentinels > 0


def test_stacked_boundary_over_a_forest_matches_the_formula():
    rng = random.Random(43)
    for _ in range(40):
        vertices, edges = random_forest(rng)
        D = floyd_warshall(vertices, edges)
        K = rng.randint(2, 6)
        s = StackedSpace(GraphSpace(vertices, edges), K)

        def d(p, q):
            (x, n), (y, m) = p, q
            return abs(n - m) if x == y else n + m + D[x][y]

        for _ in range(5):
            F = set(rng.sample(s.points, rng.randint(1, min(8, len(s.points)))))
            R = rng.randint(0, len(vertices) + 4)
            want = {p for p in s.points if p not in F and any(d(p, f) <= R for f in F)}
            assert s.boundary_of(F, R) == want, (F, R)


def test_graph_diameters_keep_no_state():
    n = 2000
    s = GraphSpace(range(n), [(i, i + 1) for i in range(n - 1)])
    tiles = [set(range(i, i + 10)) for i in range(0, n, 10)]
    state = {k: v.copy() if isinstance(v, (dict, list)) else v for k, v in vars(s).items()}
    tracemalloc.start()
    try:
        assert all(s.diameter_of(T) == 9 for T in tiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.dist(0, n - 1) == n - 1
    assert len(tiles) == 200 and peak < 10 * 2 ** 20, peak
    assert vars(s) == state


# -- balls ------------------------------------------------------------------


def test_ball_on_path():
    s = build_graph_metric(range(5), [(i, i + 1) for i in range(4)])
    assert ball(s, 2, 1) == {1, 2, 3}
    assert ball(s, 2, 1) == brute_ball(s, 2, 1)


def test_ball_radius_zero():
    s = IntegerLineSpace(-3, 3)
    assert ball(s, 0, 0) == {0}


def test_tree_root_ball():
    w = regular_tree_window(3, 2, 0)
    b = ball(w.space, "v", 2)
    assert len(b) == 10  # 1 + 3 + 6
    assert b == brute_ball(w.space, "v", 2)


def test_ball_unknown_center():
    s = IntegerLineSpace(0, 5)
    with pytest.raises(ValueError):
        ball(s, 99, 1)


# -- outer boundary ---------------------------------------------------------


def test_boundary_empty_set():
    s = IntegerLineSpace(0, 10)
    assert outer_boundary(s, set(), 3) == set()


def test_boundary_interval_in_z_window():
    w = integer_window(-50, 50, 0)
    F = set(range(0, 10))
    got = outer_boundary(w.space, F, 2)
    assert got == {-2, -1, 10, 11}
    assert len(got) == 4  # 2R
    assert got == brute_boundary(w.space, F, 2)


def test_boundary_singleton_on_path():
    s = build_graph_metric(range(5), [(i, i + 1) for i in range(4)])
    assert outer_boundary(s, {2}, 1) == {1, 3}


def test_boundary_disjoint_and_within_R():
    rng = random.Random(7)
    w = integer_window(-30, 30, 0)
    for _ in range(25):
        F = set(rng.sample(w.space.points, rng.randint(1, 12)))
        R = rng.randint(0, 4)
        got = outer_boundary(w.space, F, R)
        assert got == brute_boundary(w.space, F, R)
        assert not (got & F)
        assert all(min(abs(x - f) for f in F) <= R for x in got)


def test_boundary_monotonicity():
    rng = random.Random(11)
    s = IntegerLineSpace(-40, 40)
    for _ in range(25):
        F = set(rng.sample(s.points, rng.randint(1, 10)))
        extra = set(rng.sample(s.points, rng.randint(0, 6)))
        F2 = F | extra
        R, R2 = sorted((rng.randint(0, 5), rng.randint(0, 5)))
        assert outer_boundary(s, F, R) <= F2 | outer_boundary(s, F2, R)
        assert outer_boundary(s, F, R) <= outer_boundary(s, F, R2)


def test_ball_is_center_plus_boundary():
    rng = random.Random(3)
    w = regular_tree_window(3, 3, 0)
    pts = sorted(w.space.points)
    for _ in range(10):
        x = rng.choice(pts)
        R = rng.randint(0, 3)
        assert ball(w.space, x, R) == {x} | outer_boundary(w.space, {x}, R)


def test_z_interval_boundary_is_2R():
    rng = random.Random(19)
    w = integer_window(-100, 100, 0)
    for _ in range(30):
        a = rng.randint(-80, 60)
        b = a + rng.randint(0, 15)
        R = rng.randint(1, 5)
        F = set(range(a, b + 1))
        assert len(outer_boundary(w.space, F, R)) == 2 * R


def test_boundary_names_the_unknown_point():
    s = IntegerLineSpace(0, 100)
    with pytest.raises(ValueError) as e:
        outer_boundary(s, {3, 4, 999}, 1)
    assert str(e.value) == "set contains an unknown point: 999"
    with pytest.raises(ValueError) as e:
        s.point_set([3, "x"])
    assert str(e.value) == "set contains an unknown point: 'x'"
    # with several unknown points, the first in a fresh set(F) is named, also
    # for a set whose emptied slots make it iterate in another order than its copy
    shrunk = {1100} | set(range(200))
    for p in range(200):
        shrunk.discard(p)
    shrunk.add(1500)
    for F in ({150, 3, 250}, shrunk):
        first = next(p for p in set(F) if p not in s)
        for check in (lambda F: outer_boundary(s, F, 1), s.point_set):
            with pytest.raises(ValueError) as e:
                check(F)
            assert str(e.value) == f"set contains an unknown point: {first!r}"


def test_boundary_of_list_and_generator():
    s = IntegerLineSpace(0, 20)
    assert outer_boundary(s, [5, 6, 6, 7], 2) == {3, 4, 8, 9}
    assert outer_boundary(s, (p for p in range(5, 8)), 2) == {3, 4, 8, 9}
    with pytest.raises(ValueError, match="unknown point: 21"):
        outer_boundary(s, (p for p in (5, 21)), 1)


def test_boundary_leaves_the_callers_set_alone():
    rng = random.Random(13)
    windows = [
        integer_window(-20, 20, 3),
        regular_tree_window(3, 3, 1),
        stacked_product_window(build_graph_metric("abc", [("a", "b"), ("b", "c")]), 8),
        box_window([2, 4, 8, 16]),
        subset_window([1, 2, 4, 8, 9, 10, 30]),
    ]
    for w in windows:
        pts = sorted(w.core, key=repr)
        for R in (0, 1, 2, 5):
            for F in (set(rng.sample(pts, 3)), frozenset(rng.sample(pts, 4))):
                before = set(F)
                bd = outer_boundary(w.space, F, R)
                assert bd is not F and F == before
                assert bd == brute_boundary(w.space, F, R)
                bd, _ = w.boundary(F, R)
                w.space.diameter_of(F)
                assert F == before


# -- Folner ratio -----------------------------------------------------------


def test_folner_ratio_interval():
    w = integer_window(-200, 200, 0)
    F = set(range(0, 21))
    bd, contaminated = w.boundary(F, 1)
    assert (Fraction(len(bd), len(F)), contaminated) == (Fraction(2, 21), False)


def test_folner_ratio_whole_window():
    w = integer_window(0, 9, 0)
    F = set(w.space.points)
    bd, contaminated = w.boundary(F, 3)
    assert (Fraction(len(bd), len(F)), contaminated) == (0, False)


def test_folner_ratio_tree_ball():
    w = regular_tree_window(3, 5, 0)
    F = ball(w.space, "v", 3)
    assert len(F) == 22
    bd, contaminated = w.boundary(F, 1)
    assert (Fraction(len(bd), len(F)), contaminated) == (Fraction(24, 22), False)


def test_boundary_of_the_empty_set_is_empty_and_clean():
    # ∅ meets no halo, even on a window that has one
    w = integer_window(0, 5, 2)
    assert w.boundary(set(), 1) == (set(), False)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        w.boundary(set(), -1)


# -- diameter ---------------------------------------------------------------


def test_diameter_singleton():
    s = IntegerLineSpace(0, 5)
    assert s.diameter_of({3}) == 0


def test_diameter_interval():
    s = IntegerLineSpace(-20, 20)
    assert s.diameter_of(set(range(0, 10))) == 9


def test_diameter_spread_set():
    s = IntegerLineSpace(-20, 20)
    assert s.diameter_of({0, 1, 4}) == 4


# -- stacked product --------------------------------------------------------


def test_stacked_single_point_column():
    X = build_graph_metric(["p"], [])
    w = stacked_product_window(X, 8)
    s = w.space
    for n in range(8):
        for m in range(8):
            assert s.dist(("p", n), ("p", m)) == abs(n - m)


def test_stacked_metric_formula():
    X = build_graph_metric(["x", "y"], [("x", "y")])
    s = StackedSpace(X, 5)
    assert s.dist(("x", 0), ("y", 0)) == 1
    assert s.dist(("x", 2), ("y", 3)) == 6


def test_stacked_base_ball():
    X = build_graph_metric(["x", "y"], [("x", "y")])
    s = StackedSpace(X, 5)
    got = ball(s, ("x", 0), 1)
    assert got == {("x", 0), ("x", 1), ("y", 0)}
    assert len(got) == 3


def test_stacked_triangle_inequality():
    X = build_graph_metric(["a", "b", "c"], [("a", "b"), ("b", "c")])
    s = StackedSpace(X, 6)
    rng = random.Random(5)
    pts = sorted(s.points)
    for _ in range(300):
        p, q, r = (rng.choice(pts) for _ in range(3))
        assert s.dist(p, r) <= s.dist(p, q) + s.dist(q, r)


def test_stacked_boundary_matches_brute():
    X = build_graph_metric(["a", "b", "c"], [("a", "b"), ("b", "c")])
    s = StackedSpace(X, 7)
    rng = random.Random(13)
    pts = sorted(s.points)
    for _ in range(20):
        F = set(rng.sample(pts, rng.randint(1, 8)))
        R = rng.randint(0, 4)
        assert s.boundary_of(F, R) == brute_boundary(s, F, R)
        assert s.diameter_of(F) == max(
            s.dist(p, q) for p in F for q in F
        )


STACK_BASES = {
    "tree": lambda: regular_tree_window(3, 2, 0).space,
    # a path and a triangle: columns over the other component sit past the sentinel
    "two-component": lambda: GraphSpace(range(6), [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),
    "subset": lambda: IntegerSubsetSpace([0, 1, 3, 4, 9]),
}


@pytest.mark.parametrize("name", STACK_BASES)
@pytest.mark.parametrize("K", [2, 5])
def test_stacked_ball_kernel_matches_the_generic_ball(name, K):
    base = STACK_BASES[name]()
    s = StackedSpace(base, K)
    diameter = max(base.dist(x, y) for x in base.points for y in base.points)
    # R = -1 keeps the center, as the generic ball does; from R = K + diameter
    # - 1 on, a level-0 ball reads its inner columns whole (the full-column branch)
    for R in range(-1, K + diameter + 2):
        for p in s.points:
            assert s.ball_of(p, R) == FiniteMetricSpace.ball_of(s, p, R) == brute_ball(s, p, R) | {p}, (R, p)
    if name != "two-component":
        assert all(s.ball_of((x, 0), K - 1 + diameter) == set(s.points) for x in base.points)


def test_stacked_window_split():
    X = build_graph_metric(["p"], [])
    w = stacked_product_window(X, 8)
    assert w.halo_depth == 2
    assert w.core == frozenset(("p", n) for n in range(6))
    assert w.halo == frozenset(("p", n) for n in (6, 7))


def test_stacked_window_rejects_small_K():
    X = build_graph_metric(["p"], [])
    with pytest.raises(ValueError):
        stacked_product_window(X, 1)


# -- box space --------------------------------------------------------------


def test_box_space_cycle_distance():
    s = BoxSpace([4, 8])
    assert s.dist((0, 0), (0, 3)) == 1
    assert s.dist((1, 0), (1, 4)) == 4
    # cross-block: D_1 + D_2 = (2+1) + (2+1+4+1) = 11
    assert s.dist((0, 2), (1, 5)) == 11


def test_box_space_boundary_matches_brute():
    s = BoxSpace([2, 4, 8])
    rng = random.Random(23)
    pts = sorted(s.points)
    for _ in range(20):
        F = set(rng.sample(pts, rng.randint(1, 6)))
        R = rng.randint(0, 10)
        assert s.boundary_of(F, R) == brute_boundary(s, F, R)
        assert s.diameter_of(F) == max(s.dist(p, q) for p in F for q in F)


def with_fallbacks(cls):
    """cls with the distance-only bulk operations of the base class."""
    fallbacks = ("ball_of", "boundary_of", "diameter_of", "pairs_within")
    return type(f"Generic{cls.__name__}", (cls,), {f: getattr(FiniteMetricSpace, f) for f in fallbacks})


def test_box_space_boundary_matches_generic_fallback():
    rng = random.Random(31)
    chains = ([2 ** k for k in range(1, 8)], [1, 3, 9, 27], [1, 1, 2, 1, 3, 8], [5, 1, 12, 2, 7], [6])
    for moduli in chains:
        s, generic = BoxSpace(moduli), with_fallbacks(BoxSpace)(moduli)
        pts = sorted(s.points)
        for R in range(6):
            assert s.boundary_of(set(), R) == set()
            for _ in range(15):
                F = set(rng.sample(pts, rng.randint(1, min(12, len(pts)))))
                assert s.boundary_of(F, R) == generic.boundary_of(F, R), (moduli, R, F)
            for p in rng.sample(pts, min(5, len(pts))):
                assert s.ball_of(p, R) == generic.ball_of(p, R), (moduli, R, p)


# a path, a triangle and an isolated vertex, so the sentinel distance shows
FOREST = (range(9), [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4), (3, 7)])

FALLBACK_SPACES = {
    "line": (IntegerLineSpace, (-3, 9)),
    "subset": (IntegerSubsetSpace, ([0, 1, 2, 5, 6, 9, 15, 16, 30],)),
    "graph": (GraphSpace, FOREST),
    "stacked-forest": (StackedSpace, (GraphSpace(*FOREST), 6)),
    "stacked-line": (StackedSpace, (IntegerLineSpace(0, 4), 5)),
    "box": (BoxSpace, ([1, 3, 6, 12],)),
}


@pytest.mark.parametrize("name", FALLBACK_SPACES)
def test_bulk_operations_match_generic_fallbacks(name):
    cls, args = FALLBACK_SPACES[name]
    s, generic = cls(*args), with_fallbacks(cls)(*args)
    rng = random.Random(name)
    pts = sorted(s.points, key=repr)
    sets = [set(rng.sample(pts, rng.randint(1, min(10, len(pts))))) for _ in range(20)]
    # slices of the sorted points, the whole space among them: runs on the
    # line and the subset, some touching lo/hi or the first/last value
    ordered = sorted(s.points)
    runs = [set(ordered)] + [set(ordered[i:i + k]) for i in range(len(ordered)) for k in (1, 3)]
    for F in sets:
        assert s.diameter_of(F) == generic.diameter_of(F), F
    # the last radius is the forest's sentinel distance, which joins every pair
    for R in (*range(6), 10):
        assert s.boundary_of(set(), R) == generic.boundary_of(set(), R) == set()
        bds = [generic.boundary_of(F, R) for F in sets + runs]
        for F, bd in zip(sets + runs, bds):
            assert s.boundary_of(F, R) == bd, (R, F)
        # the counts take any collection of distinct points
        counts = list(map(len, bds))
        assert s.boundary_counts(sets + runs, R) == counts, R
        assert s.boundary_counts([tuple(F) for F in sets + runs], R) == counts, R
        for p in pts:
            assert s.ball_of(p, R) == generic.ball_of(p, R), (R, p)
    # one radius at or past the forest's sentinel distance, 10, joins every pair
    for P in (*range(6), 10):
        pairs = list(map(frozenset, s.pairs_within(P)))
        brute = {frozenset((p, q)) for p in pts for q in pts if p != q and s.dist(p, q) <= P}
        assert set(pairs) == brute, P
        assert len(pairs) == len(brute), P
        assert set(map(frozenset, generic.pairs_within(P))) == brute, P


def test_box_window_has_no_halo():
    w = box_window([2, 4])
    assert w.halo == frozenset()
    assert w.core == frozenset(w.space.points)


# -- matrix space -----------------------------------------------------------


def test_matrix_space_valid():
    m = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    s = MatrixSpace(["a", "b", "c"], m)
    assert s.dist("a", "c") == 2


def test_matrix_space_rejects_asymmetry():
    with pytest.raises(ValueError):
        MatrixSpace(["a", "b"], [[0, 1], [2, 0]])


def test_matrix_space_rejects_triangle_violation():
    with pytest.raises(ValueError):
        MatrixSpace(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])


def test_matrix_space_samples_the_triangle_check_above_its_limit():
    # at n = 130 the check samples triples instead of trying all n^3
    n = 130
    assert n > TRIANGLE_CHECK_LIMIT
    # a star: point 0 is 1 from every other point, two others are 3 apart, more than 2 via 0
    star = [[0 if i == j else 1 if 0 in (i, j) else 3 for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError, match="triangle inequality fails"):
        MatrixSpace(range(n), star)
    path = MatrixSpace(range(n), [[abs(i - j) for j in range(n)] for i in range(n)])
    assert path.dist(0, n - 1) == n - 1


def test_matrix_space_rejects_zero_off_diagonal():
    with pytest.raises(ValueError):
        MatrixSpace(["a", "b"], [[0, 0], [0, 0]])


# -- windows ----------------------------------------------------------------


def test_integer_window_split():
    w = integer_window(0, 9, 2)
    assert w.core == frozenset(range(0, 10))
    assert w.halo == frozenset({-2, -1, 10, 11})


def test_window_partition_enforced():
    s = IntegerLineSpace(0, 4)
    with pytest.raises(ValueError):
        WindowedSpace(s, frozenset({0, 1}), frozenset({1, 2, 3, 4}), 1)


def window_of(core, halo):
    return WindowedSpace(IntegerLineSpace(0, 4), frozenset(core), frozenset(halo), 1)


@pytest.mark.parametrize(
    "build, err",
    [
        (lambda: WindowedSpace(IntegerLineSpace(0, 4), frozenset({0, 1}), frozenset({2, 3}), 1),
         "core and halo do not partition the window"),
        (lambda: WindowedSpace(IntegerLineSpace(0, 4), frozenset({0, 1}), frozenset({2, 3, 4}), -1),
         "halo depth must be nonnegative"),
        (lambda: stacked_product_window(IntegerLineSpace(0, 2), 4, 4), "halo depth must satisfy 0 <= H < K"),
        (lambda: stacked_product_window(IntegerLineSpace(0, 2), 4, -1), "halo depth must satisfy 0 <= H < K"),
        (lambda: MatrixSpace(["a", "b"], [[0, 1]]), "distance matrix shape does not match point count"),
        (lambda: MatrixSpace([0, 1], [[1, 1], [1, 0]]), "nonzero self-distance at 0"),
        (lambda: integer_window(5, 4, 0), "empty core interval"),
        (lambda: integer_window(0, 4, -1), "halo depth must be nonnegative"),
        (lambda: regular_tree_window(1, 2, 0), "tree degree must be at least 2"),
        (lambda: regular_tree_window(3, 2, -1), "depths must be nonnegative"),
        (lambda: ball(IntegerLineSpace(0, 4), 2, -1), "radius must be nonnegative"),
        # each refusal below is the first that applies, with its message whole
        (lambda: window_of({0, 1, 99}, {1, 2}), "^core and halo overlap$"),
        (lambda: window_of({0, 1, 2, 3}, {99}), "^core and halo do not partition the window$"),
        (lambda: window_of({0, 1, 2, 3, 99}, set()), "^core and halo do not partition the window$"),
        (lambda: window_of({0, 1, 2}, {3, 4, 99}), "^core and halo do not partition the window$"),
        (lambda: build_graph_metric(["a", "b"], [("a", "b"), ("b", "b"), ("a", "z")]), "^self-loop edge at 'b'$"),
        (lambda: build_graph_metric(["a", "b"], [("a", "b"), ("z", "a"), ("b", "b")]),
         r"^edge \('z', 'a'\) references an undeclared vertex$"),
        (lambda: build_graph_metric(["a", "b"], [("a", "z"), ("z", "a")]),
         r"^edge \('a', 'z'\) references an undeclared vertex$"),
        (lambda: build_graph_metric([3, 1, 2, 1, 3], []), "^duplicate point identifier: 1$"),
        (lambda: build_graph_metric(["a", "b", "b", "a"], []), "^duplicate point identifier: 'b'$"),
    ],
    ids=[
        "window-cover", "window-depth", "stack-depth-high", "stack-depth-low", "matrix-shape", "matrix-diagonal",
        "interval-empty", "interval-depth", "tree-degree", "tree-depth", "ball-radius",
        "window-overlap-and-foreign", "window-foreign-halo-point", "window-foreign-core-point", "window-one-too-many",
        "graph-self-loop-first", "graph-undeclared-first", "graph-undeclared-second-end",
        "duplicate-first-repeat", "duplicate-first-repeat-str",
    ],
)
def test_malformed_space_or_window_is_refused(build, err):
    with pytest.raises(ValueError, match=err):
        build()


@pytest.mark.parametrize(
    "space, known, unknown",
    [
        (MatrixSpace(["a", "b"], [[0, 1], [1, 0]]), "a", "z"),
        (build_graph_metric(["a", "b"], [("a", "b")]), "a", "z"),
        (IntegerLineSpace(0, 5), 0, 99),
        (StackedSpace(IntegerLineSpace(0, 2), 4), (0, 0), (7, 0)),  # an unknown column
        (StackedSpace(IntegerLineSpace(0, 2), 4), (0, 0), (0, 4)),  # a level above the window
        (BoxSpace([2, 4]), (0, 0), (5, 0)),  # an unknown block
        (BoxSpace([2, 4]), (0, 0), (0, 3)),  # a residue past the block's modulus
    ],
    ids=["matrix", "graph", "line", "stacked-column", "stacked-level", "box-block", "box-residue"],
)
def test_dist_refuses_a_point_outside_the_space(space, known, unknown):
    for x, y in ((known, unknown), (unknown, known)):
        with pytest.raises(KeyError) as e:
            space.dist(x, y)
        assert e.value.args == (unknown,)


def test_halo_contamination_flag():
    w = integer_window(0, 9, 3)
    for F, expected in (({4, 5}, (2, False)), ({0, 1}, (2, True))):  # {0, 1} reaches -2, -1
        bd, contaminated = w.boundary(F, 2)
        assert (Fraction(len(bd), len(F)), contaminated) == expected
    # a set with a halo point is contaminated though its boundary is all core:
    # the window shows {10} the boundary {9}, the ambient line {9, 11}
    w = integer_window(0, 9, 1)
    for F, bd in (({10}, {9}), ({9, 10}, {8})):
        assert w.boundary(F, 1) == (bd, True)
        assert list(w.boundary_counts([F], 1)) == [(len(bd), True)]


def test_halo_window_counts_core_runs_without_building_their_boundaries(monkeypatch):
    # the counts come from the run kernel; the flags from N_R(halo), built once
    w = integer_window(0, 99, 3)
    calls = []
    boundary_of = IntegerSubsetSpace.boundary_of

    def counting(self, F, R):
        calls.append((set(F), R))
        return boundary_of(self, F, R)

    monkeypatch.setattr(IntegerSubsetSpace, "boundary_of", counting)
    runs = [tuple(range(a, a + 10)) for a in range(0, 100, 10)]
    assert list(w.boundary_counts(runs, 2)) == [(4, True)] + [(4, False)] * 8 + [(4, True)]
    assert calls == [(w.halo, 2)]


def test_subset_window():
    w = subset_window([1, 4, 9, 16])
    assert w.halo == frozenset()
    assert w.space.dist(4, 16) == 12
    with pytest.raises(ValueError, match="values must be strictly increasing"):
        IntegerSubsetSpace([3, 3])
    with pytest.raises(ValueError, match="empty integer subset"):
        IntegerSubsetSpace([])
    with pytest.raises(ValueError, match="empty integer interval"):
        IntegerLineSpace(3, 2)
