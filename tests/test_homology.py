import random

import pytest

from coarse_lab.flows import FlowNetwork
from coarse_lab.homology import (
    InfeasibleFill,
    OneChain,
    ZeroChain,
    apply_boundary,
    min_norm_fill,
)
from coarse_lab.oracles import min_fill_norm_by_scan
from coarse_lab.space import (
    GraphSpace,
    WindowedSpace,
    build_graph_metric,
    integer_window,
    regular_tree_window,
)


# -- boundary operator -------------------------------------------------------


def test_boundary_single_pair():
    h = OneChain({("a", "b"): 1}, 1)
    assert apply_boundary(h) == ZeroChain({"b": 1, "a": -1})


def test_boundary_telescopes_along_path():
    h = OneChain({(i, i + 1): 1 for i in range(10)}, 1)
    assert apply_boundary(h) == ZeroChain({10: 1, 0: -1})


def test_boundary_of_zero():
    assert apply_boundary(OneChain({}, 3)) == ZeroChain({})


def test_boundary_total_mass_zero():
    rng = random.Random(31)
    coeffs = {}
    for _ in range(30):
        x, y = rng.randint(0, 20), rng.randint(0, 20)
        coeffs[(x, y)] = rng.randint(-5, 5)
    assert sum(apply_boundary(OneChain(coeffs, 25)).coeffs.values()) == 0


# -- min_norm_fill -----------------------------------------------------------


def test_fill_zero_chain():
    w = integer_window(0, 10, 1)
    res = min_norm_fill(w, ZeroChain({}), 1)
    assert res.norm == 0
    assert res.chain.coeffs == {}


def test_fill_dipole_along_path():
    w = integer_window(0, 10, 1)
    c = ZeroChain({0: 1, 10: -1})
    res = min_norm_fill(w, c, 1)
    assert res.norm == 1
    assert apply_boundary(res.chain).restricted_to(w.core) == c


def test_fill_bound_never_passes_the_mass(monkeypatch):
    # a solver that never finds flow, under a cut that always crosses a pair
    # edge, would raise the bound forever; the optimum is at most the chain's
    # total absolute mass, so the loop must stop there
    def no_flow(self, s, t):
        # the cut {s, 0} crosses the pair edges at point node 0
        self.level = [0 if i in (s, 0) else -1 for i in range(len(self.adj))]
        return 0

    monkeypatch.setattr(FlowNetwork, "max_flow", no_flow)
    w = integer_window(0, 10, 1)
    with pytest.raises(AssertionError, match="total absolute mass"):
        min_norm_fill(w, ZeroChain({0: 1, 10: -1}), 1)


def test_fill_constant_one_exits_both_ends():
    w = integer_window(0, 10, 2)
    c = ZeroChain({i: 1 for i in range(0, 11)})
    res = min_norm_fill(w, c, 1)
    assert res.norm == 6  # mass 11 exits two ends, best split 6/5


def test_fill_norms_on_z_grow_linearly():
    for L, expected in ((20, 10), (30, 15), (51, 26)):
        w = integer_window(0, L - 1, 2)
        c = ZeroChain({i: 1 for i in range(0, L)})
        assert min_norm_fill(w, c, 1).norm == expected


def test_fill_bounded_on_trees():
    for depth in (3, 4, 5):
        w = regular_tree_window(3, depth, 1)
        c = ZeroChain({p: 1 for p in w.core})
        res = min_norm_fill(w, c, 1)
        assert res.norm <= 3
        assert apply_boundary(res.chain).restricted_to(w.core) == c


def test_fill_agrees_with_scan_oracle():
    rng = random.Random(77)
    w = integer_window(0, 12, 3)
    for _ in range(12):
        support = rng.sample(sorted(w.core), rng.randint(1, 6))
        c = ZeroChain({p: rng.randint(-3, 3) for p in support})
        if not c.coeffs:
            continue
        P = rng.randint(1, 3)
        res = min_norm_fill(w, c, P)
        assert res.norm == min_fill_norm_by_scan(w, c.coeffs, P)
        assert apply_boundary(res.chain).restricted_to(w.core) == c


def test_scan_oracle_gives_up_past_its_cap():
    # no halo, so the dipole's mass 3 crosses every edge of the path
    w = integer_window(0, 4, 0)
    c = ZeroChain({0: 3, 4: -3})
    assert min_norm_fill(w, c, 1).norm == min_fill_norm_by_scan(w, c.coeffs, 1, cap=3) == 3
    assert min_fill_norm_by_scan(w, c.coeffs, 1, cap=2) is None


def random_chain(rng: random.Random, points) -> ZeroChain:
    support = rng.sample(sorted(points, key=repr), rng.randint(1, 6))
    return ZeroChain({p: rng.choice([-3, -2, -1, 1, 2, 3]) for p in support})


def assert_canonical_fill(res, w, c):
    assert apply_boundary(res.chain).restricted_to(w.core) == c
    assert res.chain.sup_norm() == res.norm
    for (x, y) in res.chain.coeffs:
        assert (y, x) not in res.chain.coeffs


@pytest.mark.parametrize("P", [1, 2, 3])
def test_parametric_norm_matches_scan_on_lines(P):
    rng = random.Random(100 + P)
    w = integer_window(0, 12, 3)
    for _ in range(10):
        c = random_chain(rng, w.core)
        res = min_norm_fill(w, c, P)
        assert res.norm == min_fill_norm_by_scan(w, c.coeffs, P)
        assert_canonical_fill(res, w, c)


def test_parametric_norm_matches_scan_on_trees():
    rng = random.Random(5)
    w = regular_tree_window(3, 3, 1)
    for _ in range(10):
        c = random_chain(rng, w.core)
        res = min_norm_fill(w, c, 1)
        assert res.norm == min_fill_norm_by_scan(w, c.coeffs, 1)
        assert_canonical_fill(res, w, c)


def test_fill_dipole_on_long_path():
    w = integer_window(0, 2999, 0)
    c = ZeroChain({0: 1, 2999: -1})
    res = min_norm_fill(w, c, 1)
    assert res.norm == 1
    assert res.solves == 1
    assert apply_boundary(res.chain) == c


def test_fill_is_deterministic():
    cases = [
        (integer_window(0, 15, 3), ZeroChain({i: 1 for i in range(16)}), 2),
        (regular_tree_window(3, 4, 1), ZeroChain({"v": 5, "v0": -2}), 1),
    ]
    for w, c, P in cases:
        first, second = min_norm_fill(w, c, P), min_norm_fill(w, c, P)
        assert first == second


# Fills on windows whose repr order of points differs from their numeric or
# tree order.  The network adds its pair edges in repr-rank order, and that
# order decides which optimal flow max flow finds, so these literals pin it.
# The symmetric all-ones chains and the dipole have the same fill under any
# pair order tried; each window's mixed-sign chain changes its fill when the
# pairs are reversed or shuffled, and on the line when sorted by value.


def fill_record(res):
    return res.norm, res.chain.coeffs, res.solves, res.nodes, res.arcs


def test_fill_pins_a_dipole_on_a_path_across_a_digit_boundary():
    # "1000" < "1010" < "990" in repr order
    labels = list(range(990, 1011))
    g = build_graph_metric(labels, list(zip(labels, labels[1:])))
    w = WindowedSpace(g, frozenset(labels), frozenset(), 0)
    res = min_norm_fill(w, ZeroChain({990: 1, 1010: -1}), 1)
    path = {(x + 1, x): 1 for x in range(990, 1010)}
    assert fill_record(res) == (1, path, 1, 23, 22)


def test_fill_pins_line_chains_across_a_digit_boundary():
    w = integer_window(95, 104, 2)
    res = min_norm_fill(w, ZeroChain({p: 1 for p in w.core}), 2)
    assert fill_record(res) == (
        2,
        {
            (102, 100): 1, (103, 101): 1, (104, 102): 2, (105, 103): 2,
            (105, 104): 2, (106, 104): 1, (93, 95): 2, (94, 95): 1,
            (94, 96): 2, (95, 97): 2, (96, 98): 1, (97, 99): 1,
        },
        2, 17, 40,
    )
    res = min_norm_fill(w, ZeroChain({95: -2, 96: -3, 99: 1, 101: 1}), 2)
    assert fill_record(res) == (
        1,
        {
            (100, 101): 1, (98, 100): 1, (95, 93): 1, (95, 94): 1,
            (96, 94): 1, (96, 97): 1, (96, 98): 1, (97, 99): 1,
        },
        1, 17, 34,
    )


def test_fill_pins_tree_chains_at_propagation_two():
    # P = 2 on a graph reads one ball per point, not the edge list
    w = regular_tree_window(3, 3, 2)
    res = min_norm_fill(w, ZeroChain({p: 1 for p in w.core}), 2)
    pairs = [
        ("v00", "v"), ("v000", "v0"), ("v0000", "v00"), ("v0001", "v00"),
        ("v0000", "v000"), ("v00000", "v000"), ("v0010", "v001"),
        ("v0100", "v01"), ("v0100", "v010"), ("v0110", "v011"),
        ("v100", "v1"), ("v1000", "v10"), ("v1000", "v100"),
        ("v10000", "v100"), ("v1010", "v101"), ("v1100", "v11"),
        ("v1100", "v110"), ("v1110", "v111"), ("v200", "v2"),
        ("v2000", "v20"), ("v2000", "v200"), ("v20000", "v200"),
        ("v2010", "v201"), ("v2100", "v21"), ("v2100", "v210"),
        ("v2110", "v211"),
    ]
    assert fill_record(res) == (1, dict.fromkeys(pairs, 1), 1, 97, 326)
    res = min_norm_fill(w, ZeroChain({"v1": 1, "v211": -1, "v20": 2}), 2)
    pairs = [("v2", "v1"), ("v211", "v2"), ("v2000", "v20"), ("v2001", "v20")]
    assert fill_record(res) == (1, dict.fromkeys(pairs, 1), 1, 97, 307)


def test_fill_leaves_out_an_uncharged_component():
    # repr order interleaves the components: the chain sits on the cycle
    # a-c-e-g, and the path b-d-f carries nothing, so the node and arc
    # counts leave it out
    g = GraphSpace(list("abcdefg"), [("a", "c"), ("c", "e"), ("e", "g"), ("a", "g"), ("b", "d"), ("d", "f")])
    w = WindowedSpace(g, frozenset(g.points), frozenset(), 0)
    c = ZeroChain({"a": 3, "e": -3})
    assert fill_record(min_norm_fill(w, c, 1)) == (
        2, {("c", "a"): 2, ("g", "a"): 1, ("e", "c"): 2, ("e", "g"): 1}, 2, 6, 6,
    )
    assert fill_record(min_norm_fill(w, c, 2)) == (
        1, {("c", "a"): 1, ("e", "a"): 1, ("g", "a"): 1, ("e", "c"): 1, ("e", "g"): 1}, 1, 6, 8,
    )


def test_fill_opens_no_exit_from_an_uncharged_component():
    # halo point h touches the charged path a-c-e, and halo point i the
    # uncharged path b-d-f; only h gets an exit
    g = GraphSpace(list("abcdefhi"), [("a", "c"), ("c", "e"), ("e", "h"), ("b", "d"), ("d", "f"), ("f", "i")])
    w = WindowedSpace(g, frozenset("abcdef"), frozenset("hi"), 1)
    res = min_norm_fill(w, ZeroChain({"a": 2, "c": 1, "e": -1}), 1)
    assert fill_record(res) == (3, {("c", "a"): 2, ("e", "c"): 3, ("h", "e"): 2}, 2, 7, 8)


def test_fill_reads_no_ball_at_propagation_one_on_a_graph(monkeypatch):
    # at P = 1 the pairs come from the graph's edge lists
    def no_ball(self, center, R):
        raise AssertionError("ball_of called")

    monkeypatch.setattr(GraphSpace, "ball_of", no_ball)
    t = regular_tree_window(3, 3, 1)
    assert min_norm_fill(t, ZeroChain({"v": 2, "v0": -1}), 1).norm == 1


def test_fill_with_propagation_beyond_a_halo_free_line_is_bounded():
    # nothing bounds P on a window without a halo; past the line's width
    # it adds no pair, and the fill must not walk the radii
    w = integer_window(0, 3, 0)
    c = ZeroChain({0: 1, 1: -2, 3: 1})
    assert fill_record(min_norm_fill(w, c, 2 ** 40)) == fill_record(min_norm_fill(w, c, 3))


def test_fill_infeasible_component():
    # two components: core points {0..4} have no halo contact in a window
    # whose halo sits across a gap wider than P
    space = GraphSpace(
        ["a", "b", "c", "x", "y"],
        [("a", "b"), ("b", "c"), ("x", "y")],
    )
    w = WindowedSpace(
        space,
        core=frozenset({"a", "b", "c", "x"}),
        halo=frozenset({"y"}),
        halo_depth=1,
    )
    c = ZeroChain({"a": 1})
    with pytest.raises(InfeasibleFill) as e:
        min_norm_fill(w, c, 1)
    assert e.value.component == frozenset({"a", "b", "c"})
    assert e.value.total == 1
    # mass on the halo-touching component is fine
    res = min_norm_fill(w, ZeroChain({"x": 5}), 1)
    assert res.norm == 5


def test_fill_closed_component_with_zero_mass():
    w = integer_window(0, 6, 0)  # no halo at all: the window is everything
    c = ZeroChain({0: 2, 6: -2})
    res = min_norm_fill(w, c, 1)
    assert res.norm == 2
    assert apply_boundary(res.chain) == c


def test_fill_nonzero_total_without_halo_is_infeasible():
    w = integer_window(0, 6, 0)
    with pytest.raises(InfeasibleFill):
        min_norm_fill(w, ZeroChain({3: 1}), 1)


def test_fill_requires_core_support():
    w = integer_window(0, 5, 2)
    with pytest.raises(ValueError, match="core"):
        min_norm_fill(w, ZeroChain({-1: 1}), 1)


def test_fill_refuses_a_propagation_below_1():
    w = integer_window(0, 5, 1)
    with pytest.raises(ValueError, match="propagation must be a positive integer"):
        min_norm_fill(w, ZeroChain({0: 1, 1: -1}), 0)


def test_fill_propagation_capped_by_halo_depth():
    w = integer_window(0, 5, 1)
    with pytest.raises(ValueError, match="halo depth"):
        min_norm_fill(w, ZeroChain({0: 1}), 2)


def test_fill_norm_monotone_in_P():
    w = integer_window(0, 15, 4)
    c = ZeroChain({i: 1 for i in range(0, 16)})
    norms = [min_norm_fill(w, c, P).norm for P in (1, 2, 3, 4)]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_fill_is_net_flow_canonical():
    w = integer_window(0, 10, 2)
    c = ZeroChain({i: 1 for i in range(0, 11)})
    res = min_norm_fill(w, c, 2)
    for (x, y) in res.chain.coeffs:
        assert (y, x) not in res.chain.coeffs
