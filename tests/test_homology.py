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
from coarse_lab.space import integer_window, regular_tree_window


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
    assert apply_boundary(OneChain(coeffs, 25)).total() == 0


def test_one_chain_validation():
    w = integer_window(0, 10, 2)
    OneChain({(0, 1): 2}, 1).validate(w)
    with pytest.raises(ValueError, match="propagation"):
        OneChain({(0, 5): 1}, 1).validate(w)
    with pytest.raises(ValueError, match="window"):
        OneChain({(0, 99): 1}, 200).validate(w)


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


def test_fill_infeasible_component():
    # two components: core points {0..4} have no halo contact in a window
    # whose halo sits across a gap wider than P
    from coarse_lab.space import GraphSpace, WindowedSpace

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
