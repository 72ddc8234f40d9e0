import random
from collections import Counter
from fractions import Fraction

import pytest

from coarse_lab.amenability import (
    HallViolator,
    ParadoxWitness,
    doubling_check,
    folner_search,
)
from coarse_lab.oracles import (
    doubling_possible_by_matching,
    hall_violators_by_enumeration,
)
from coarse_lab import amenability, space
from coarse_lab.space import ball, integer_window, outer_boundary, regular_tree_window


# -- folner_search -----------------------------------------------------------


def test_interval_search_on_z_window():
    w = integer_window(-200, 200, 2)
    res = folner_search(w, 1, Fraction(1, 10), strategy="intervals", budget=30)
    assert res.success
    assert len(res.points) >= 21
    assert res.ratio <= Fraction(2, 21)


def test_ball_search_on_tree_fails():
    w = regular_tree_window(3, 8, 1)
    res = folner_search(w, 1, Fraction(1, 2), strategy="balls", budget=40)
    assert not res.success
    assert res.ratio > Fraction(1, 2)


def test_search_R_zero_trivial():
    w = integer_window(0, 20, 1)
    res = folner_search(w, 0, Fraction(1, 10), strategy="balls", budget=5)
    assert res.success
    assert res.ratio == 0


@pytest.mark.parametrize(
    "window, strategy, err",
    [
        (integer_window(0, 20, 1), "spiral", "unknown strategy: 'spiral'"),
        (regular_tree_window(3, 2, 1), "intervals", "interval strategy needs an integer-line window"),
    ],
)
def test_search_refuses_a_strategy_it_cannot_run(window, strategy, err):
    with pytest.raises(ValueError, match=err):
        folner_search(window, 1, Fraction(1, 2), strategy=strategy, budget=5)


def test_search_empty_candidate_set():
    # a window whose entire core is halo-contaminated at this radius
    w = integer_window(0, 2, 1)
    with pytest.raises(ValueError, match="admissible"):
        folner_search(w, 5, Fraction(1, 2), strategy="balls", budget=10)


def test_greedy_search_improves():
    w = integer_window(-50, 50, 3)
    res = folner_search(w, 1, Fraction(1, 4), strategy="greedy", budget=20)
    assert res.success
    assert res.ratio < Fraction(1, 4)


def test_search_deterministic():
    w = integer_window(-60, 60, 2)
    a = folner_search(w, 2, Fraction(1, 3), strategy="intervals", budget=25)
    b = folner_search(w, 2, Fraction(1, 3), strategy="intervals", budget=25)
    assert a == b


@pytest.mark.parametrize(
    "window, strategy",
    [
        (integer_window(-40, 40, 0), "intervals"),
        (integer_window(-40, 40, 0), "balls"),
        (regular_tree_window(3, 4, 0), "balls"),
    ],
)
def test_search_scores_each_candidate_with_one_boundary(monkeypatch, window, strategy):
    # with no halo every candidate is admissible, so each one examined
    # should cost exactly one boundary computation; intervals are counted
    # in batches, so each reaches boundary_counts once and no set is built
    calls = {"outer_boundary": 0, "boundary_of": 0}
    counted_sets = []
    outer, boundary_of = space.outer_boundary, type(window.space).boundary_of
    boundary_counts = type(window.space).boundary_counts

    def counted_outer(*args):
        calls["outer_boundary"] += 1
        return outer(*args)

    def counted_boundary_of(*args):
        calls["boundary_of"] += 1
        return boundary_of(*args)

    def counted_boundary_counts(sp, sets, R):
        counted_sets.extend(sets)
        return boundary_counts(sp, sets, R)

    monkeypatch.setattr(space, "outer_boundary", counted_outer)
    monkeypatch.setattr(type(window.space), "boundary_of", counted_boundary_of)
    monkeypatch.setattr(type(window.space), "boundary_counts", counted_boundary_counts)
    res = folner_search(window, 2, Fraction(1, 3), strategy=strategy, budget=30)
    assert res.examined > 1
    if strategy == "intervals":
        assert calls == {"outer_boundary": 0, "boundary_of": 0}
        assert len(counted_sets) == len(set(counted_sets)) == res.examined
    else:
        assert calls == {"outer_boundary": res.examined, "boundary_of": res.examined}
        assert counted_sets == []


def reference_intervals(window, R, epsilon, budget):
    """The interval search with every candidate checked and bounded alone.

    Returns (points, ratio, success, examined) as ``folner_search`` reports
    them, or None where it finds no admissible candidate.
    """
    lo, hi = min(window.core), max(window.core)
    mid = (lo + hi) // 2
    best = None
    examined = 0
    for length in range(1, budget + 1):
        a = mid - length // 2
        b = a + length - 1
        if a < lo or b > hi:
            break
        F = set(range(a, b + 1))
        bd, contaminated = window.boundary(F, R)
        if contaminated:
            continue
        examined += 1
        ratio = Fraction(len(bd), len(F))
        if best is None or ratio < best[1]:
            best = (frozenset(F), ratio)
    if best is None:
        return None
    return best[0], best[1], best[1] < Fraction(epsilon), examined


@pytest.mark.parametrize(
    "window",
    [
        integer_window(-60, 60, 0),
        integer_window(-60, 61, 2),
        integer_window(7, 9, 4),  # nothing is admissible from R = 2 on
        space.WindowedSpace(  # a core that is not one run: some candidates meet the halo
            space.IntegerLineSpace(0, 40),
            frozenset(range(0, 41)) - {5, 30},
            frozenset({5, 30}),
            1,
        ),
    ],
    ids=["no-halo", "halo", "narrow-halo", "gapped-core"],
)
def test_interval_search_matches_the_one_at_a_time_reference(window):
    eps = Fraction(1, 10)
    for R in range(5):
        for budget in (1, 2, 3, 10, 57, 120, 400):
            expect = reference_intervals(window, R, eps, budget)
            if expect is None:
                with pytest.raises(ValueError, match="admissible"):
                    folner_search(window, R, eps, "intervals", budget)
                continue
            res = folner_search(window, R, eps, "intervals", budget)
            assert (res.points, res.ratio, res.success, res.examined) == expect, (R, budget)


def test_a_long_interval_search_splits_into_capped_batches(monkeypatch):
    # 1 005 points, so a batch holds at most 2^16 of them; the 1 000
    # candidates hold about 500 000, so they are counted in several batches
    window = integer_window(0, 1000, 2)
    cap = 2 ** 16
    batches = []
    boundary_counts = space.WindowedSpace.boundary_counts

    def counted(w, sets, R):
        batches.append([len(F) for F in sets])
        return boundary_counts(w, sets, R)

    monkeypatch.setattr(space.WindowedSpace, "boundary_counts", counted)
    res = folner_search(window, 2, Fraction(1, 100), "intervals", 1000)
    monkeypatch.undo()
    assert len(batches) > 5
    assert all(0 < sum(b) <= cap for b in batches)
    # each batch is full: the next candidate would not have fit
    assert all(sum(b) + n[0] > cap for b, n in zip(batches, batches[1:]))
    assert [n for b in batches for n in b] == list(range(1, 1001))
    expect = reference_intervals(window, 2, Fraction(1, 100), 1000)
    assert (res.points, res.ratio, res.success, res.examined) == expect


def reference_greedy(window, R, epsilon, budget):
    """The greedy search with every candidate's boundary built from scratch.

    Returns (points, ratio, success, examined) as ``folner_search`` reports
    them, or None where it finds no admissible candidate.
    """
    F: set = set()
    best = None
    examined = 0
    candidates = sorted(window.core, key=repr)
    while True:
        chosen = None
        for p in candidates:
            bd = outer_boundary(window.space, F | {p}, R)
            if not bd & window.halo and (chosen is None or len(bd) < len(chosen[1])):
                chosen = (p, bd)
        if chosen is None:
            break
        F.add(chosen[0])
        examined += 1
        ratio = Fraction(len(chosen[1]), len(F))
        if best is None or ratio < best[1]:
            best = (frozenset(F), ratio)
        if len(F) >= budget:
            break
        candidates = sorted((q for q in chosen[1] if q in window.core), key=repr)
    if best is None:
        return None
    return best[0], best[1], best[1] < Fraction(epsilon), examined


def graph_window(n, extra, seed, core_size):
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    sp = space.GraphSpace(range(n), edges)
    core = frozenset(rng.sample(range(n), core_size))
    return space.WindowedSpace(sp, core, frozenset(sp.points) - core, 1)


def stacked_window(K, halo_depth):
    return space.stacked_product_window(space.IntegerLineSpace(0, 2), K, halo_depth)


GREEDY_WINDOWS = {
    "line": integer_window(-12, 12, 0),
    "line-halo": integer_window(-12, 12, 3),
    "line-narrow-halo": integer_window(0, 3, 2),  # nothing is admissible at R = 3
    "subset": space.subset_window([0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 16, 17, 18, 20, 21, 22, 23]),
    "tree": regular_tree_window(3, 3, 0),
    "tree-halo": regular_tree_window(3, 3, 2),
    "stacked": stacked_window(10, 0),
    "stacked-halo": stacked_window(10, 3),
    "box": space.box_window([3, 5, 8, 13]),
    "graph": space.WindowedSpace(
        space.GraphSpace(range(16), [(i, (i + 1) % 16) for i in range(16)] + [(0, 8), (3, 11)]),
        frozenset(range(16)),
        frozenset(),
        0,
    ),
    "graph-halo": graph_window(24, 6, 5, 16),
}


@pytest.mark.parametrize("name", GREEDY_WINDOWS)
def test_greedy_matches_full_boundary_reference(name):
    window = GREEDY_WINDOWS[name]
    eps = Fraction(1, 3)
    for R in range(4):
        for budget in (1, 2, 5, 12, 40):
            expect = reference_greedy(window, R, eps, budget)
            if expect is None:
                with pytest.raises(ValueError, match="admissible"):
                    folner_search(window, R, eps, "greedy", budget)
                continue
            res = folner_search(window, R, eps, "greedy", budget)
            assert (res.points, res.ratio, res.success, res.examined) == expect, (R, budget)


@pytest.mark.parametrize(
    "window",
    [
        integer_window(-50, 50, 3),
        regular_tree_window(3, 4, 2),
        stacked_window(16, 4),
        space.box_window([2, 4, 8, 16]),
    ],
)
def test_greedy_scores_no_set_twice(monkeypatch, window):
    # each candidate is scored from its ball: greedy builds no boundary of a
    # set of two or more points, and computes each point's ball at most once
    cls = type(window.space)
    ball_of, boundary_of, outer = cls.ball_of, cls.boundary_of, space.outer_boundary
    balls = Counter()
    sets = []

    def counted_ball_of(sp, center, R):
        balls[center] += 1
        return ball_of(sp, center, R)

    def counted_boundary_of(sp, F, R):
        # a box ball is the boundary of its center, plus it; the other
        # spaces build their balls directly
        sets.append(len(F))
        return boundary_of(sp, F, R)

    def counted_outer(*args):
        sets.append("outer_boundary")
        return outer(*args)

    monkeypatch.setattr(cls, "ball_of", counted_ball_of)
    monkeypatch.setattr(cls, "boundary_of", counted_boundary_of)
    monkeypatch.setattr(space, "outer_boundary", counted_outer)
    monkeypatch.setattr(amenability, "outer_boundary", counted_outer)
    res = folner_search(window, 1, Fraction(1, 4), strategy="greedy", budget=20)
    assert res.examined > 1
    assert set(sets) <= {1}
    # the first step scores every core point; later steps reuse those balls
    assert set(balls) == set(window.core)
    assert max(balls.values()) == 1


# -- doubling_check ----------------------------------------------------------


def test_doubling_empty_set():
    w = integer_window(0, 10, 2)
    res = doubling_check(w, set(), 2)
    assert isinstance(res, ParadoxWitness)
    assert res.phi1 == {} and res.phi2 == {}


def test_doubling_interval_violates():
    w = integer_window(-20, 20, 2)
    F = set(range(0, 10))
    res = doubling_check(w, F, 1)
    assert isinstance(res, HallViolator)
    res.replay(w)
    # the whole interval is itself a violator: |B_1(F)| = 12 < 20
    assert len(F | outer_boundary(w.space, F, 1)) == 12


def test_doubling_tree_ball_witness():
    w = regular_tree_window(3, 8, 2)
    F = ball(w.space, "v", 3)
    res = doubling_check(w, F, 2)
    assert isinstance(res, ParadoxWitness)
    res.replay(w)
    assert set(res.phi1) == F


def test_doubling_requires_core_domain():
    w = integer_window(0, 5, 2)
    with pytest.raises(ValueError):
        doubling_check(w, {-1, 0}, 1)


def test_doubling_refuses_a_negative_radius():
    with pytest.raises(ValueError, match="R must be nonnegative"):
        doubling_check(integer_window(0, 5, 2), {0, 1}, -1)


def test_doubling_interval_sweep_fails_below_half():
    # every interval F with R < |F|/2 must produce a violator
    w = integer_window(-80, 80, 6)
    for length in (10, 17, 30):
        F = set(range(0, length))
        for R in range(1, 6):
            res = doubling_check(w, F, R)
            if 2 * R < length:
                assert isinstance(res, HallViolator)
                res.replay(w)
            else:
                assert isinstance(res, ParadoxWitness)
                res.replay(w)


def test_doubling_agrees_with_matching_oracle():
    rng = random.Random(97)
    w = integer_window(-40, 40, 6)
    tree = regular_tree_window(3, 4, 3)
    for _ in range(25):
        if rng.random() < 0.5:
            win = w
            F = set(rng.sample(sorted(win.core), rng.randint(1, 12)))
        else:
            win = tree
            F = set(rng.sample(sorted(win.core), rng.randint(1, 12)))
        R = rng.randint(1, 3)
        res = doubling_check(win, F, R)
        expect = doubling_possible_by_matching(win, F, R)
        assert isinstance(res, ParadoxWitness) == expect
        res.replay(win)


def test_violator_agrees_with_enumeration_oracle():
    w = integer_window(-30, 30, 4)
    F = set(range(0, 9))
    res = doubling_check(w, F, 2)
    assert isinstance(res, HallViolator)
    violators = hall_violators_by_enumeration(w, F, 2)
    assert res.points in violators


def test_enumeration_oracle_refuses_a_large_set():
    w = integer_window(0, 30, 2)
    with pytest.raises(ValueError, match="enumeration oracle limited to small sets"):
        hall_violators_by_enumeration(w, set(range(17)), 1)
