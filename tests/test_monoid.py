import dataclasses
import random
import time
import tracemalloc
from itertools import product

import pytest

from coarse_lab import monoid
from coarse_lab.monoid import (
    AupCounterexample,
    AupResult,
    LatticeRefutation,
    Rewrite,
    _saturate,
    cancellative_equal,
    check_almost_unperforated,
    equal,
    leq,
    presentation,
    properly_infinite,
    refinement_instance,
    replay_path,
    vadd,
    vscale,
)

FREE1 = presentation(1)
FREE2 = presentation(2)
FREE3 = presentation(3)
NUM23 = presentation(2, [[(3, 0), (0, 2)]])  # 3a = 2b, isomorphic to <2,3> in N
IDEM = presentation(1, [[(2,), (1,)]])  # 2a = a
SHRINK = presentation(1, [[(3,), (2,)]])  # 3a = 2a
RANK3_A = presentation(3, [[(1, 1, 0), (0, 0, 1)]])  # c = a + b
RANK3_B = presentation(3, [[(2, 0, 0), (0, 1, 0)], [(0, 2, 0), (0, 0, 1)]])  # b = 2a, c = 2b
RANK3_C = presentation(3, [[(2, 0, 0), (0, 1, 1)], [(0, 3, 0), (1, 0, 1)]])  # 2a = b + c, 3b = a + c


def image23(v):
    # the isomorphism onto the numerical monoid <2,3>: a -> 2, b -> 3
    return 2 * v[0] + 3 * v[1]


def reference_saturate(p, start, depth, entry_cap, target=None, state_cap=monoid.DEFAULT_STATE_CAP):
    """Plain breadth-first closure of start, independent of _saturate.

    Each level rewrites every vector of the previous level by every relation,
    forward then backward, one coordinate at a time.  A new vector is kept
    unless it has an entry above entry_cap or state_cap vectors are already
    kept; either refusal, or a nonempty level left after depth levels, makes
    the closure incomplete.  Returns (parents, complete, found) with
    parents[v] = (predecessor, relation index, forward).
    """
    parents = {start: None}
    if target == start:
        return parents, True, True
    complete = True
    level = [start]
    for _ in range(depth):
        if not level:
            break
        new_level = []
        for w in level:
            for ri, (lhs, rhs) in enumerate(p.relations):
                for forward in (True, False):
                    take, give = (lhs, rhs) if forward else (rhs, lhs)
                    v = []
                    for i in range(p.rank):
                        if w[i] < take[i]:
                            break
                        v.append(w[i] - take[i] + give[i])
                    else:
                        v = tuple(v)
                        if v in parents:
                            continue
                        if max(v) > entry_cap or len(parents) >= state_cap:
                            complete = False
                            continue
                        parents[v] = (w, ri, forward)
                        if v == target:
                            return parents, complete, True
                        new_level.append(v)
        level = new_level
    if level:
        complete = False
    return parents, complete, target in parents


@pytest.mark.parametrize("state_cap", [None, 12])
def test_saturate_matches_reference_bfs(monkeypatch, state_cap):
    if state_cap is not None:
        monkeypatch.setattr(monoid, "DEFAULT_STATE_CAP", state_cap)
    cap = monoid.DEFAULT_STATE_CAP
    rng = random.Random(808)
    kinds = set()
    for _ in range(500):
        rank = rng.randint(1, 3)
        relations = [
            [tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(2)]
            for _ in range(rng.randint(0, 3))
        ]
        p = presentation(rank, relations)
        start = tuple(rng.randint(0, 5) for _ in range(rank))
        depth = rng.randint(0, 12)
        entry_cap = rng.randint(2, 15)
        target = tuple(rng.randint(0, 5) for _ in range(rank)) if rng.random() < 0.5 else None
        parents, complete, found = _saturate(p, start, depth, entry_cap, target)
        want, want_complete, want_found = reference_saturate(
            p, start, depth, entry_cap, target, cap
        )
        assert list(parents.items()) == list(want.items()), (relations, start, depth, entry_cap)
        assert (complete, found) == (want_complete, want_found)
        kinds.add((complete, found, len(parents) == cap))
    # complete and truncated closures, hit and missed targets, and in the
    # capped run closures stopped by the state cap all occurred
    assert {(True, False), (False, False), (True, True), (False, True)} <= {k[:2] for k in kinds}
    assert any(k[2] for k in kinds) == (state_cap is not None)


# -- equal --------------------------------------------------------------------


def test_equal_free_is_vector_equality():
    assert equal(FREE2, (1, 2), (1, 2)).yes
    got = equal(FREE2, (1, 2), (2, 1))
    assert got.no  # closure of a free element is itself, so this is exhaustive


def test_equal_defining_relation_one_step():
    got = equal(NUM23, (3, 0), (0, 2))
    assert got.yes
    assert len(got.certificate) == 1
    assert replay_path(NUM23, (3, 0), got.certificate) == (0, 2)


def test_replay_path_refuses_an_illegal_step():
    # 2b -> 3a needs two b's; (1, 1) has one
    with pytest.raises(ValueError, match="does not apply"):
        replay_path(NUM23, (1, 1), [(0, False)])
    assert replay_path(NUM23, (1, 2), [(0, False)]) == (4, 0)


def test_replay_path_names_the_failing_step_inside_a_run():
    # a -> 0 applies twice to 2a; the third step of the run finds nothing to take
    p = presentation(1, [[(1,), (0,)]])
    assert replay_path(p, (3,), [(0, True)] * 3) == (0,)
    with pytest.raises(ValueError) as e:
        replay_path(p, (2,), [(0, True)] * 3)
    assert str(e.value) == "step (0, True) does not apply to (0,)"


def test_replay_path_applies_a_long_run_at_once():
    # 10^5 steps of a -> 2a at rank 2 000: a step-by-step walk copies 2 * 10^8 entries
    p = presentation(2000, [[(1,) + (0,) * 1999, (2,) + (0,) * 1999]])
    start = time.perf_counter()
    got = cancellative_equal(p, (0,) * 2000, (100_000,) + (0,) * 1999)
    assert got.yes and len(got.certificate.path) == 100_000
    got.certificate.replay(p, (0,) * 2000, vadd((100_000,) + (0,) * 1999, got.certificate.z))
    assert time.perf_counter() - start < 1


def test_equal_generators_distinct():
    got = equal(NUM23, (1, 0), (0, 1))
    assert got.no
    assert "exhausted" in got.detail


def test_equal_certificates_replay():
    rng = random.Random(3)
    for _ in range(40):
        u = (rng.randint(0, 6), rng.randint(0, 4))
        v = (rng.randint(0, 6), rng.randint(0, 4))
        got = equal(NUM23, u, v)
        if got.yes:
            assert replay_path(NUM23, u, got.certificate) == v
            assert image23(u) == image23(v)
        elif got.no:
            assert image23(u) != image23(v)


def test_equal_rank_mismatch():
    with pytest.raises(ValueError):
        equal(FREE2, (1,), (1, 0))


@pytest.mark.parametrize(
    "build, err",
    [
        (lambda: presentation(0), "rank must be positive"),
        (lambda: presentation(2, [[(1,), (0, 1)]]), "relation vectors must have length equal to the rank"),
        (lambda: presentation(2, [[(1, -1), (0, 1)]]), "relation vectors must be nonnegative"),
        (lambda: equal(FREE2, (1, -1), (1, 0)), "elements are nonnegative integer vectors"),
    ],
    ids=["rank", "relation-length", "relation-sign", "element-sign"],
)
def test_malformed_presentation_or_element_is_refused(build, err):
    with pytest.raises(ValueError, match=err):
        build()


def test_equal_unknown_when_truncated():
    # the idempotent class of a is infinite upward; a tiny entry cap truncates it
    got = equal(IDEM, (1,), (19,), depth=30, entry_cap=3)
    assert got.kind == "unknown"


# -- leq ----------------------------------------------------------------------


def test_leq_zero_below_everything():
    got = leq(FREE3, (0, 0, 0), (2, 3, 4))
    assert got.yes
    assert got.certificate.z == (2, 3, 4)


def test_leq_equality_case():
    got = leq(NUM23, (3, 0), (0, 2))
    assert got.yes
    assert got.certificate.z == (0, 0)


def test_leq_generator_gap():
    got = leq(NUM23, (1, 0), (0, 1))
    assert got.no  # needs image 1, which <2,3> lacks


@pytest.mark.parametrize(
    "p, v, z",
    [
        # the class of (5,) in free rank 1 is {(5,)}
        (FREE1, (5,), (5,)),
        # under 3a = 2b the class of (3, 0) is {(3, 0), (0, 2)}
        (NUM23, (3, 0), (0, 2)),
        # under 2a = 3b the class of (2, 0) is {(2, 0), (0, 3)}
        (presentation(2, [[(2, 0), (0, 3)]]), (2, 0), (0, 3)),
    ],
    ids=["free", "num23", "2a-3b"],
)
def test_leq_takes_the_least_z_of_all(p, v, z):
    # every member of v's class dominates 0, so the least member is the least z
    u = (0,) * p.rank
    got = leq(p, u, v, depth=3, entry_cap=9)
    assert got.yes and got.certificate.z == z
    assert got.detail == f"z = {z}"
    got.certificate.replay(p, u, v)


def test_leq_is_unknown_only_without_a_witness():
    # the class of (1,) under 2a = a is every positive multiple, cut off at
    # entry cap 4; (1,) itself dominates (0,), so the truncation decides nothing
    got = leq(IDEM, (0,), (1,), entry_cap=4)
    assert got.yes and got.certificate == Rewrite((1,), ())
    got.certificate.replay(IDEM, (0,), (1,))
    # no member up to the cap dominates (5,)
    got = leq(IDEM, (5,), (1,), entry_cap=4)
    assert got.kind == "unknown"
    assert got.detail == "class of (1,) truncated within depth 12, entry cap 4"


def test_leq_certificates_replay():
    rng = random.Random(9)
    for _ in range(30):
        u = (rng.randint(0, 4), rng.randint(0, 3))
        v = (rng.randint(0, 4), rng.randint(0, 3))
        got = leq(NUM23, u, v)
        if got.yes:
            got.certificate.replay(NUM23, u, v)


def test_leq_monotone_in_bounds():
    pairs = [((a, b), (c, d)) for a, b, c, d in product(range(3), repeat=4)]
    for u, v in pairs:
        low = leq(NUM23, u, v, depth=2)
        high = leq(NUM23, u, v, depth=12)
        if low.yes:
            assert high.yes


# -- almost unperforation -----------------------------------------------------


def test_aup_free_has_no_counterexample():
    res = check_almost_unperforated(FREE3, x_cap=4, n_max=3)
    assert not res.found


def test_aup_numerical_monoid_counterexample():
    res = check_almost_unperforated(NUM23, x_cap=8, n_max=4)
    assert res.found
    ce = res.counterexample
    assert (ce.x, ce.y, ce.n) == ((1, 0), (0, 1), 2)
    assert ce.scaled_leq.yes
    ce.scaled_leq.certificate.replay(NUM23, vscale(3, ce.x), vscale(2, ce.y))
    assert ce.plain_leq.no


def test_aup_idempotent_none():
    res = check_almost_unperforated(IDEM, x_cap=4, n_max=3)
    assert not res.found


def test_aup_counterexample_found_at_small_bounds():
    for depth in (2, 5):
        res = check_almost_unperforated(NUM23, x_cap=8, n_max=4, depth=depth)
        assert res.found
        ce = res.counterexample
        assert (ce.x, ce.y, ce.n) == ((1, 0), (0, 1), 2)


def test_aup_free_and_trivially_related_agree():
    # a relation that rewrites a vector to itself leaves the monoid free
    free_like = presentation(2, [[(1, 1), (1, 1)]])
    free = check_almost_unperforated(FREE2, x_cap=3, n_max=2)
    related = check_almost_unperforated(free_like, x_cap=3, n_max=2)
    assert free.found == related.found == False  # noqa: E712


def _first_aup_triple(p, x_cap, n_max, depth, entry_cap):
    # every (n, x, y) in lexicographic order, each leq decided afresh
    vectors = list(product(range(x_cap + 1), repeat=p.rank))
    for n in range(1, n_max + 1):
        for x in vectors:
            for y in vectors:
                if not leq(p, vscale(n + 1, x), vscale(n, y), depth, entry_cap).yes:
                    continue
                parents, complete, _ = reference_saturate(p, y, depth, entry_cap)
                if complete and not any(all(a >= b for a, b in zip(w, x)) for w in parents):
                    return x, y, n
    return None


def test_aup_sweep_agrees_with_triple_loop():
    rng = random.Random(44)
    found = 0
    for _ in range(50):
        rank = rng.randint(1, 3)
        relations = [
            [tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(2)]
            for _ in range(rng.randint(0, 2))
        ]
        p = presentation(rank, relations)
        x_cap = rng.randint(1, {1: 4, 2: 3, 3: 2}[rank])
        n_max = rng.randint(1, 3)
        depth = rng.randint(1, 12)
        entry_cap = rng.randint(3, 12)
        res = check_almost_unperforated(p, x_cap, n_max, depth, entry_cap)
        expect = _first_aup_triple(p, x_cap, n_max, depth, entry_cap)
        if expect is None:
            assert not res.found, relations
            continue
        found += 1
        ce = res.counterexample
        assert (ce.x, ce.y, ce.n) == expect, relations
        assert ce.scaled_leq.kind == "yes" and ce.plain_leq.kind == "no"
        ce.scaled_leq.certificate.replay(p, vscale(ce.n + 1, ce.x), vscale(ce.n, ce.y))
    assert found >= 5


def _bad_xs(p, y, n, x_cap, depth, entry_cap):
    # the x that make (x, y, n) a counterexample, each leq decided afresh
    members, complete, _ = reference_saturate(p, y, depth, entry_cap)
    if not complete:
        return []
    return [
        x for x in product(range(x_cap + 1), repeat=p.rank)
        if leq(p, vscale(n + 1, x), vscale(n, y), depth, entry_cap).yes
        and not any(all(a >= b for a, b in zip(w, x)) for w in members)
    ]


# (rank, relations, (x_cap, n_max, depth, entry_cap), first triple)
AUP_PINNED = {
    # y = (1, 0) has the class {(1, 0), (0, 3)}; unclipped, its down-set has
    # 5 points, more than the box [0, 1]^2, yet it misses (1, 1)
    "clipped members": (2, [[(0, 3), (1, 0)], [(2, 2), (1, 3)]], (1, 2, 6, 6), ((1, 1), (1, 0), 2)),
    # every y >= 1 has a class cut off by the entry cap; (2, 1, 2) satisfies
    # the scaled leq, but an incomplete class refutes nothing
    "incomplete classes": (1, [[(0,), (9,)], [(2,), (4,)]], (3, 3, 5, 7), None),
    # y = (0, 2) is the first y with a bad x, (1, 0); y = (1, 0) has the
    # smaller bad x (0, 1)
    "later y wins": (2, [[(1, 2), (0, 3)], [(3, 3), (2, 0)]], (2, 3, 4, 7), ((0, 1), (1, 0), 2)),
    # y = (2, 1, 0) is alone in its class, so (0, 0, 1) is bad for it, though
    # the classes of earlier y's such as (0, 0, 1) dominate it
    "dominated sets per y": (3, [[(1, 1, 2), (3, 1, 0)]], (2, 3, 7, 8), ((0, 0, 1), (2, 1, 0), 3)),
}


@pytest.mark.parametrize("name", AUP_PINNED)
def test_aup_sweep_agrees_with_triple_loop_on_pinned_cases(name):
    rank, relations, bounds, expect = AUP_PINNED[name]
    p = presentation(rank, relations)
    assert _first_aup_triple(p, *bounds) == expect
    res = check_almost_unperforated(p, *bounds)
    assert (res.counterexample and (res.counterexample.x, res.counterexample.y, res.counterexample.n)) == expect
    x_cap, n_max, depth, entry_cap = bounds
    if name == "incomplete classes":
        assert not reference_saturate(p, (1,), depth, entry_cap)[1]
        assert leq(p, vscale(3, (2,)), vscale(2, (1,)), depth, entry_cap).yes
    if name == "later y wins":
        firsts = [
            (bad[0], y) for y in product(range(x_cap + 1), repeat=rank)
            if (bad := _bad_xs(p, y, 2, x_cap, depth, entry_cap))
        ]
        assert firsts[0] == ((1, 0), (0, 2)) and min(firsts) == ((0, 1), (1, 0))


def _table_aup(p, x_cap, n_max, depth, entry_cap):
    # the sweep with its earlier side table: one range per entry value
    # 0 ... max(entry_cap, n * x_cap), built before any class of ny is read
    region = f"x,y entries <= {x_cap}, 1 <= n <= {n_max}, depth {depth}, entry cap {entry_cap}"
    closure_cache = {}

    def closure(v):
        if v not in closure_cache:
            parents, complete, _ = _saturate(p, v, depth, entry_cap)
            closure_cache[v] = (tuple(parents), complete)
        return closure_cache[v]

    full = (x_cap + 1) ** p.rank
    open_ys = []
    for y in product(range(x_cap + 1), repeat=p.rank):
        members, complete = closure(y)
        if complete:
            dominated = set()
            for w in members:
                dominated.update(product(*(range(min(a, x_cap) + 1) for a in w)))
            if len(dominated) < full:
                open_ys.append((y, dominated))
    for n in range(1, n_max + 1):
        side = [
            range(min(x_cap, a // (n + 1)) + 1)
            for a in range(max(entry_cap, n * x_cap) + 1)
        ]
        firsts = []
        for y, dominated in open_ys:
            boxes = set()
            for w in closure(vscale(n, y))[0]:
                boxes.update(product(*map(side.__getitem__, w)))
            if bad := boxes - dominated:
                firsts.append((min(bad), y))
        if firsts:
            x, y = min(firsts)
            return AupResult(AupCounterexample(
                x, y, n,
                leq(p, vscale(n + 1, x), vscale(n, y), depth, entry_cap),
                leq(p, x, y, depth, entry_cap),
            ), region)
    return AupResult(None, region)


def test_aup_sides_built_on_first_read_agree_with_the_full_table():
    rng = random.Random(15)
    named = [FREE1, FREE2, NUM23, IDEM, SHRINK, RANK3_A, RANK3_B]
    found = 0
    for k in range(100):
        if k < len(named):
            p = named[k]
        else:
            rank = rng.randint(1, 3)
            p = presentation(rank, [
                [tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(2)]
                for _ in range(rng.randint(0, 2))
            ])
        bounds = (
            rng.randint(0, {1: 6, 2: 3, 3: 2}[p.rank]), rng.randint(1, 4),
            rng.randint(0, 12), rng.randint(0, 12),
        )
        expect = _table_aup(p, *bounds)
        assert check_almost_unperforated(p, *bounds) == expect, (p, bounds)
        found += expect.found
    assert found >= 5


def test_aup_builds_a_side_only_for_entry_values_read(monkeypatch):
    # the table had max(entry_cap, n * x_cap) + 1 ranges for each n, about
    # 10^6 here; free rank 1 with x_cap = 1 leaves only y = 0 open, whose
    # classes of ny read the entry value 0 alone
    built = []

    def counted(*args):
        built.append(args)
        return range(*args)

    monkeypatch.setattr(monoid, "range", counted, raising=False)
    res = check_almost_unperforated(FREE1, x_cap=1, n_max=1400)
    assert not res.found
    assert len(built) < 3 * 1400


def test_aup_holds_one_class_of_ny_at_a_time():
    # y = (1, 0) meets no relation, so its class is complete and open, while
    # each class of ny = (n, 0), 2 <= n <= 100, is a chain up to the entry
    # cap.  Kept for every n, these classes took about 0.8 MB here, and at
    # n_max = 10^5 with depth and entry cap 10^5 the sweep exited 3 with
    # MemoryError; held one at a time, the peak is about 0.15 MB
    grow = presentation(2, [[(2, 0), (3, 0)]])
    tracemalloc.start()
    try:
        res = check_almost_unperforated(grow, x_cap=1, n_max=100, depth=100, entry_cap=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.found
    assert peak < 400_000


# -- properly infinite --------------------------------------------------------


def test_pinf_idempotent_yes():
    res = properly_infinite(IDEM, (1,))
    assert res.verdict.yes
    assert res.least_multiple == 1


def test_pinf_free_no():
    res = properly_infinite(FREE1, (1,))
    assert res.verdict.no
    assert res.least_multiple is None


def test_pinf_shrink_multiple_two():
    res = properly_infinite(SHRINK, (1,))
    assert res.verdict.no  # 2a <= a fails
    assert res.least_multiple == 2  # 2(2a) = 4a = 3a = 2a
    assert res.multiple_verdict.yes


@pytest.mark.parametrize("p, x", [(IDEM, (1,)), (FREE1, (1,)), (SHRINK, (1,)), (NUM23, (1, 1))])
def test_pinf_decides_2x_le_x_once(monkeypatch, p, x):
    # m = 1 of the multiple search asks the verdict's question again
    expected = leq(p, vscale(2, x), x)
    calls = []

    def counted(*args):
        calls.append(args)
        return leq(*args)

    monkeypatch.setattr(monoid, "leq", counted)
    res = properly_infinite(p, x, m_cap=1)
    assert len(calls) == 1
    assert res.verdict == expected
    assert (res.least_multiple, res.multiple_verdict) == ((1, expected) if expected.yes else (None, None))


# -- refinement ---------------------------------------------------------------


def test_refinement_free_rank2():
    res = refinement_instance(FREE2, (1, 0), (0, 1), (1, 0), (0, 1))
    assert res.found
    assert res.quadruple == ((1, 0), (0, 0), (0, 0), (0, 1))
    res.replay(FREE2, (1, 0), (0, 1), (1, 0), (0, 1))


def test_refinement_free_rank1():
    res = refinement_instance(FREE1, (2,), (3,), (4,), (1,))
    assert res.found
    assert res.quadruple == ((2,), (0,), (2,), (1,))
    res.replay(FREE1, (2,), (3,), (4,), (1,))


def test_refinement_precondition_violation():
    with pytest.raises(ValueError, match="precondition"):
        refinement_instance(FREE1, (1,), (1,), (3,), (3,))


def test_refinement_with_relations():
    res = refinement_instance(NUM23, (3, 0), (0, 1), (0, 2), (0, 1))
    assert res.found
    res.replay(NUM23, (3, 0), (0, 1), (0, 2), (0, 1))


def test_refinement_found_at_a_large_entry_cap_replays():
    # w + x = (24, 0) lies above the default entry cap of 20, so the result
    # must replay its own rewrites, not search again at the default bounds
    args = (18, 4), (0, 1), (15, 6), (0, 1)
    res = refinement_instance(NUM23, *args, 12, 50)
    assert res.quadruple == ((24, 0), (0, 0), (0, 0), (0, 1))
    res.replay(NUM23, *args)
    # a result without its four rewrites cannot replay vacuously
    with pytest.raises(ValueError):
        dataclasses.replace(res, paths=()).replay(NUM23, *args)


def _sorted_refinement(p, a, b, c, d, depth=monoid.DEFAULT_DEPTH, entry_cap=monoid.DEFAULT_ENTRY_CAP):
    # the search with its earlier walk: every w of the box drawn and sorted
    # before the first is tried, and each (x, y) building both z sets
    pre = equal(p, vadd(a, b), vadd(c, d), depth, entry_cap)
    if not pre.yes:
        raise ValueError("precondition")

    def members(v):
        return sorted(_saturate(p, v, depth, entry_cap)[0])

    CA, CB, CC, CD = members(a), members(b), members(c), members(d)
    ub = tuple(min(max(m[i] for m in CA), max(m[i] for m in CC), entry_cap) for i in range(p.rank))

    def minus(ms, v):
        return sorted(tuple(s - t for s, t in zip(m, v)) for m in ms if all(s >= t for s, t in zip(m, v)))

    for w in sorted(monoid.product(*(range(u + 1) for u in ub)), reverse=True):
        xs = minus(CA, w)
        if not xs:
            continue
        for x in xs:
            for y in minus(CC, w):
                common = sorted(set(minus(CB, y)) & set(minus(CD, x)))
                if common:
                    return (w, x, y, common[0])
    return f"no quadruple within entry bound {entry_cap}, depth {depth}"


def test_refinement_agrees_with_the_sorted_walk():
    rng = random.Random(16)
    named = [FREE2, FREE3, NUM23, RANK3_A, RANK3_B]
    outcomes = set()
    for k in range(200):
        p = named[k % len(named)]
        if k % 2:  # a refinable grid
            w, x, y, z = (tuple(rng.randint(0, 3) for _ in range(p.rank)) for _ in range(4))
            a, b, c, d = vadd(w, x), vadd(y, z), vadd(w, y), vadd(x, z)
        else:
            a, b, c, d = (tuple(rng.randint(0, 3) for _ in range(p.rank)) for _ in range(4))
        bounds = (rng.randint(1, 12), rng.randint(2, 8))
        try:
            expect = _sorted_refinement(p, a, b, c, d, *bounds)
        except ValueError:
            with pytest.raises(ValueError, match="precondition"):
                refinement_instance(p, a, b, c, d, *bounds)
            outcomes.add("precondition")
            continue
        res = refinement_instance(p, a, b, c, d, *bounds)
        assert (res.quadruple if res.found else res.detail) == expect, (p, a, b, c, d, bounds)
        outcomes.add(res.found)
    # <2,3> has no refinement of 3 + 3 = 2 + 4
    assert not refinement_instance(NUM23, (0, 1), (0, 1), (1, 0), (2, 0)).found
    assert outcomes == {True, False, "precondition"}


def test_refinement_draws_few_w_from_its_box(monkeypatch):
    # the box has 301^2 points; its first w, min(a, c), refines the free monoid
    drawn = 0
    real = monoid.product

    def counted(*args, **kwargs):
        nonlocal drawn
        for t in real(*args, **kwargs):
            drawn += 1
            yield t

    monkeypatch.setattr(monoid, "product", counted)
    a = (300, 300)
    res = refinement_instance(FREE2, a, (0, 0), a, (0, 0), entry_cap=300)
    assert res.found and res.quadruple == (a, (0, 0), (0, 0), (0, 0))
    assert drawn == 1
    assert _sorted_refinement(FREE2, a, (0, 0), a, (0, 0), entry_cap=300) == res.quadruple
    assert drawn == 1 + 301 ** 2


# -- cancellative hull --------------------------------------------------------


def test_cancellative_equal_trivially():
    got = cancellative_equal(FREE2, (1, 1), (1, 1))
    assert got.yes
    assert got.certificate[0] == (0, 0)


def test_cancellative_collapses_idempotent():
    got = cancellative_equal(IDEM, (1,), (0,))
    assert got.yes
    z, path = got.certificate
    assert z == (1,)
    assert replay_path(IDEM, vadd((1,), z), path) == vadd((0,), z)


def test_cancellative_free_distinct():
    got = cancellative_equal(FREE2, (1, 0), (0, 1))
    assert got.no


def test_cancellative_shrink_identifies_multiples():
    # in the hull of 3a=2a, 3a and 2a are equal with z = 0; a and 2a need z
    assert cancellative_equal(SHRINK, (3,), (2,)).yes
    got = cancellative_equal(SHRINK, (1,), (2,))
    assert got.yes


def test_cancellative_rank3_example_is_an_exact_no_over_z():
    # u - v = (1, 0, -1) is off the plane of (2, -1, -1) and (-1, 3, -1), whose
    # normal is (4, 3, 5); the bounded z searches alone answered Unknown here
    u, v = (1, 0, 0), (0, 0, 1)
    got = cancellative_equal(RANK3_C, u, v)
    assert got.no
    assert got.certificate == LatticeRefutation((4, 3, 5), 0)
    assert got.detail == (
        "u - v = (1, 0, -1) is outside the lattice of relation differences: "
        "y = (4, 3, 5) is orthogonal to every difference but not to u - v"
    )
    got.certificate.replay(RANK3_C, u, v)


def test_cancellative_torsion_needs_a_modulus():
    # 2a = 0 makes a an element of order 2 in the hull: no y works over Z
    p = presentation(1, [[(2,), (0,)]])
    got = cancellative_equal(p, (1,), (0,))
    assert got.no
    assert got.certificate == LatticeRefutation((1,), 2)
    assert "modulo 2" in got.detail
    got.certificate.replay(p, (1,), (0,))
    with pytest.raises(AssertionError):
        LatticeRefutation((1,), 0).replay(p, (1,), (0,))
    assert cancellative_equal(p, (2,), (0,)).yes


def test_lattice_refutation_replay_checks_each_part():
    LatticeRefutation((2, 3), 0).replay(NUM23, (1, 0), (0, 1))
    for cert, u, v in [
        (LatticeRefutation((1, 0), 0), (1, 0), (0, 1)),  # 3 != 0 on 3a - 2b
        (LatticeRefutation((2, 3), 0), (3, 0), (0, 2)),  # 0 on u - v
        (LatticeRefutation((1, 1), 5), (1, 0), (0, 0)),  # 1 on 3a - 2b, modulo 5
        (LatticeRefutation((2, 3), 2), (1, 0), (0, 0)),  # 2 = 0 on u - v, modulo 2
        (LatticeRefutation((2,), 0), (1, 0), (0, 1)),  # too short for rank 2
    ]:
        with pytest.raises(AssertionError):
            cert.replay(NUM23, u, v)


@pytest.mark.parametrize("relation, steps", [(((1,), (2,)), ((0, True),) * 5), (((2,), (1,)), ((0, False),) * 5)])
def test_cancellative_lattice_yes_the_small_z_search_misses(relation, steps):
    # a = 2a, written either way round: a bounded search from z = 0 at depth 1
    # finds nothing; the lattice coefficient (5 or -5) gives five steps, and
    # the least z that lets them run from u + z is a
    p = presentation(1, [relation])
    got = cancellative_equal(p, (0,), (5,))
    assert got.yes
    assert got.certificate == Rewrite((1,), steps)
    got.certificate.replay(p, (0,), (6,))


def test_cancellative_constructive_z_mixes_signs():
    # u - v = (1, -1) = 1 * (a - c) - 1 * (b - c): backward from a + c to a + b
    # needs c, then forward to b + c
    p = presentation(3, [[(1, 0, 0), (0, 0, 1)], [(0, 1, 0), (0, 0, 1)]])
    got = cancellative_equal(p, (1, 0, 0), (0, 1, 0))
    assert got.yes
    assert got.certificate == Rewrite((0, 0, 1), ((1, False), (0, True)))
    got.certificate.replay(p, (1, 0, 0), (0, 1, 1))


def test_cancellative_no_saturates_nothing(monkeypatch):
    # the lattice decides Yes and No alike; there is no bounded search
    def unbuilt(*args, **kwargs):
        raise AssertionError("_saturate called")

    monkeypatch.setattr(monoid, "_saturate", unbuilt)
    for p, u, v, kind in [
        (RANK3_C, (1, 0, 0), (0, 0, 1), "no"),
        (RANK3_C, (3, 1, 0), (1, 2, 1), "yes"),  # u - v = (2, -1, -1), the first difference
        (IDEM, (1,), (0,), "yes"),
        (NUM23, (3, 0), (0, 2), "yes"),
    ]:
        got = cancellative_equal(p, u, v)
        assert got.kind == kind
        got.certificate.replay(p, u, vadd(v, got.certificate.z) if got.yes else v)


@pytest.mark.parametrize("relations", [0, 1])
def test_cancellative_no_certificate_is_linear_in_rank(relations):
    # u - v is nonzero on the last of 20000 columns alone, with no relation or
    # with 2a = 0 (stopping at row 0): the certificate's column is read off the
    # reduced rest, not found by one back-substitution per free column, which
    # took rank^2 steps, about a minute here
    n = 20_000
    p = presentation(n, [((2,) + (0,) * (n - 1), (0,) * n)] * relations)
    u = (relations,) + (0,) * (n - 2) + (1,)
    start = time.perf_counter()
    got = cancellative_equal(p, u, (0,) * n)
    assert time.perf_counter() - start < 1.0
    assert got.certificate == LatticeRefutation((0,) * (n - 1) + (1,), 0)


def test_cancellative_elimination_above_the_limit_is_refused(monkeypatch):
    # 100 relations at rank 101: 100 * 101 * 100 elimination steps
    def unbuilt(*args, **kwargs):
        raise AssertionError("elimination or search called")

    monkeypatch.setattr(monoid, "_echelon", unbuilt)
    monkeypatch.setattr(monoid, "_saturate", unbuilt)
    e = tuple(int(c == 0) for c in range(101))
    p = presentation(101, [(e, e)] * 100)
    with pytest.raises(ValueError) as info:
        cancellative_equal(p, e, e)
    assert str(info.value) == "1010000 elimination steps or more, above the limit of 1000000"
    monkeypatch.undo()
    assert cancellative_equal(presentation(101, [(e, e)] * 99), e, e).kind == "yes"


def test_cancellative_constructive_path_above_the_limit_is_refused():
    # u - v = -(10^6 + 1) * (a - 2a): a rewrite of 10^6 + 1 steps
    p = presentation(1, [[(1,), (2,)]])
    n = monoid.MAX_SEARCH + 1
    with pytest.raises(ValueError) as info:
        cancellative_equal(p, (0,), (n,))
    assert str(info.value) == "1000001 rewrite steps or more, above the limit of 1000000"
    got = cancellative_equal(p, (0,), (n - 1,))
    assert got.yes and len(got.certificate.path) == monoid.MAX_SEARCH


def test_cancellative_reduction_above_the_limit_is_refused():
    # 1001 copies of a = 2a: the unit coefficient rows alone are 1001^2 entries,
    # refused before they are built; 1000 copies pass that charge and are
    # refused at the first move, when u != v
    for m, steps in ((1001, 1001 ** 2), (1000, 1000 ** 2 + 1000)):
        p = presentation(1, [[(1,), (2,)]] * m)
        with pytest.raises(ValueError) as info:
            cancellative_equal(p, (0,), (1,))
        assert str(info.value) == f"{steps} reduction steps or more, above the limit of 1000000"
        assert cancellative_equal(p, (1,), (1,)).certificate == Rewrite((0,), ())


def _random_presentation(rng):
    rank = rng.randint(1, 3)
    vec = lambda: tuple(rng.randint(0, 3) for _ in range(rank))
    return presentation(rank, [(vec(), vec()) for _ in range(rng.randint(0, 3))]), vec


def _assert_least_z(p, u, v, cert):
    # the certificate replays, and with any positive entry of z lowered by 1 its path does not run
    cert.replay(p, u, vadd(v, cert.z))
    for i, zi in enumerate(cert.z):
        if zi:
            with pytest.raises(ValueError):
                replay_path(p, vadd(u, cert.z[:i] + (zi - 1,) + cert.z[i + 1 :]), cert.path)


def test_cancellative_lattice_agrees_with_the_bounded_search():
    # the bounded search is ``equal`` on u + z and v + z for each z with entries
    # at most z_cap: a Yes of it must be a Yes of the lattice, every Yes must
    # replay with the least z for its path, and every No must replay
    rng = random.Random(31)
    kinds = {"bounded yes": 0, "lattice yes": 0, "no over Z": 0, "no modulo m": 0}
    for _ in range(600):
        p, vec = _random_presentation(rng)
        u, v = vec(), vec()
        depth, z_cap = rng.randint(0, 4), rng.randint(0, 2)
        got = cancellative_equal(p, u, v)
        bounded = any(equal(p, vadd(u, z), vadd(v, z), depth, 8).yes for z in product(range(z_cap + 1), repeat=p.rank))
        assert got.yes or not bounded
        if got.yes:
            _assert_least_z(p, u, v, got.certificate)
            kinds["bounded yes" if bounded else "lattice yes"] += 1
        else:
            assert got.no
            got.certificate.replay(p, u, v)
            kinds["no modulo m" if got.certificate.modulus else "no over Z"] += 1
    assert min(kinds.values()) >= 30, kinds


def _planted_rank5(rng):
    # 3 to 8 relations with entries at most 20, and u - v = sum of lambda_i
    # (lhs_i - rhs_i) for a planted lambda with entries in -2..2
    vec = lambda: tuple(rng.randint(0, 20) for _ in range(5))
    relations = [(vec(), vec()) for _ in range(rng.randint(3, 8))]
    lam = [rng.randint(-2, 2) for _ in relations]
    diff = [sum(n * (l[c] - r[c]) for n, (l, r) in zip(lam, relations)) for c in range(5)]
    u = tuple(max(d, 0) + rng.randint(0, 3) for d in diff)
    return presentation(5, relations), u, tuple(a - d for a, d in zip(u, diff)), sum(map(abs, lam))


def test_cancellative_rewrite_is_no_longer_than_a_planted_one():
    # unreduced, the lattice coefficients of these take a median of about
    # 2 * 10^10 steps, and 151 of the 300 are above the limit of 10^6
    rng = random.Random(5)
    for _ in range(300):
        p, u, v, planted = _planted_rank5(rng)
        got = cancellative_equal(p, u, v)
        assert got.yes and len(got.certificate.path) <= planted
        _assert_least_z(p, u, v, got.certificate)


@pytest.mark.parametrize(
    "p, u, v, steps",
    [
        # the unreduced coefficients here take 1460035261803939141800 steps
        (
            presentation(5, [
                [(18, 9, 16, 14, 6), (9, 2, 6, 7, 3)],
                [(5, 8, 17, 4, 11), (0, 10, 1, 8, 2)],
                [(4, 1, 11, 0, 8), (5, 13, 19, 18, 19)],
                [(2, 6, 7, 11, 17), (18, 13, 13, 9, 18)],
                [(12, 6, 7, 0, 11), (1, 11, 18, 17, 18)],
                [(16, 15, 13, 3, 19), (2, 8, 2, 14, 18)],
            ]),
            (3, 21, 22, 84, 36),
            (53, 1, 1, 1, 2),
            6,
        ),
        # a = 30a: one step from u + a, where a small-z search needed z = 30a
        (presentation(3, [[(1, 0, 0), (30, 0, 0)]]), (0, 0, 0), (29, 0, 0), 1),
    ],
)
def test_cancellative_short_rewrite_is_found(p, u, v, steps):
    start = time.perf_counter()
    got = cancellative_equal(p, u, v)
    assert time.perf_counter() - start < 0.1
    assert got.yes and len(got.certificate.path) == steps
    _assert_least_z(p, u, v, got.certificate)
    if p.rank == 3:
        assert got.certificate == Rewrite((1, 0, 0), ((0, True),))


# -- verdicts are honest ------------------------------------------------------


def test_no_verdicts_state_region():
    got = leq(NUM23, (1, 0), (0, 1))
    assert got.detail == (
        "class of (0, 1) complete (1 elements); no member dominates (1, 0) "
        "within depth 12, entry cap 20"
    )


def test_free_agrees_with_coordinatewise_arithmetic():
    rng = random.Random(21)
    for _ in range(50):
        u = tuple(rng.randint(0, 5) for _ in range(3))
        v = tuple(rng.randint(0, 5) for _ in range(3))
        assert equal(FREE3, u, v).yes == (u == v)
        expect = all(a <= b for a, b in zip(u, v))
        assert leq(FREE3, u, v).yes == expect
