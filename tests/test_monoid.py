import dataclasses
import random
import tracemalloc
from itertools import product

import pytest

from coarse_lab import monoid
from coarse_lab.monoid import (
    AupCounterexample,
    AupResult,
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
        low = leq(NUM23, u, v, depth=2, z_cap=2)
        high = leq(NUM23, u, v, depth=12, z_cap=10)
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
    for depth, zcap in ((2, 3), (5, 6)):
        res = check_almost_unperforated(NUM23, x_cap=8, n_max=4, depth=depth, z_cap=zcap)
        assert res.found
        ce = res.counterexample
        assert (ce.x, ce.y, ce.n) == ((1, 0), (0, 1), 2)


def test_aup_free_and_trivially_related_agree():
    # a relation that rewrites a vector to itself leaves the monoid free
    free_like = presentation(2, [[(1, 1), (1, 1)]])
    free = check_almost_unperforated(FREE2, x_cap=3, n_max=2)
    related = check_almost_unperforated(free_like, x_cap=3, n_max=2)
    assert free.found == related.found == False  # noqa: E712


def _first_aup_triple(p, x_cap, n_max, depth, z_cap, entry_cap):
    # every (n, x, y) in lexicographic order, each leq decided afresh
    vectors = list(product(range(x_cap + 1), repeat=p.rank))
    for n in range(1, n_max + 1):
        for x in vectors:
            for y in vectors:
                if not leq(p, vscale(n + 1, x), vscale(n, y), depth, z_cap, entry_cap).yes:
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
        z_cap = rng.randint(0, 6)
        entry_cap = rng.randint(3, 12)
        res = check_almost_unperforated(p, x_cap, n_max, depth, z_cap, entry_cap)
        expect = _first_aup_triple(p, x_cap, n_max, depth, z_cap, entry_cap)
        if expect is None:
            assert not res.found, relations
            continue
        found += 1
        ce = res.counterexample
        assert (ce.x, ce.y, ce.n) == expect, relations
        assert ce.scaled_leq.kind == "yes" and ce.plain_leq.kind == "no"
        ce.scaled_leq.certificate.replay(p, vscale(ce.n + 1, ce.x), vscale(ce.n, ce.y))
    assert found >= 5


def _bad_xs(p, y, n, x_cap, depth, z_cap, entry_cap):
    # the x that make (x, y, n) a counterexample, each leq decided afresh
    members, complete, _ = reference_saturate(p, y, depth, entry_cap)
    if not complete:
        return []
    return [
        x for x in product(range(x_cap + 1), repeat=p.rank)
        if leq(p, vscale(n + 1, x), vscale(n, y), depth, z_cap, entry_cap).yes
        and not any(all(a >= b for a, b in zip(w, x)) for w in members)
    ]


# (rank, relations, (x_cap, n_max, depth, z_cap, entry_cap), first triple)
AUP_PINNED = {
    # y = (1, 0) has the class {(1, 0), (0, 3)}; unclipped, its down-set has
    # 5 points, more than the box [0, 1]^2, yet it misses (1, 1)
    "clipped members": (2, [[(0, 3), (1, 0)], [(2, 2), (1, 3)]], (1, 2, 6, 3, 6), ((1, 1), (1, 0), 2)),
    # every y >= 1 has a class cut off by the entry cap; (2, 1, 2) satisfies
    # the scaled leq, but an incomplete class refutes nothing
    "incomplete classes": (1, [[(0,), (9,)], [(2,), (4,)]], (3, 3, 5, 1, 7), None),
    # y = (0, 2) is the first y with a bad x, (1, 0); y = (1, 0) has the
    # smaller bad x (0, 1)
    "later y wins": (2, [[(1, 2), (0, 3)], [(3, 3), (2, 0)]], (2, 3, 4, 5, 7), ((0, 1), (1, 0), 2)),
    # y = (2, 1, 0) is alone in its class, so (0, 0, 1) is bad for it, though
    # the classes of earlier y's such as (0, 0, 1) dominate it
    "dominated sets per y": (3, [[(1, 1, 2), (3, 1, 0)]], (2, 3, 7, 5, 8), ((0, 0, 1), (2, 1, 0), 3)),
}


@pytest.mark.parametrize("name", AUP_PINNED)
def test_aup_sweep_agrees_with_triple_loop_on_pinned_cases(name):
    rank, relations, bounds, expect = AUP_PINNED[name]
    p = presentation(rank, relations)
    assert _first_aup_triple(p, *bounds) == expect
    res = check_almost_unperforated(p, *bounds)
    assert (res.counterexample and (res.counterexample.x, res.counterexample.y, res.counterexample.n)) == expect
    x_cap, n_max, depth, z_cap, entry_cap = bounds
    if name == "incomplete classes":
        assert not reference_saturate(p, (1,), depth, entry_cap)[1]
        assert leq(p, vscale(3, (2,)), vscale(2, (1,)), depth, z_cap, entry_cap).yes
    if name == "later y wins":
        firsts = [
            (bad[0], y) for y in product(range(x_cap + 1), repeat=rank)
            if (bad := _bad_xs(p, y, 2, x_cap, depth, z_cap, entry_cap))
        ]
        assert firsts[0] == ((1, 0), (0, 2)) and min(firsts) == ((0, 1), (1, 0))


def _table_aup(p, x_cap, n_max, depth, z_cap, entry_cap):
    # the sweep with its earlier side table: one range per entry value
    # 0 ... max(entry_cap, n * x_cap), built before any class of ny is read
    region = (
        f"x,y entries <= {x_cap}, 1 <= n <= {n_max}, depth {depth}, "
        f"z_cap {z_cap}, entry cap {entry_cap}"
    )
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
            range(max(0, -((z_cap - a) // (n + 1))), min(x_cap, a // (n + 1)) + 1)
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
                leq(p, vscale(n + 1, x), vscale(n, y), depth, z_cap, entry_cap),
                leq(p, x, y, depth, z_cap, entry_cap),
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
            rng.randint(0, 12), rng.randint(0, 6), rng.randint(0, 12),
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


# -- verdicts are honest ------------------------------------------------------


def test_no_verdicts_state_region():
    got = leq(NUM23, (1, 0), (0, 1))
    assert "z_cap" in got.detail or "depth" in got.detail


def test_free_agrees_with_coordinatewise_arithmetic():
    rng = random.Random(21)
    for _ in range(50):
        u = tuple(rng.randint(0, 5) for _ in range(3))
        v = tuple(rng.randint(0, 5) for _ in range(3))
        assert equal(FREE3, u, v).yes == (u == v)
        expect = all(a <= b for a, b in zip(u, v))
        assert leq(FREE3, u, v).yes == expect
