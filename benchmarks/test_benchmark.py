"""Tests of the benchmark itself: inputs, checks, spans and its manifest.

    python -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run

run.import_package()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from coarse_lab import amenability, castle, flows, homology, monoid, space, tiling  # noqa: E402


@functools.cache
def _built(workload, seed):
    return workloads.build(workload, seed)


def _cheap_subset(workload, seed):
    """A few fast instances per family (the squares open the sparse sweep)."""
    insts = _built(workload, seed)
    families = {
        "tile-castle": [("folner", slice(4)), ("sparse-tiling", slice(-6, None))],
        "flow-solve": [("doubling-interval", slice(10)), ("dipole-fill", slice(3)), ("doubling-tree", slice(2))],
        "type-algebra": [(f, slice(6)) for f in ("equal", "leq", "castle-compare", "castle-refine",
                                                 "refinement", "properly-infinite", "cancellative-equal")],
    }[workload]
    return [i for fam, part in families for i in [i for i in insts if i.family == fam][part]]


def _traced_counts(instances):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        batch = run.run_batch(instances, tracer)
    stats = tracer.layer_stats()
    return batch, stats["calls"], stats["nested"], dict(tracer.counters)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs_other_seed_same_classes(workload):
    a, b, c = _built(workload, 7), workloads.build(workload, 7), _built(workload, 8)
    assert workloads.fingerprint(a) == workloads.fingerprint(b)
    assert workloads.fingerprint(a) != workloads.fingerprint(c)
    assert [(i.family, i.size_class) for i in a] == [(i.family, i.size_class) for i in c]
    assert len(a) >= 100, "p90 needs at least ten instances beyond it"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_counters(workload):
    first = _traced_counts(_cheap_subset(workload, 7))
    second = _traced_counts(_cheap_subset(workload, 7))
    assert not first[0]["wrong"] and not first[0]["errors"]
    assert first[1:] == second[1:]
    assert first[1], "no span recorded"


def test_checker_flags_planted_wrong_fill_norm():
    inst = next(i for i in _built("flow-solve", 7) if i.size_class == "L=24 P=1")
    res = inst.call()
    inst.check(res)
    res.norm += 1
    with pytest.raises(checks.WrongAnswer):
        inst.check(res)
    res.norm -= 1
    pair = next(iter(res.chain.coeffs))
    res.chain.coeffs[pair] += 1
    with pytest.raises(checks.WrongAnswer):
        inst.check(res)


def test_checker_flags_tampered_witnesses():
    insts = _built("flow-solve", 7)
    tree = next(i for i in insts if i.family == "doubling-tree")
    res = tree.call()
    tree.check(res)
    x, y = next(iter(res.phi1)), next(iter(res.phi2.values()))
    res.phi1[x] = y  # collides with an image of phi2
    with pytest.raises(checks.WrongAnswer):
        tree.check(res)

    interval = next(i for i in insts if i.family == "doubling-interval")
    res = interval.call()
    interval.check(res)
    res.points = frozenset(list(res.points)[:1])  # a single point satisfies Hall
    with pytest.raises(checks.WrongAnswer):
        interval.check(res)

    leq = next(i for i in _built("type-algebra", 7) if i.family == "leq" and i.params[0] != i.params[1])
    v = leq.call()
    leq.check(v)
    if v.yes:
        v.certificate.z = tuple(a + 1 for a in v.certificate.z)
    else:
        v.kind = monoid.YES
    with pytest.raises(checks.WrongAnswer):
        leq.check(v)


def _tiny_calls():
    R, eps = 1, Fraction(1, 2)
    line = space.integer_window(0, 29, R)
    t = tiling.tile_interval(line, R, eps)
    tiling.verify_tiling(t)
    c = castle.castle_from_tiling(t)
    castle.invariance_defect(c, line, R)
    tiling.tile_sparse_subset([1, 2, 3, 10, 11, 30], R, eps)
    stacked = space.stacked_product_window(space.regular_tree_window(3, 1, 0).space, 17, 4)
    tiling.tile_stacked_product(stacked, R, eps)
    tiling.tile_box_space([2, 4, 8, 16, 32], R, Fraction(1, 3))
    for sp, p, F in (
        (line.space, 5, {5, 6}),
        (space.subset_window([1, 2, 5]).space, 2, {1, 2}),
        (space.regular_tree_window(3, 2, 0).space, "v", {"v", "v0"}),
        (stacked.space, ("v", 0), {("v", 0), ("v0", 0)}),
        (space.box_window([2, 4]).space, (1, 0), {(1, 0), (1, 1)}),
    ):
        sp.ball_of(p, 1)
        sp.boundary_of(F, 1)
        sp.diameter_of(F)
    amenability.folner_search(line, R, eps, "intervals", 10)
    amenability.doubling_check(line, {10, 11}, 1)
    homology.min_norm_fill(line, homology.ZeroChain({3: 1}), 1)
    castle.compare(c, set(c.towers[0].columns[0]), set(c.towers[0].columns[0]))
    castle.refine(c, [set(c.towers[0].columns[0][:2])])
    p = monoid.presentation(2, [[(3, 0), (0, 2)]])
    monoid.equal(p, (3, 0), (0, 2))
    monoid.leq(p, (1, 0), (3, 0))
    monoid.cancellative_equal(p, (1, 0), (1, 0))
    monoid.properly_infinite(p, (1, 0), m_cap=1)
    monoid.refinement_instance(p, (1, 0), (0, 1), (1, 0), (0, 1))
    monoid.check_almost_unperforated(p, x_cap=1, n_max=1)


def test_every_wrapped_name_records_calls():
    originals = (tiling.verify_tiling, castle.verify_tiling, space.IntegerLineSpace.ball_of)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.enabled = True
        _tiny_calls()
        tracer.enabled = False
    calls = tracer.layer_stats()["calls"]
    names = {name for *_, name in tracing.FUNCTIONS} | {name for *_, name in tracing.METHODS}
    assert {n for n in names if not calls.get(n)} == set()
    # names taken with "from .x import y" are rebound: verify_tiling runs inside castle_from_tiling
    names_by_span = [tracer.names[s[0]] for s in tracer.spans]
    nested = [
        i for i, s in enumerate(tracer.spans)
        if names_by_span[i] == "tiling.verify_tiling" and s[1] >= 0
        and names_by_span[s[1]] == "castle.castle_from_tiling"
    ]
    assert nested
    assert (tiling.verify_tiling, castle.verify_tiling, space.IntegerLineSpace.ball_of) == originals
    leftovers = [
        (mod.__name__, key) for mod in (amenability, castle, flows, homology, monoid, space, tiling)
        for key, value in vars(mod).items() if hasattr(value, "__wrapped__")
    ] + [(cls, meth) for _, cls, meth, _ in tracing.METHODS
         if hasattr(getattr(getattr(space, cls, flows.FlowNetwork), meth), "__wrapped__")]
    assert leftovers == []


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_inner = tracer.wrap("inner", inner)
    wrapped_outer = tracer.wrap("outer", outer)
    tracer.enabled = True
    wrapped_outer()
    tracer.enabled = False
    stats = tracer.layer_stats()
    (_, _, _, s0, e0, _), (_, parent, _, s1, e1, _) = tracer.spans
    assert parent == 0
    assert stats["self_s"]["inner"] == pytest.approx((e1 - s1) / 1e9)
    assert stats["self_s"]["outer"] == pytest.approx((e0 - s0 - (e1 - s1)) / 1e9)
    assert stats["top_level_s"] == pytest.approx((e0 - s0) / 1e9)


def test_times_are_scaled_by_the_reference_loop():
    def batch(latencies_ms, reference_s):
        return {"latencies": [int(ms * 1e6) for ms in latencies_ms], "reference": [int(reference_s * 1e9)] * 3,
                "errors": {}, "wrong": {}}

    # a host at half speed: the program and the reference loop both take twice as long;
    # each batch is scaled by its own reference times, so a slow spell inside a run cancels too
    quiet = [batch([1.0, 2.0, 4.0, 8.0], run.REFERENCE_S) for _ in range(3)]
    slow = [batch([2.0, 4.0, 8.0, 16.0], 2 * run.REFERENCE_S) for _ in range(3)]
    mixed = [quiet[0], slow[0], slow[1]]
    a, b, c = run.end_to_end(quiet, [0.5]), run.end_to_end(slow, [1.0]), run.end_to_end(mixed, [0.5])
    for name in ("wall_s", "instance_p50_ms", "instance_p90_ms"):
        assert a[name] == pytest.approx(b[name]) == pytest.approx(c[name])
    assert a["setup_s"] == pytest.approx(b["setup_s"])
    assert a["wall_s"] == pytest.approx(0.015)
    assert a["instance_p50_ms"] == pytest.approx(3.0)


def test_manifest_lists_exactly_the_reported_metrics():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / run.HERE.name / "run.py"), "--workload", "flow-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
