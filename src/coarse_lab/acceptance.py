"""The acceptance suite: ten criteria, each replayed from scratch.

Every criterion is a body that records its checks on a
:class:`CriterionResult`; ``_criterion`` registers it in ``CRITERIA`` as a
timed function of the context.  The CLI ``selftest`` subcommand and the
pytest acceptance module both run these.
All tolerances are exact (rational arithmetic); the only inexact quantities
are wall-clock budgets, which are part of the stated criteria.  Expensive
intermediates (the four tilings) are shared through a context dict so the
glue criterion can reuse them.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .amenability import HallViolator, ParadoxWitness, doubling_check
from .castle import (
    castle_from_tiling,
    compare,
    indicator,
    invariance_defect,
    random_castle,
    refine,
    type_vector,
    validate,
)
from .homology import ZeroChain, apply_boundary, min_norm_fill
from .monoid import (
    cancellative_equal,
    check_almost_unperforated,
    presentation,
    properly_infinite,
    vscale,
)
from .oracles import doubling_possible_by_matching, min_fill_norm_by_scan
from .space import (
    ball,
    integer_window,
    outer_boundary,
    regular_tree_window,
    stacked_product_window,
)
from .tiling import (
    TilingReport,
    block_length,
    box_tiling_plan,
    stacked_block_height,
    tile_box_space,
    tile_interval,
    tile_sparse_subset,
    tile_stacked_product,
    verify_tiling,
)


@dataclass
class CriterionResult:
    """A criterion's verdict; its body records checks and notes on it as it runs."""

    number: int
    title: str
    budget: float | None = None
    elapsed: float = 0.0
    details: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    _start: float = field(default=0.0, init=False, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def expect(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    def note(self, message: str):
        self.details.append(message)

    def replays(self, replay: Callable[[], object], message: str):
        """Run a certificate's replay; an ``AssertionError`` it raises is a failure."""
        try:
            replay()
        except AssertionError as e:
            self.failures.append(f"{message}: {e}")

    def restart_clock(self):
        self._start = time.perf_counter()

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number}: {self.title} ({self.elapsed:.2f}s)"


CRITERIA: dict[int, Callable[[dict], CriterionResult]] = {}


def _criterion(number: int, title: str, budget: float | None = None):
    """Register a body ``(ctx, chk)`` as criterion ``number``.

    The registered function times the whole body, applies the wall-clock
    budget, and returns ``chk``, the body's :class:`CriterionResult`.
    """

    def register(body: Callable[[dict, CriterionResult], None]) -> Callable[[dict], CriterionResult]:
        def run(ctx: dict) -> CriterionResult:
            chk = CriterionResult(number, title, budget)
            chk.restart_clock()
            body(ctx, chk)
            chk.elapsed = time.perf_counter() - chk._start
            if budget is not None:
                chk.expect(chk.elapsed < budget, f"runtime {chk.elapsed:.2f}s exceeds budget {budget}s")
            return chk

        CRITERIA[number] = run
        return run

    return register


def _random_sparse_subset(rng: random.Random, size: int) -> list[int]:
    gaps = [1, 1, 2, 3, 4, 7, 15, 60, 700]
    acc = rng.randint(0, 50)
    out = [acc]
    for _ in range(size - 1):
        acc += rng.choice(gaps)
        out.append(acc)
    return out


def _dense_run_subset(rng: random.Random, runs: int) -> list[int]:
    """Runs of 202-505 points (2N-5N for N = 101), gaps 1 or 2 inside a run and above 5 between."""
    acc, out = rng.randint(0, 50), []
    for _ in range(runs):
        for _ in range(rng.randint(202, 505)):
            out.append(acc)
            acc += rng.choice((1, 2))
        acc += rng.randint(5, 60)
    return out


def _expect_verified(chk: CriterionResult, report: TilingReport, where: str = "") -> None:
    """The verdict passed, and every declared tile metadatum matched the replay."""
    chk.expect(report.passed, f"verification failed{where}: " + "; ".join(report.failures[:3]))
    chk.expect(not report.meta_mismatches, f"declared metadata mismatch{where} at tiles {list(report.meta_mismatches[:3])}")


@_criterion(1, "integer-line tiling at (5, 1/100)", budget=2.0)
def criterion_1(ctx: dict, chk: CriterionResult) -> None:
    window = integer_window(-100_000, 100_000, 5)
    R, eps = 5, Fraction(1, 100)
    chk.expect(block_length(R, eps) == 1001, "block length is not 1001")
    t = tile_interval(window, R, eps)
    report = verify_tiling(t)
    _expect_verified(chk, report)
    interior = [m for m in t.meta if not m.contaminated]
    chk.expect(bool(interior), "no interior tiles")
    bad = [str(m.ratio) for m in interior if m.ratio != Fraction(10, 1001)]
    chk.expect(not bad, f"interior ratios other than 10/1001: {bad[:3]}")
    chk.note(f"{len(t.tiles)} tiles, {len(interior)} interior at ratio 10/1001")
    ctx["tiling_1"] = t


@_criterion(2, "sparse-subset tilings across the (R, eps) sweep", budget=5.0)
def criterion_2(ctx: dict, chk: CriterionResult) -> None:
    subsets = [[n * n for n in range(1, 1001)]]
    rng = random.Random(0)
    for _ in range(20):
        subsets.append(_random_sparse_subset(rng, rng.randint(150, 400)))
    dense = [_dense_run_subset(rng, rng.randint(2, 4)) for _ in range(3)]
    subsets += dense
    tilings = []
    count = chopped = 0
    for A in subsets:
        for R in (1, 2, 5):
            for eps in (Fraction(1, 2), Fraction(1, 10)):
                t = tile_sparse_subset(A, R, eps)
                report = verify_tiling(t)
                count += 1
                chopped += report.max_ratio > 0
                where = f" at R={R}, eps={eps}"
                _expect_verified(chk, report, where)
                N = block_length(R, eps)
                chk.expect(all(m.diameter <= 2 * R * N for m in t.meta), "diameter exceeds 2RN" + where)
                # a subset is its own space, with no halo to contaminate a tile
                chk.expect(not any(m.contaminated for m in t.meta), "a tile is flagged contaminated" + where)
                tilings.append(t)
    # a declared prefix flags exactly the tiles of its final run, those at or
    # past A's last gap above R; these stay out of criterion 7, because a
    # subset window has no halo to explain the flags
    for A in dense:
        for R in (1, 2, 5):
            t = tile_sparse_subset(A, R, Fraction(1, 10), prefix_of_unbounded=True)
            where = f" for a declared prefix at R={R}"
            _expect_verified(chk, verify_tiling(t), where)
            start = max((b for a, b in zip(A, A[1:]) if b - a > R), default=A[0])
            flagged = [i for i, m in enumerate(t.meta) if m.contaminated]
            final = [i for i, tile in enumerate(t.tiles) if min(tile) >= start]
            chk.expect(flagged == final, "flagged tiles are not the final run's" + where)
    chk.expect(chopped > 0, "no tiling has a tile with a nonzero boundary")
    chk.note(f"{count} tilings over {len(subsets)} subsets, all verified, {chopped} with a nonzero ratio")
    chk.note(f"{3 * len(dense)} declared prefixes flag exactly their final run")
    ctx["tilings_2"] = tilings


@_criterion(3, "stacked column tiling over the depth-5 tree ball")
def criterion_3(ctx: dict, chk: CriterionResult) -> None:
    X = regular_tree_window(3, 5, 0).space
    R, eps = 2, Fraction(1, 20)
    # halo is a quarter of K, so K = 909 gives core height 682 = 2N with N = 341
    window = stacked_product_window(X, 909)
    S, N = stacked_block_height(window, R, eps)
    chk.expect(S == 15, f"computed S = {S}, expected the root ball to dominate with 15")
    chk.expect(N == 341, f"computed N = {N}, expected 341")
    chk.expect((window.space.K - window.halo_depth) % N == 0, "core height not a multiple of N")
    t = tile_stacked_product(window, R, eps)
    report = verify_tiling(t)
    _expect_verified(chk, report)
    bottom_bound = Fraction(S + R, N)
    bottoms = [
        m for tile, m in zip(t.tiles, t.meta) if any(n == 0 for _, n in tile)
    ]
    chk.expect(len(bottoms) == len(X.points), "one bottom tile per column expected")
    chk.expect(
        all(m.ratio <= bottom_bound for m in bottoms),
        f"a bottom tile exceeds (S+R)/N = {bottom_bound}",
    )
    chk.note(f"S={S}, N={N}, {len(t.tiles)} tiles, bottom ratios <= {bottom_bound}")
    ctx["tiling_3"] = t


@_criterion(4, "box-space tiling over cycle quotients")
def criterion_4(ctx: dict, chk: CriterionResult) -> None:
    moduli = [2 ** k for k in range(1, 13)]
    R, eps = 1, Fraction(1, 3)
    plan = box_tiling_plan(moduli, R, eps)
    chk.expect(plan.monotile_length == 8, f"monotile length {plan.monotile_length} != 8")
    chk.expect(
        [moduli[i] for i in plan.absorbed_blocks] == [2, 4, 8, 16],
        "quotients below the isometry radius were not absorbed",
    )
    t = tile_box_space(moduli, R, eps)
    report = verify_tiling(t)
    _expect_verified(chk, report)
    x0 = t.tiles[0]
    chk.expect(
        outer_boundary(t.window.space, x0, R) == set(),
        "X_0 has a nonempty outer boundary",
    )
    arcs = t.tiles[1:]
    chk.expect(all(len(a) == 8 for a in arcs), "an arc has length other than 8")
    chk.expect(
        all(m.ratio == Fraction(1, 4) for m in t.meta[1:]),
        "an arc ratio differs from 1/4",
    )
    chk.note(f"{len(arcs)} arcs of length 8 at ratio 1/4, X_0 absorbs blocks {list(plan.absorbed_blocks)}")
    ctx["tiling_4"] = t


@_criterion(5, "castle comparison is exactly the type-vector order", budget=10.0)
def criterion_5(ctx: dict, chk: CriterionResult) -> None:
    rng = random.Random(5)
    discrepancies = 0
    for _ in range(1000):
        c = random_castle(rng, 60)
        atoms = sorted(c.atoms())
        A = set(rng.sample(atoms, rng.randint(0, len(atoms))))
        B = set(rng.sample(atoms, rng.randint(0, len(atoms))))
        res = compare(c, A, B)
        expected = type_vector(c, indicator(A)) <= type_vector(c, indicator(B))
        if res.ok != expected:
            discrepancies += 1
            continue
        if res.ok:
            chk.replays(lambda: res.witness.replay(A, B), "witness replay failed")
    chk.expect(discrepancies == 0, f"{discrepancies} disagreements with the type-vector oracle")
    chk.note("1000 castles, comparison agrees with per-orbit mass everywhere")


@_criterion(6, "castle refinement against random targets")
def criterion_6(ctx: dict, chk: CriterionResult) -> None:
    rng = random.Random(6)
    failures = 0
    for _ in range(500):
        c = random_castle(rng, 60)
        atoms = sorted(c.atoms())
        targets = [
            set(rng.sample(atoms, rng.randint(0, len(atoms))))
            for _ in range(rng.randint(1, 3))
        ]
        r = refine(c, targets)
        ok = not validate(r)
        ok = ok and all(
            lvl <= tgt or not (lvl & tgt)
            for t_ in r.towers
            for j in range(t_.height)
            for lvl in [t_.level(j)]
            for tgt in targets
        )
        ok = ok and sorted(r.orbits()) == sorted(c.orbits())
        f = {a: rng.randint(0, 3) for a in atoms}
        masses = lambda cas: dict(zip(cas.orbits(), type_vector(cas, f).masses))
        ok = ok and masses(c) == masses(r)
        r2 = refine(r, targets)
        levels = lambda cas: {frozenset(t_.level(j)) for t_ in cas.towers for j in range(t_.height)}
        ok = ok and levels(r2) == levels(r)
        if not ok:
            failures += 1
    chk.expect(failures == 0, f"{failures} refinement failures")
    chk.note("500 castles refined: adapted levels, orbits and masses preserved, idempotent")


def _tilings(ctx: dict) -> list:
    """The tilings that criteria 1-4 left in the context."""
    return [ctx[key] for key in ("tiling_1", "tiling_3", "tiling_4") if key in ctx] + ctx.get("tilings_2", [])


@_criterion(7, "castle invariance defect ties back to tile ratios")
def criterion_7(ctx: dict, chk: CriterionResult) -> None:
    tilings = _tilings(ctx)
    if not tilings:
        # standalone invocation: rebuild the four construction families, and
        # time only the tie-back
        for build in (criterion_1, criterion_2, criterion_3, criterion_4):
            build(ctx)
        tilings = _tilings(ctx)
        chk.restart_clock()
    chk.expect(bool(tilings), "no tilings to tie back")
    for t in tilings:
        defect, ratio = invariance_defect(castle_from_tiling(t), t.window, t.R), t.max_ratio()
        chk.expect(defect == ratio, f"defect {defect} != max clean tile ratio {ratio}")
    chk.note(f"{len(tilings)} tilings: invariance defect equals max tile ratio exactly")


@_criterion(8, "monoid decision suite", budget=10.0)
def criterion_8(ctx: dict, chk: CriterionResult) -> None:
    free3 = presentation(3)
    res = check_almost_unperforated(free3, x_cap=8, n_max=4, depth=12)
    chk.expect(not res.found, f"free monoid produced a counterexample: {res.counterexample}")

    num23 = presentation(2, [[(3, 0), (0, 2)]])
    res2 = check_almost_unperforated(num23, x_cap=8, n_max=4, depth=12)
    chk.expect(res2.found, "numerical monoid counterexample not found")
    if res2.found:
        ce = res2.counterexample
        chk.expect(
            (ce.x, ce.y, ce.n) == ((1, 0), (0, 1), 2),
            f"counterexample {(ce.x, ce.y, ce.n)} != ((1,0), (0,1), 2)",
        )
        chk.replays(
            lambda: ce.scaled_leq.certificate.replay(num23, vscale(ce.n + 1, ce.x), vscale(ce.n, ce.y)),
            "scaled leq certificate does not replay",
        )
        chk.expect(ce.plain_leq.no, "plain leq verdict is not a No")

    idem = presentation(1, [[(2,), (1,)]])
    pinf = properly_infinite(idem, (1,))
    chk.expect(pinf.verdict.yes, "2a <= a not established in the idempotent monoid")
    canc = cancellative_equal(idem, (1,), (0,))
    chk.expect(canc.yes, "a != 0 in the cancellative hull of the idempotent monoid")
    if canc.yes:  # v = 0, so the target v + z is z
        chk.replays(lambda: canc.certificate.replay(idem, (1,), canc.certificate.z), "a = 0 does not replay")

    # <2,3> is cancellative, and a, b have the images 2 != 3
    apart = cancellative_equal(num23, (1, 0), (0, 1))
    chk.expect(apart.no, f"a = b in the cancellative hull of <2,3>: {apart.kind}")
    if apart.no:
        chk.replays(
            lambda: apart.certificate.replay(num23, (1, 0), (0, 1)),
            "lattice refutation of a = b does not replay",
        )
    chk.note("free N^3 clean, <2,3> counterexample (a, b, 2) and a != b in its hull, idempotent collapses")


@_criterion(9, "boundary-fill growth dichotomy: line vs tree", budget=30.0)
def criterion_9(ctx: dict, chk: CriterionResult) -> None:
    norms = {}
    for L in (50, 100, 200):
        window = integer_window(0, L - 1, 2)
        c = ZeroChain({p: 1 for p in window.core})
        res = min_norm_fill(window, c, 1)
        norms[L] = res.norm
        chk.expect(res.norm == (L + 1) // 2, f"fill norm {res.norm} != ceil({L}/2)")
        got = apply_boundary(res.chain).restricted_to(window.core)
        chk.expect(got == c, f"fill boundary mismatch at L={L}")
    tree_norms = {}
    for radius in (4, 5, 6, 7, 8):
        window = regular_tree_window(3, radius, 1)
        c = ZeroChain({p: 1 for p in window.core})
        res = min_norm_fill(window, c, 1)
        tree_norms[radius] = res.norm
        chk.expect(res.norm <= 3, f"tree fill norm {res.norm} > 3 at radius {radius}")
    # independent oracle on the two smallest instances
    wz = integer_window(0, 49, 2)
    cz = {p: 1 for p in wz.core}
    chk.expect(
        min_fill_norm_by_scan(wz, cz, 1) == norms[50],
        "oracle disagrees on the length-50 line",
    )
    wt = regular_tree_window(3, 4, 1)
    ct = {p: 1 for p in wt.core}
    chk.expect(
        min_fill_norm_by_scan(wt, ct, 1) == tree_norms[4],
        "oracle disagrees on the radius-4 tree ball",
    )
    chk.note(f"line norms {norms}, tree norms {tree_norms}, oracle agrees")


@_criterion(10, "paradoxical-vs-amenable dichotomy via doubling")
def criterion_10(ctx: dict, chk: CriterionResult) -> None:
    R = 2
    for radius in (3, 4, 5):
        window = regular_tree_window(3, radius + R, R)
        F = ball(window.space, "v", radius)
        res = doubling_check(window, F, R)
        chk.expect(
            isinstance(res, ParadoxWitness),
            f"tree ball radius {radius} did not double",
        )
        if isinstance(res, ParadoxWitness):
            chk.replays(lambda: res.replay(window), f"witness replay failed at radius {radius}")
        chk.expect(
            doubling_possible_by_matching(window, F, R) == isinstance(res, ParadoxWitness),
            f"matching oracle disagrees on tree radius {radius}",
        )
    for L in (10, 20, 50, 100):
        for r in (1, 2, 3, 4, 5):
            window = integer_window(0, L - 1, r)
            F = set(window.core)
            res = doubling_check(window, F, r)
            witness = isinstance(res, ParadoxWitness)
            violator = isinstance(res, HallViolator)
            chk.expect(witness != violator, "outcomes are not exclusive")
            if 2 * r < L:
                chk.expect(violator, f"interval L={L}, R={r} did not violate Hall")
                if violator:
                    chk.replays(lambda: res.replay(window), "violator replay failed")
            chk.expect(
                doubling_possible_by_matching(window, F, r) == witness,
                f"matching oracle disagrees on interval L={L}, R={r}",
            )
    chk.note("tree balls double with replayable maps; intervals yield Hall violators")


def run_criteria(numbers=None) -> list[CriterionResult]:
    ctx: dict = {}
    return [CRITERIA[n](ctx) for n in sorted(numbers or CRITERIA)]
