"""Seeded inputs for the three benchmark workloads.

``build(workload, seed)`` returns the workload's fixed batch of instances.
An instance is one public call sequence a user or the CLI would make; its
inputs are built here, before timing, and the program receives only them.
The seed picks offsets, gaps, lengths within narrow bands, random subsets
and random castles; the size classes themselves never depend on it, so the
cost of a batch stays comparable across seeds.

Calls go through module attributes (``homology.min_norm_fill``, not a name
imported into this file) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from coarse_lab import amenability, castle, homology, monoid, oracles, space, tiling

import checks


@dataclass
class Instance:
    family: str
    size_class: str  # the same for every seed
    params: Any  # the seeded choices, for fingerprints and reports
    call: Callable[[], Any]
    check: Callable[[Any], None]

    @property
    def label(self) -> str:
        return f"{self.family} {self.size_class}"


def build(workload: str, seed: int) -> list[Instance]:
    rng = random.Random(f"{workload}:{seed}")
    return {"tile-castle": _tile_castle, "flow-solve": _flow_solve, "type-algebra": _type_algebra}[workload](rng)


def fingerprint(instances: list[Instance]) -> str:
    text = repr([(i.family, i.size_class, i.params) for i in instances])
    return hashlib.sha256(text.encode()).hexdigest()


# -- tile-castle ------------------------------------------------------------


def _pipeline(construct: Callable[[], Any]) -> Callable[[], tuple]:
    """tile -> verify_tiling -> castle_from_tiling -> invariance_defect."""

    def call():
        t = construct()
        report = tiling.verify_tiling(t)
        c = castle.castle_from_tiling(t)
        return t, report, c, castle.invariance_defect(c, t.window, t.R)

    return call


def _sparse_subset(rng: random.Random, size: int) -> list[int]:
    """Criterion 2's generator: gaps from a fixed menu, some far above R."""
    gaps = [1, 1, 2, 3, 4, 7, 15, 60, 700]
    acc = rng.randint(0, 50)
    out = [acc]
    for _ in range(size - 1):
        acc += rng.choice(gaps)
        out.append(acc)
    return out


def _tile_castle(rng: random.Random) -> list[Instance]:
    out: list[Instance] = []

    def line(lo: int, hi: int, R: int, eps: Fraction, size_class: str):
        window = space.integer_window(lo, hi, R)
        N = tiling.block_length(R, eps)
        out.append(Instance(
            "line-tiling", size_class, (lo, hi, R, str(eps)),
            _pipeline(lambda: tiling.tile_interval(window, R, eps)),
            lambda res: checks.check_interval_tiling(res, window, N),
        ))

    line(-10_000, 10_000, 5, Fraction(1, 100), "criterion-1 (5, 1/100) core 20001")
    for length, R, eps in ((2_000, 1, Fraction(1, 10)), (2_000, 2, Fraction(1, 2)),
                           (5_000, 5, Fraction(1, 100)), (5_000, 1, Fraction(1, 100)),
                           (10_000, 2, Fraction(1, 10))):
        lo = rng.randint(-1_000_000, 1_000_000)
        n = length + rng.randint(-length // 50, length // 50)
        line(lo, lo + n - 1, R, eps, f"core ~{length} ({R}, {eps})")

    subsets = [("squares 1000", [n * n for n in range(1, 1001)])]
    for k in range(13):
        size = 150 + 20 * k
        subsets.append((f"sparse {size}", _sparse_subset(rng, size)))
    smallest = (subsets[1][0], 1, Fraction(1, 2))
    for name, A in subsets:
        window = space.subset_window(A)  # the same window tile_sparse_subset builds
        for R in (1, 2, 5):
            for eps in (Fraction(1, 2), Fraction(1, 10)):
                N = tiling.block_length(R, eps)
                brute = (name, R, eps) == smallest
                out.append(Instance(
                    "sparse-tiling", f"{name} ({R}, {eps})", (tuple(A), R, str(eps)),
                    _pipeline(lambda A=A, R=R, eps=eps: tiling.tile_sparse_subset(A, R, eps)),
                    lambda res, w=window, N=N, b=brute: checks.check_sparse_tiling(res, w, N, b),
                ))

    base = space.regular_tree_window(3, 3, 0).space
    stacked = space.stacked_product_window(base, 909)
    out.append(Instance(
        "stacked-tiling", "criterion-3 K=909 (2, 1/20) over tree(3,3)", None,
        _pipeline(lambda: tiling.tile_stacked_product(stacked, 2, Fraction(1, 20))),
        lambda res: checks.check_stacked_tiling(res, stacked, 15, 341),
    ))
    moduli = [2 ** k for k in range(1, 10)]
    box = space.box_window(moduli)
    out.append(Instance(
        "box-tiling", "criterion-4 2^1..2^9 (1, 1/3)", None,
        _pipeline(lambda: tiling.tile_box_space(moduli, 1, Fraction(1, 3))),
        lambda res: checks.check_box_tiling(res, box, 8),
    ))

    def folner(kind, window, dist, R, eps, strategy, budget, params, must_succeed=False):
        out.append(Instance(
            "folner", f"{kind} {strategy}", params,
            lambda: amenability.folner_search(window, R, eps, strategy, budget),
            lambda res: checks.check_folner(res, window, dist, R, eps, budget, must_succeed),
        ))

    for length in (200, 400):
        lo = rng.randint(-10_000, 10_000)
        n = length + rng.randint(-5, 5)
        window = space.integer_window(lo, lo + n - 1, 3)
        for strategy in ("balls", "intervals", "greedy"):
            folner(f"line ~{length}", window, checks.line_dist, 3, Fraction(1, 10), strategy, 200, (lo, n),
                   must_succeed=strategy == "intervals")
    for degree, depth in ((3, 5), (4, 4)):
        window = space.regular_tree_window(degree, depth, 2)
        for strategy in ("balls", "greedy"):
            folner(f"tree({degree},{depth})", window, checks.tree_dist, 2, Fraction(1, 2), strategy, 50, None)
    for K in (40, 60):
        window = space.stacked_product_window(space.regular_tree_window(3, 2, 0).space, K)
        for strategy in ("balls", "greedy"):
            folner(f"stacked tree(3,2) K={K}", window, checks.stacked_tree_dist, 2, Fraction(1, 2), strategy, 50, None)
    return out


# -- flow-solve -------------------------------------------------------------

# Path lengths either side of the fill solver's recursion-depth limit, which
# lies near 1000 vertices; both bands stay far from it, so traced and
# untraced runs fail the same instances.  The upper band is narrow so that
# its instances cost alike: with 188 instances the 90th latency percentile
# falls among them, clear of the next-cheaper instances.
DIPOLE_LOWER = (300, 600)
DIPOLE_UPPER = (1500, 1560)


def _all_ones(window) -> homology.ZeroChain:
    return homology.ZeroChain({p: 1 for p in window.core})


def _flow_solve(rng: random.Random) -> list[Instance]:
    out: list[Instance] = []

    for P in (1, 2):
        for L in (24, 48, 96):
            lo = rng.randint(-5_000, 5_000)
            window = space.integer_window(lo, lo + L - 1, 2)
            c = _all_ones(window)
            # the middle cut carries P(P+1)/2 pairs and half the mass must cross
            # it outward, so the optimum is ceil(L / (P(P+1))) for even L
            norm = math.ceil(L / (P * (P + 1)))
            oracle = None
            if (L, P) == (24, 1):
                oracle = functools.cache(
                    lambda w=window, c=c: oracles.min_fill_norm_by_scan(w, c.coeffs, 1)
                )

            def check(res, w=window, c=c, P=P, norm=norm, oracle=oracle):
                checks.check_fill(res, w, checks.line_dist, c.coeffs, P, norm=norm)
                if oracle is not None:
                    checks.expect(oracle() == res.norm, "scan oracle disagrees on the fill norm")

            out.append(Instance(
                "line-fill", f"L={L} P={P}", (lo, L, P),
                lambda w=window, c=c, P=P: homology.min_norm_fill(w, c, P), check,
            ))

    for radius in (4, 5, 6):
        window = space.regular_tree_window(3, radius, 1)
        c = _all_ones(window)
        out.append(Instance(
            "tree-fill", f"radius {radius}", None,
            lambda w=window, c=c: homology.min_norm_fill(w, c, 1),
            lambda res, w=window, c=c: checks.check_fill(res, w, checks.tree_dist, c.coeffs, 1, max_norm=3),
        ))

    R = 2
    for radius in range(3, 7):
        window = space.regular_tree_window(3, radius + R, R)
        F = frozenset(space.ball(window.space, "v", radius))
        oracle = None
        if radius <= 5:
            oracle = functools.cache(lambda w=window, F=F: oracles.doubling_possible_by_matching(w, set(F), R))

        def check(res, w=window, F=F, oracle=oracle):
            checks.check_paradox(res, w, checks.tree_dist, F, R)
            if oracle is not None:
                checks.expect(oracle(), "matching oracle finds no doubling")

        out.append(Instance(
            "doubling-tree", f"radius {radius}", None,
            lambda w=window, F=F: amenability.doubling_check(w, F, R), check,
        ))

    for base in (12, 24, 50, 100):
        for r in range(1, 6):
            for _ in range(5):
                L = base + rng.randint(0, base // 10)
                lo = rng.randint(-10_000, 10_000)
                window = space.integer_window(lo, lo + L - 1, r)
                F = frozenset(window.core)
                oracle = None
                if base <= 24:
                    oracle = functools.cache(lambda w=window, F=F, r=r: oracles.doubling_possible_by_matching(w, set(F), r))

                def check(res, w=window, F=F, r=r, oracle=oracle):
                    checks.check_violator(res, w, checks.line_dist, F, r)  # 2R < L: the interval cannot double
                    if oracle is not None:
                        checks.expect(not oracle(), "matching oracle finds a doubling")

                out.append(Instance(
                    "doubling-interval", f"L~{base} R={r}", (lo, L, r),
                    lambda w=window, F=F, r=r: amenability.doubling_check(w, F, r), check,
                ))

    def dipoles(band, count, name):
        lo, hi = band
        step = (hi - lo) // count
        for k in range(count):
            n = lo + k * step + rng.randint(0, step - 1)
            start = rng.randint(0, 10 ** 6)
            labels = list(range(start, start + n))
            g = space.build_graph_metric(labels, list(zip(labels, labels[1:])))
            window = space.WindowedSpace(g, frozenset(labels), frozenset(), 0)
            c = homology.ZeroChain({labels[0]: 1, labels[-1]: -1})
            oracle = None
            if k == 0 and name == "lower":
                oracle = functools.cache(lambda w=window, c=c: oracles.min_fill_norm_by_scan(w, c.coeffs, 1, cap=2))

            def check(res, w=window, c=c, oracle=oracle):
                checks.check_fill(res, w, checks.line_dist, c.coeffs, 1, norm=1)
                if oracle is not None:
                    checks.expect(oracle() == 1, "scan oracle disagrees on the dipole norm")

            out.append(Instance(
                "dipole-fill", f"{name} band {band[0]}..{band[1]} #{k}", (start, n),
                lambda w=window, c=c: homology.min_norm_fill(w, c, 1), check,
            ))

    dipoles(DIPOLE_LOWER, 60, "lower")
    dipoles(DIPOLE_UPPER, 15, "upper")
    return out


# -- type-algebra -----------------------------------------------------------

N23 = monoid.presentation(2, [[(3, 0), (0, 2)]])
N35 = monoid.presentation(2, [[(5, 0), (0, 3)]])
A_EQ_B = monoid.presentation(2, [[(1, 0), (0, 1)]])
IDEM = monoid.presentation(1, [[(2,), (1,)]])
RANK3_A = monoid.presentation(3, [[(1, 1, 0), (0, 0, 1)]])  # c = a + b: N^2
RANK3_B = monoid.presentation(3, [[(2, 0, 0), (0, 1, 0)], [(0, 2, 0), (0, 0, 1)]])  # b = 2a, c = 2b: N

MODELS = {
    "free2": (monoid.presentation(2), checks.LinearModel([(1, 0), (0, 1)])),
    "free3": (monoid.presentation(3), checks.LinearModel([(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
    "<2,3>": (N23, checks.NumericalModel((2, 3))),
    "<3,5>": (N35, checks.NumericalModel((3, 5))),
    "a=b": (A_EQ_B, checks.NumericalModel((1, 1))),
    "idempotent": (IDEM, checks.IdempotentModel()),
    "rank3 c=a+b": (RANK3_A, checks.LinearModel([(1, 0), (0, 1), (1, 1)])),
    "rank3 b=2a c=2b": (RANK3_B, checks.NumericalModel((1, 2, 4))),
}

# (presentation, x_cap, expected counterexample: None, True for "some", or the triple).
# The caps sit below criterion 8's (8 for N^2 and N^3, 4 for rank 3) so that
# no sweep takes much over 0.1 s: a 40-s run then repeats every instance
# dozens of times, each time next to reference-loop samples taken in the
# same second, and the host's slow spells, which last seconds, wash out.
AUP_SWEEPS = [
    ("free2", 6, None),
    ("free3", 3, None),
    ("<2,3>", 6, ((1, 0), (0, 1), 2)),
    ("<3,5>", 6, True),
    ("a=b", 5, None),
    ("idempotent", 8, None),
    ("rank3 c=a+b", 2, None),
    ("rank3 b=2a c=2b", 2, None),
]


def _vector(rng: random.Random, rank: int, top: int) -> tuple:
    return tuple(rng.randint(0, top) for _ in range(rank))


def _castles_of_sizes(rng: random.Random, sizes: list[int]) -> list:
    """random_castle(rng, 60) draws, kept until one castle per wanted size.

    random_castle picks its atom count uniformly up to 60; fixing the count
    per instance keeps that spread but stops it from varying with the seed.
    """
    wanted = Counter(sizes)
    pool: dict = defaultdict(list)
    while any(len(pool[n]) < k for n, k in wanted.items()):
        c = castle.random_castle(rng, 60)
        n = len(c.atoms())
        if len(pool[n]) < wanted[n]:
            pool[n].append(c)
    return [pool[n].pop() for n in sizes]


def _type_algebra(rng: random.Random) -> list[Instance]:
    out: list[Instance] = []

    for name, x_cap, expected in AUP_SWEEPS:
        p, model = MODELS[name]
        out.append(Instance(
            "aup", f"{name} x_cap {x_cap}", None,
            lambda p=p, x_cap=x_cap: monoid.check_almost_unperforated(p, x_cap=x_cap),
            lambda res, p=p, model=model, e=expected: checks.check_aup(res, p, model, e),
        ))

    small = ("<2,3>", "<3,5>", "a=b", "rank3 c=a+b")
    for k in range(24):
        name = small[k % len(small)]
        p, model = MODELS[name]
        if k % 2:
            # an equal pair: the two sides of a relation plus a common summand
            s = _vector(rng, p.rank, 2)
            lhs, rhs = rng.choice(p.relations)
            u, w = monoid.vadd(s, lhs), monoid.vadd(s, rhs)
        else:
            u, w = _vector(rng, p.rank, 3), _vector(rng, p.rank, 3)
        out.append(Instance(
            "equal", name, (u, w),
            lambda p=p, u=u, w=w: monoid.equal(p, u, w),
            lambda v, p=p, m=model, u=u, w=w: checks.check_equal(v, p, m, u, w),
        ))

    for k in range(20):
        name = small[k % len(small)]
        p, model = MODELS[name]
        u, w = _vector(rng, p.rank, 2), _vector(rng, p.rank, 3)
        out.append(Instance(
            "leq", name, (u, w),
            lambda p=p, u=u, w=w: monoid.leq(p, u, w),
            lambda v, p=p, m=model, u=u, w=w: checks.check_leq(v, p, m, u, w),
        ))

    for k in range(8):
        name = ("idempotent", "<2,3>")[k % 2]
        p, model = MODELS[name]
        x = (rng.randint(1, 3),) if name == "idempotent" else _vector(rng, 2, 2)
        out.append(Instance(
            "properly-infinite", name, x,
            lambda p=p, x=x: monoid.properly_infinite(p, x),
            lambda res, p=p, m=model, x=x: checks.check_properly_infinite(res, p, m, x),
        ))

    for k in range(8):
        name = ("idempotent", "<2,3>")[k % 2]
        p, model = MODELS[name]
        if name == "idempotent":
            u, w = (rng.randint(0, 3),), (rng.randint(0, 3),)
            same = True  # the cancellative hull of {0, a} is trivial
        else:
            u, w = _vector(rng, 2, 3), _vector(rng, 2, 3)
            same = model.image(u) == model.image(w)  # <2,3> is cancellative
        out.append(Instance(
            "cancellative-equal", name, (u, w),
            lambda p=p, u=u, w=w: monoid.cancellative_equal(p, u, w),
            lambda v, p=p, m=model, u=u, w=w, s=same: checks.check_cancellative(v, p, m, u, w, s),
        ))

    for k in range(8):
        name = ("free2", "free3", "<2,3>", "rank3 c=a+b")[k % 4]
        p, model = MODELS[name]
        w, x, y, z = (_vector(rng, p.rank, 2) for _ in range(4))
        a, b, c, d = monoid.vadd(w, x), monoid.vadd(y, z), monoid.vadd(w, y), monoid.vadd(x, z)
        out.append(Instance(
            "refinement", name, (a, b, c, d),
            lambda p=p, a=a, b=b, c=c, d=d: monoid.refinement_instance(p, a, b, c, d),
            lambda res, m=model, a=a, b=b, c=c, d=d: checks.check_refinement(res, m, a, b, c, d),
        ))

    compare_sizes = list(range(1, 61))
    refine_sizes = [1 + k * 59 // 39 for k in range(40)]
    castles = _castles_of_sizes(rng, compare_sizes + refine_sizes)
    for c in castles[:60]:
        atoms = sorted(c.atoms())
        A = frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))
        B = frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))
        out.append(Instance(
            "castle-compare", f"random_castle {len(atoms)} atoms", (repr(c), sorted(A), sorted(B)),
            lambda c=c, A=A, B=B: castle.compare(c, A, B),
            lambda res, c=c, A=A, B=B: checks.check_compare(res, c, A, B),
        ))
    for k, c in enumerate(castles[60:]):
        atoms = sorted(c.atoms())
        targets = [
            frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))
            for _ in range(1 + k % 3)
        ]
        out.append(Instance(
            "castle-refine", f"random_castle {len(atoms)} atoms, {len(targets)} targets", (repr(c), [sorted(t) for t in targets]),
            lambda c=c, t=targets: castle.refine(c, t),
            lambda r, c=c, t=targets: checks.check_refine(r, c, t),
        ))
    return out
