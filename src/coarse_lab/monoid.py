"""Finitely presented commutative monoids under bounded search.

Elements are vectors in N^k in multiset normal form; a presentation is a
finite set of relation pairs.  The word problem is attacked by breadth-first
congruence saturation, applying relations in both directions whenever one
side can be subtracted entrywise, bounded by a rewrite depth, an entry cap
and a state cap.  Completeness is explicitly surrendered: every verdict is
Yes with a replayable certificate, No with a statement of the exhausted
search region, or Unknown when a bound cut the search off.  A No never
claims more than the region it searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product, repeat
from operator import add, ge, mul, sub
from typing import Iterable, NamedTuple, Sequence

DEFAULT_DEPTH = 12
DEFAULT_ENTRY_CAP = 20
DEFAULT_Z_CAP = 10
DEFAULT_N_MAX = 4
DEFAULT_STATE_CAP = 100_000
# the most (x, y) pairs or (n, y) classes an almost-unperforation sweep, or z
# vectors cancellative_equal, may visit; free rank 2 at x_cap 30 (923 521 pairs)
# sweeps in about 0.15 s.  It also bounds a presentation's rank.
MAX_SEARCH = 1_000_000

Vector = tuple

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class MonoidPresentation:
    rank: int
    relations: tuple[tuple[Vector, Vector], ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.rank > MAX_SEARCH:  # each vector of a search holds rank entries
            raise ValueError(f"rank {self.rank} is above the limit of {MAX_SEARCH}")
        for lhs, rhs in self.relations:
            if len(lhs) != self.rank or len(rhs) != self.rank:
                raise ValueError("relation vectors must have length equal to the rank")
            if any(v < 0 for v in lhs + rhs):
                raise ValueError("relation vectors must be nonnegative")


def presentation(rank: int, relations: Iterable[Sequence[Sequence[int]]] = ()) -> MonoidPresentation:
    return MonoidPresentation(
        rank,
        tuple((tuple(l), tuple(r)) for l, r in relations),
    )


@dataclass
class Verdict:
    kind: str
    detail: str
    certificate: object = None

    @property
    def yes(self) -> bool:
        return self.kind == YES

    @property
    def no(self) -> bool:
        return self.kind == NO


def _check_vector(p: MonoidPresentation, v: Sequence[int]) -> Vector:
    t = tuple(int(x) for x in v)
    if len(t) != p.rank:
        raise ValueError(f"vector {t} does not match rank {p.rank}")
    if any(x < 0 for x in t):
        raise ValueError("elements are nonnegative integer vectors")
    return t


def _check_bounds(n_max: int = 1, **bounds: int) -> None:
    """Refuse a negative depth or cap, and an n_max below 1.

    Each would search an empty region, and an empty search would read as
    an exhausted one: a No, or a sweep with no counterexample.
    """
    for name, value in bounds.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")


def _check_search(what: str, count: int) -> None:
    """Refuse a search above MAX_SEARCH; callers stop exponents at 64, already past it."""
    if count > MAX_SEARCH:
        raise ValueError(f"{count} {what} or more, above the limit of {MAX_SEARCH}")


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(map(add, u, v))


def vscale(n: int, u: Vector) -> Vector:
    return tuple(map(mul, repeat(n), u))


def _saturate(
    p: MonoidPresentation,
    start: Vector,
    depth: int,
    entry_cap: int,
    target: Vector | None = None,
):
    """Bounded closure of {start} under both directions of every relation.

    Returns (parents, complete, found) where parents maps each reached
    vector to its predecessor step and complete means nothing was cut off
    by a bound, so the closure is the whole congruence class.  From each
    vector the moves run in relation-index order, each relation forward
    (lhs to rhs) before backward; the certificate paths read off parents
    depend on this order.
    """
    parents: dict[Vector, tuple | None] = {start: None}
    if target is not None and target == start:
        return parents, True, True
    # (take, give - take, relation index, forward) per relation direction
    moves = []
    for ri, (lhs, rhs) in enumerate(p.relations):
        moves.append((lhs, tuple(map(sub, rhs, lhs)), ri, True))
        moves.append((rhs, tuple(map(sub, lhs, rhs)), ri, False))
    frontier = [start]
    truncated = False
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for take, delta, ri, forward in moves:
                if not all(map(ge, w, take)):
                    continue
                w2 = tuple(map(add, w, delta))
                if w2 in parents:
                    continue
                if max(w2) > entry_cap:
                    truncated = True
                    continue
                if len(parents) >= DEFAULT_STATE_CAP:
                    truncated = True
                    continue
                parents[w2] = (w, ri, forward)
                if target is not None and w2 == target:
                    return parents, not truncated, True
                nxt.append(w2)
        if not nxt:
            break
        frontier = nxt
    else:
        # the search ran to its depth with a nonempty frontier left
        truncated = True
    return parents, not truncated, target is not None and target in parents


def _path(parents: dict, end: Vector) -> tuple:
    steps = []
    cur = end
    while parents[cur] is not None:
        prev, ri, forward = parents[cur]
        steps.append((ri, forward))
        cur = prev
    return tuple(reversed(steps))


def replay_path(p: MonoidPresentation, start: Vector, steps) -> Vector:
    """Apply certificate steps from ``start``; raises if any step is illegal."""
    cur = tuple(start)
    for ri, forward in steps:
        lhs, rhs = p.relations[ri]
        take, give = (lhs, rhs) if forward else (rhs, lhs)
        if not all(map(ge, cur, take)):
            raise ValueError(f"step ({ri}, {forward}) does not apply to {cur}")
        cur = tuple(map(add, map(sub, cur, take), give))
    return cur


def equal(
    p: MonoidPresentation,
    u: Sequence[int],
    v: Sequence[int],
    depth: int = DEFAULT_DEPTH,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> Verdict:
    """Bounded word problem: can u be rewritten into v?

    Yes carries the rewrite path.  No means the whole congruence class of u
    was enumerated within the bounds and v is not in it; Unknown means a
    bound cut the enumeration off first.
    """
    _check_bounds(depth=depth, entry_cap=entry_cap)
    u = _check_vector(p, u)
    v = _check_vector(p, v)
    parents, complete, found = _saturate(p, u, depth, entry_cap, target=v)
    region = f"depth {depth}, entry cap {entry_cap}"
    if found:
        path = _path(parents, v)
        return Verdict(YES, f"rewrite path of length {len(path)}", path)
    if complete:
        return Verdict(
            NO,
            f"congruence class of {u} exhausted ({len(parents)} elements) within {region}; "
            f"{v} is not among them",
        )
    return Verdict(UNKNOWN, f"search from {u} truncated within {region}")


class Rewrite(NamedTuple):
    """Certificate that u + z rewrites to a target along ``path``.

    ``leq`` proves u <= v with target v; ``cancellative_equal`` proves
    u + z = v + z with target v + z.
    """

    z: Vector
    path: tuple

    def replay(self, p: MonoidPresentation, u: Vector, target: Vector) -> None:
        assert replay_path(p, vadd(u, self.z), self.path) == tuple(target)


def leq(
    p: MonoidPresentation,
    u: Sequence[int],
    v: Sequence[int],
    depth: int = DEFAULT_DEPTH,
    z_cap: int = DEFAULT_Z_CAP,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> Verdict:
    """Algebraic preorder: is there z with u + z = v, entries of z <= z_cap?

    Searches the bounded congruence class of v for a member dominating u.
    """
    _check_bounds(depth=depth, z_cap=z_cap, entry_cap=entry_cap)
    u = _check_vector(p, u)
    v = _check_vector(p, v)
    parents, complete, _ = _saturate(p, v, depth, entry_cap)
    candidates = []
    dominating = 0
    for w in parents:
        if all(map(ge, w, u)):
            dominating += 1
            z = tuple(map(sub, w, u))
            if max(z, default=0) <= z_cap:
                candidates.append(z)
    region = f"depth {depth}, entry cap {entry_cap}, z_cap {z_cap}"
    if candidates:
        z = min(candidates)
        # v's saturation tree reaches u + z from v; reversing it rewrites u + z into v
        path = tuple((ri, not fwd) for ri, fwd in reversed(_path(parents, vadd(u, z))))
        return Verdict(YES, f"z = {z}", Rewrite(z, path))
    if complete:
        if dominating:
            detail = (
                f"class of {v} complete ({len(parents)} elements); dominating members "
                f"exist but every z exceeds z_cap within {region}"
            )
        else:
            detail = (
                f"class of {v} complete ({len(parents)} elements); no member dominates "
                f"{u} within {region}"
            )
        return Verdict(NO, detail)
    return Verdict(UNKNOWN, f"class of {v} truncated within {region}")


@dataclass
class AupCounterexample:
    x: Vector
    y: Vector
    n: int
    scaled_leq: Verdict
    plain_leq: Verdict


@dataclass
class AupResult:
    counterexample: AupCounterexample | None
    region: str

    @property
    def found(self) -> bool:
        return self.counterexample is not None


def check_almost_unperforated(
    p: MonoidPresentation,
    x_cap: int = 8,
    n_max: int = DEFAULT_N_MAX,
    depth: int = DEFAULT_DEPTH,
    z_cap: int = DEFAULT_Z_CAP,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> AupResult:
    """Sweep for (x, y, n) with (n+1)x <= ny yet x not <= y within bounds.

    Reports the first counterexample in (n, x, y) lexicographic order, whose
    Yes and No verdicts both carry their evidence.  A counterexample
    requires the plain leq to fail strongly: the congruence class of y is
    completely enumerated and no member dominates x at all.  Refusals that
    only happen because the witness z would exceed z_cap are skipped, as
    are truncated searches; neither is a refutation.  So a y whose class is
    incomplete, or dominates every x of the box [0, x_cap]^rank, is dropped
    before any class of ny is saturated; for each remaining y the set of
    box points its class dominates is built once and kept for every n.

    The scaled leq holds within bounds when some member w of the bounded
    class of ny has (n+1)x <= w <= (n+1)x + z_cap entrywise, that is when x
    lies in the box ceil((w - z_cap)/(n+1)) <= x <= floor(w/(n+1)).  For
    each n and y the bad x are the union of those boxes over the class of
    ny, less the dominated set.  The least (least bad x, y) over all y is
    the first pair the full (x, y) sweep would reach, so no pairs are
    listed or sorted.
    """
    _check_bounds(n_max, x_cap=x_cap, depth=depth, z_cap=z_cap, entry_cap=entry_cap)
    _check_search("(x, y) pairs", (x_cap + 1) ** min(2 * p.rank, 64))
    # each class of ny is saturated once, when the sweep reads it
    _check_search("(n, y) classes", n_max * (x_cap + 1) ** min(p.rank, 64))
    region = (
        f"x,y entries <= {x_cap}, 1 <= n <= {n_max}, depth {depth}, "
        f"z_cap {z_cap}, entry cap {entry_cap}"
    )

    # (y, the box points below some member of y's class) for each y whose
    # class is complete and leaves a point of the box undominated; only
    # these classes are kept, since n = 1 reads them again as ny, so the
    # sweep holds one class of ny at a time
    full = (x_cap + 1) ** p.rank
    open_ys = []
    kept: dict[Vector, tuple] = {}
    for y in product(range(x_cap + 1), repeat=p.rank):
        members, complete, _ = _saturate(p, y, depth, entry_cap)
        if complete:
            dominated = set()
            for w in members:
                dominated.update(product(*(range(min(a, x_cap) + 1) for a in w)))
            if len(dominated) < full:
                open_ys.append((y, dominated))
                kept[y] = tuple(members)

    for n in range(1, n_max + 1):
        # the box's side for each entry value a of w, kept from its first read;
        # the start vector ny may exceed the entry cap
        @cache
        def side(a: int, n1: int = n + 1) -> range:
            return range(max(0, -((z_cap - a) // n1)), min(x_cap, a // n1) + 1)

        firsts = []  # (least bad x, y) for each y with a bad x
        for y, dominated in open_ys:
            ny = vscale(n, y)
            boxes = set()
            for w in kept.get(ny) or _saturate(p, ny, depth, entry_cap)[0]:
                boxes.update(product(*map(side, w)))
            bad = boxes - dominated
            if bad:
                firsts.append((min(bad), y))
        if firsts:
            x, y = min(firsts)
            return AupResult(
                AupCounterexample(
                    x, y, n,
                    leq(p, vscale(n + 1, x), vscale(n, y), depth, z_cap, entry_cap),
                    leq(p, x, y, depth, z_cap, entry_cap),
                ),
                region,
            )
    return AupResult(None, region)


@dataclass
class ProperInfinityResult:
    verdict: Verdict
    least_multiple: int | None
    multiple_verdict: Verdict | None


def properly_infinite(
    p: MonoidPresentation,
    x: Sequence[int],
    depth: int = DEFAULT_DEPTH,
    z_cap: int = DEFAULT_Z_CAP,
    entry_cap: int = DEFAULT_ENTRY_CAP,
    m_cap: int = 8,
) -> ProperInfinityResult:
    """Verdict of 2x <= x, plus the least multiple m with 2(mx) <= mx."""
    _check_bounds(depth=depth, z_cap=z_cap, entry_cap=entry_cap)
    x = _check_vector(p, x)
    verdict = leq(p, vscale(2, x), x, depth, z_cap, entry_cap)
    least = None
    mv = None
    for m in range(1, m_cap + 1):
        mx = vscale(m, x)
        got = verdict if m == 1 else leq(p, vscale(2, mx), mx, depth, z_cap, entry_cap)
        if got.yes:
            least, mv = m, got
            break
    return ProperInfinityResult(verdict, least, mv)


@dataclass
class RefinementResult:
    """``paths`` rewrite a, b, c and d into w + x, y + z, w + y and x + z."""

    found: bool
    quadruple: tuple[Vector, Vector, Vector, Vector] | None
    detail: str
    paths: tuple = ()

    def replay(self, p: MonoidPresentation, a, b, c, d) -> None:
        w, x, y, z = self.quadruple
        sums = (vadd(w, x), vadd(y, z), vadd(w, y), vadd(x, z))
        for start, path, end in zip((a, b, c, d), self.paths, sums, strict=True):
            assert replay_path(p, start, path) == end


def refinement_instance(
    p: MonoidPresentation,
    a: Sequence[int],
    b: Sequence[int],
    c: Sequence[int],
    d: Sequence[int],
    depth: int = DEFAULT_DEPTH,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> RefinementResult:
    """Bounded search for w,x,y,z refining a + b = c + d into a 2x2 grid.

    The entry cap bounds both the saturations and the entries of w.  The
    summand w is enumerated in descending lexicographic order, so free
    presentations return the entrywise-minimum decomposition first.
    """
    _check_bounds(depth=depth, entry_cap=entry_cap)
    a = _check_vector(p, a)
    b = _check_vector(p, b)
    c = _check_vector(p, c)
    d = _check_vector(p, d)
    pre = equal(p, vadd(a, b), vadd(c, d), depth, entry_cap)
    if not pre.yes:
        raise ValueError(
            f"precondition a + b = c + d not established: {pre.kind} ({pre.detail})"
        )

    def minus(members, v: Vector):
        return (tuple(map(sub, m, v)) for m in members if all(map(ge, m, v)))

    CA, CB, CC, CD = (_saturate(p, v, depth, entry_cap)[0] for v in (a, b, c, d))
    ub = tuple(
        min(max(m[i] for m in CA), max(m[i] for m in CC), entry_cap)
        for i in range(p.rank)
    )
    # descending lexicographic order, one w at a time
    for w in product(*(range(u, -1, -1) for u in ub)):
        xs = sorted(minus(CA, w))
        if not xs:
            continue
        ys = sorted(minus(CC, w))
        for x in xs:
            zd = set(minus(CD, x))
            for y in ys:
                z = min(zd.intersection(minus(CB, y)), default=None)
                if z is not None:
                    sums = (vadd(w, x), vadd(y, z), vadd(w, y), vadd(x, z))
                    paths = tuple(map(_path, (CA, CB, CC, CD), sums))
                    return RefinementResult(True, (w, x, y, z), "found", paths)
    return RefinementResult(
        False, None, f"no quadruple within entry bound {entry_cap}, depth {depth}"
    )


def cancellative_equal(
    p: MonoidPresentation,
    u: Sequence[int],
    v: Sequence[int],
    depth: int = DEFAULT_DEPTH,
    z_cap: int = DEFAULT_Z_CAP,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> Verdict:
    """Equality in the cancellative hull: is there z with u + z = v + z?

    Yes means u and v become identified after adding some z with entries at
    most z_cap, i.e. they agree in the universal cancellative quotient.
    """
    _check_bounds(depth=depth, z_cap=z_cap, entry_cap=entry_cap)
    _check_search("z vectors", (z_cap + 1) ** min(p.rank, 64))
    u = _check_vector(p, u)
    v = _check_vector(p, v)
    any_unknown = False
    for z in product(range(z_cap + 1), repeat=p.rank):
        # the bounded word problem u + z = v + z, as ``equal`` decides it
        target = vadd(v, z)
        parents, complete, found = _saturate(p, vadd(u, z), depth, entry_cap, target=target)
        if found:
            return Verdict(YES, f"z = {z}", Rewrite(z, _path(parents, target)))
        any_unknown = any_unknown or not complete
    region = f"z entries <= {z_cap}, depth {depth}, entry cap {entry_cap}"
    if any_unknown:
        return Verdict(UNKNOWN, f"some equality searches truncated within {region}")
    return Verdict(NO, f"no identifying z within {region}")
