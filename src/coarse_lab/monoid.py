"""Finitely presented commutative monoids under bounded search.

Elements are vectors in N^k in multiset normal form; a presentation is a
finite set of relation pairs.  The word problem is attacked by breadth-first
congruence saturation, applying relations in both directions whenever one
side can be subtracted entrywise, bounded by a rewrite depth, an entry cap
and a state cap.  Completeness is explicitly surrendered: every verdict is
Yes with a replayable certificate, No with a statement of the exhausted
search region, or Unknown when a bound cut the search off.  A No never
claims more than the region it searched.

Equality in the cancellative hull is the exception, decided exactly: u and
v agree there iff u - v lies in the lattice L spanned by the relation
differences lhs - rhs, since the hull's Grothendieck group is Z^k / L.
A row echelon basis of L (the Hermite normal form without its reduction
above the pivots; H. Cohen, *A Course in Computational Algebraic Number
Theory*, 1993, section 2.4) decides membership, and either answer carries
a certificate that replays; a Yes's rewrite is shortened by lattice reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, count, groupby, product, repeat
from math import gcd
from operator import add, ge, mul, sub
from typing import Iterable, NamedTuple, Sequence

DEFAULT_DEPTH = 12
DEFAULT_ENTRY_CAP = 20
DEFAULT_N_MAX = 4
DEFAULT_STATE_CAP = 100_000
# the most (x, y) pairs or (n, y) classes an almost-unperforation sweep, or
# elimination, reduction or rewrite steps cancellative_equal, may take; free
# rank 2 at x_cap 30 (923 521 pairs) sweeps in about 0.15 s.  It also bounds
# a presentation's rank.
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
    """Apply certificate steps from ``start``; raises at the first illegal step.

    Along a run of equal steps the walk moves by one delta, so what it holds
    less what a step takes is least at an end of the run: each run is
    checked at its two ends and applied at once.
    """
    cur = tuple(start)
    for (ri, forward), run in groupby(steps):
        n = sum(1 for _ in run)
        lhs, rhs = p.relations[ri]
        take, give = (lhs, rhs) if forward else (rhs, lhs)
        delta = tuple(map(sub, give, take))
        last = vadd(cur, vscale(n - 1, delta))
        if not (all(map(ge, cur, take)) and all(map(ge, last, take))):
            bad = next(w for w in accumulate(repeat(delta, n - 1), vadd, initial=cur) if not all(map(ge, w, take)))
            raise ValueError(f"step ({ri}, {forward}) does not apply to {bad}")
        cur = vadd(last, delta)
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
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> Verdict:
    """Algebraic preorder: is there z with u + z = v?

    Searches the bounded congruence class of v for a member dominating u.
    Any such member decides Yes, with the least z among them, whatever its
    size; No needs the whole class, and Unknown means a bound cut the class
    off before any member dominated u.
    """
    _check_bounds(depth=depth, entry_cap=entry_cap)
    u = _check_vector(p, u)
    v = _check_vector(p, v)
    parents, complete, _ = _saturate(p, v, depth, entry_cap)
    zs = [tuple(map(sub, w, u)) for w in parents if all(map(ge, w, u))]
    region = f"depth {depth}, entry cap {entry_cap}"
    if zs:
        z = min(zs)
        # v's saturation tree reaches u + z from v; reversing it rewrites u + z into v
        path = tuple((ri, not fwd) for ri, fwd in reversed(_path(parents, vadd(u, z))))
        return Verdict(YES, f"z = {z}", Rewrite(z, path))
    if complete:
        return Verdict(
            NO,
            f"class of {v} complete ({len(parents)} elements); no member dominates "
            f"{u} within {region}",
        )
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
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> AupResult:
    """Sweep for (x, y, n) with (n+1)x <= ny yet x not <= y within bounds.

    Reports the first counterexample in (n, x, y) lexicographic order, whose
    Yes and No verdicts both carry their evidence.  A counterexample
    requires the plain leq to fail strongly: the congruence class of y is
    completely enumerated and no member dominates x at all.  A truncated
    search is skipped; it is not a refutation.  So a y whose class is
    incomplete, or dominates every x of the box [0, x_cap]^rank, is dropped
    before any class of ny is saturated; for each remaining y the set of
    box points its class dominates is built once and kept for every n.

    The scaled leq holds within bounds when some member w of the bounded
    class of ny has (n+1)x <= w entrywise, that is when x lies in the box
    0 <= x <= floor(w/(n+1)).  For each n and y the bad x are the union of
    those boxes over the class of ny, less the dominated set.  The least
    (least bad x, y) over all y is the first pair the full (x, y) sweep
    would reach, so no pairs are listed or sorted.
    """
    _check_bounds(n_max, x_cap=x_cap, depth=depth, entry_cap=entry_cap)
    _check_search("(x, y) pairs", (x_cap + 1) ** min(2 * p.rank, 64))
    # each class of ny is saturated once, when the sweep reads it
    _check_search("(n, y) classes", n_max * (x_cap + 1) ** min(p.rank, 64))
    region = f"x,y entries <= {x_cap}, 1 <= n <= {n_max}, depth {depth}, entry cap {entry_cap}"

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
            return range(min(x_cap, a // n1) + 1)

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
                    leq(p, vscale(n + 1, x), vscale(n, y), depth, entry_cap),
                    leq(p, x, y, depth, entry_cap),
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
    entry_cap: int = DEFAULT_ENTRY_CAP,
    m_cap: int = 8,
) -> ProperInfinityResult:
    """Verdict of 2x <= x, plus the least multiple m with 2(mx) <= mx."""
    _check_bounds(depth=depth, entry_cap=entry_cap)
    x = _check_vector(p, x)
    verdict = leq(p, vscale(2, x), x, depth, entry_cap)
    least = None
    mv = None
    for m in range(1, m_cap + 1):
        mx = vscale(m, x)
        got = verdict if m == 1 else leq(p, vscale(2, mx), mx, depth, entry_cap)
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


class LatticeRefutation(NamedTuple):
    """Certificate that u - v lies outside the lattice of relation differences.

    y . (lhs - rhs) = 0 for every relation, yet y . (u - v) != 0, both
    modulo ``modulus`` (over Z when it is 0).  So y . (u - v) is nonzero
    on the hull's Grothendieck group, and no z has u + z = v + z.
    """

    y: Vector
    modulus: int

    def replay(self, p: MonoidPresentation, u: Vector, v: Vector) -> None:
        def dot(a, b) -> int:
            d = sum(map(mul, self.y, map(sub, a, b)))
            return d % self.modulus if self.modulus else d

        assert len(self.y) == p.rank and dot(u, v) and not any(dot(l, r) for l, r in p.relations)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = s*a + t*b = gcd(a, b) > 0, for a and b not both 0."""
    s, s1, t, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s, s1 = s1, s - q * s1
        t, t1 = t1, t - q * t1
    return (a, s, t) if a > 0 else (-a, -s, -t)


def _echelon(p: MonoidPresentation) -> tuple[list, list]:
    """Row echelon basis of the relation differences, and the moves that built it.

    Slot i starts as lhs_i - rhs_i; the relations are inserted one at a
    time.  A slot whose leading column is a pivot's is combined with the
    pivot slot by a unimodular 2x2 move (i, j, a, b, c, e): slot i becomes
    a*slot_i + b*slot_j and slot j becomes c*slot_i + e*slot_j, leaving the
    gcd of the two leading entries in the pivot and 0 in the other.  A slot
    that reaches 0 is dropped.  Returns (basis, moves), basis holding
    (pivot column, row, slot) by increasing pivot column.
    """
    basis: list = []
    moves: list = []
    for i, (lhs, rhs) in enumerate(p.relations):
        r = list(map(sub, lhs, rhs))
        pos = 0
        while any(r):
            lead = next(c for c, x in enumerate(r) if x)
            while pos < len(basis) and basis[pos][0] < lead:
                pos += 1
            if pos == len(basis) or basis[pos][0] > lead:
                basis.insert(pos, (lead, r, i))
                break
            _, h, j = basis[pos]
            a, x = h[lead], r[lead]
            g, s, t = _xgcd(a, x)
            c, e = x // g, -(a // g)  # s*e - t*c = -1
            basis[pos] = (lead, [s * hc + t * rc for hc, rc in zip(h, r)], j)
            r = [c * hc + e * rc for hc, rc in zip(h, r)]
            moves.append((j, i, s, t, c, e))
            pos += 1
    return basis, moves


def _coordinates(basis: list, t: Vector) -> tuple[list, int | None]:
    """Reduce t by the basis rows in order: (mu, stop).

    stop is None when t is in the lattice, t = sum of q * row over the
    (slot, q) pairs of mu.  Otherwise stop is the index of the first row
    whose pivot does not divide what is left of t, or len(basis) when a
    nonzero rest is left.
    """
    r = list(t)
    mu = []
    for i, (col, h, j) in enumerate(basis):
        q, rem = divmod(r[col], h[col])
        if rem:
            return mu, i
        if q:
            r = [rc - q * hc for rc, hc in zip(r, h)]
            mu.append((j, q))
    return mu, (len(basis) if any(r) else None)


def _refutation(basis: list, t: Vector, stop: int) -> LatticeRefutation:
    """The certificate for a t that ``_coordinates`` stopped at row ``stop``.

    Reducing t by every row over Q, kept integral by scaling what is left,
    leaves a rest that is 0 on each pivot column.  When the rest is not 0,
    t lies outside the rational span of the rows: the y in their null space
    with 1 on the rest's first nonzero column, 0 on the other free columns,
    has y . t a nonzero multiple of that entry, a refutation over Z.
    Otherwise t = sum of mu_l * row_l over Q, and mu_stop is not an
    integer.  The rational y with row_l . y = [l == stop] then gives
    y . t = mu_stop, while every relation difference, an integer
    combination of the rows, has an integer product with y.  Scaled by its
    common denominator m, y is a refutation modulo m.
    """

    def solve(y: list, scale: int, j: int | None) -> tuple[list, int]:
        # pivot entries of y with row_l . y = scale * [l == j], multiplying
        # y and scale through to keep every entry an integer
        for l in reversed(range(len(basis))):
            col, h, _ = basis[l]
            num = (scale if l == j else 0) - sum(map(mul, h, y))
            g = gcd(num, h[col])
            a = h[col] // g
            if a != 1:
                y = [x * a for x in y]
                scale *= a
            y[col] = num // g
        return y, scale

    r = list(t)
    for col, h, _ in basis:
        if r[col]:
            g = gcd(r[col], h[col])
            a, b = h[col] // g, r[col] // g
            r = [a * rc - b * hc for rc, hc in zip(r, h)]
    f = next((c for c, x in enumerate(r) if x), None)
    if f is not None:
        y, _ = solve([int(c == f) for c in range(len(t))], 1, None)
        g = gcd(*y) if y[f] > 0 else -gcd(*y)
        return LatticeRefutation(tuple(x // g for x in y), 0)
    y, scale = solve([0] * len(t), 1, stop)
    # y / scale in lowest terms has denominator m
    g = gcd(scale, *y) * (1 if scale > 0 else -1)
    m = scale // g
    return LatticeRefutation(tuple(x // g % m for x in y), m)


def _nearest(lam: list, kernel: list, charge) -> list:
    """lam less a kernel vector near it, by Babai's nearest plane (Combinatorica 6, 1986).

    The kernel rows are LLL-reduced (Lenstra, Lenstra and Lovász, Math. Ann. 261,
    1982; delta = 3/4) in Fractions: mu[i][j] is row i's Gram-Schmidt coefficient
    along orthogonalised row j, B[j] that row's squared length.  lam, the last row,
    is size-reduced but never swapped.  ``charge`` runs once per row operation.
    """
    b, n = [*kernel, lam], len(kernel)
    mu, B = [], []
    for i, r in enumerate(b):
        mu.append([])
        for j in range(i):
            charge()
            mu[i].append((sum(map(mul, r, b[j])) - sum(mu[j][l] * mu[i][l] * B[l] for l in range(j))) / B[j])
        B.append(Fraction(sum(map(mul, r, r))) - sum(x * x * y for x, y in zip(mu[i], B)))
    k = 1
    while k <= n:
        for l in reversed(range(k)):  # size-reduce row k
            q = round(mu[k][l])
            if q:
                charge()
                b[k] = [x - q * y for x, y in zip(b[k], b[l])]
                mu[k][: l + 1] = [x - q * y for x, y in zip(mu[k], mu[l] + [1])]
        t = mu[k][k - 1]
        if k < n and B[k] < (Fraction(3, 4) - t * t) * B[k - 1]:
            # swap rows k - 1 and k (H. Cohen, 1993, algorithm 2.6.3)
            charge()
            s = B[k] + t * t * B[k - 1]
            mu[k - 1], mu[k] = mu[k][: k - 1], mu[k - 1] + [t * B[k - 1] / s]
            B[k - 1], B[k] = s, B[k - 1] * B[k] / s
            b[k - 1], b[k] = b[k], b[k - 1]
            for i in range(k + 1, n + 1):
                mu[i][k - 1], mu[i][k] = mu[i][k], mu[i][k - 1] - t * mu[i][k]
                mu[i][k - 1] += mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            k += 1
    return b[n]


def _lattice_rewrite(p: MonoidPresentation, u: Vector, basis: list, moves: list, mu: list) -> Rewrite:
    """The rewrite of u + z into v + z along short coefficients lambda of u - v != 0.

    Replaying the moves on unit rows carries mu, u - v over the basis slots,
    to lambda and gives the kernel, the dropped slots' rows, whose nearest
    plane lambda moves to; each row operation costs len(relations) reduction
    steps.  The path runs |lambda_i| steps of each relation i by decreasing
    i, forward when lambda_i > 0; z is the least that lets each take its side.
    """
    m = len(p.relations)
    steps = count(m * m, m)  # the unit rows, then m per row operation

    def charge() -> None:
        _check_search("reduction steps", next(steps))

    charge()
    rows = [[int(k == s) for k in range(m)] for s in range(m)]
    for j, i, a, b, c, e in moves:
        charge()
        rj, ri = rows[j], rows[i]
        rows[j], rows[i] = [a * x + b * y for x, y in zip(rj, ri)], [c * x + e * y for x, y in zip(rj, ri)]
    lam = [sum(q * rows[j][k] for j, q in mu) for k in range(m)]
    kept = {slot for _, _, slot in basis}
    if kernel := [r for s, r in enumerate(rows) if s not in kept]:
        lam = _nearest(lam, kernel, charge)
    _check_search("rewrite steps", sum(map(abs, lam)))
    z, w, path = (0,) * p.rank, u, []
    for ri in reversed(range(m)):
        if n := abs(lam[ri]):
            take, give = p.relations[ri] if lam[ri] > 0 else p.relations[ri][::-1]
            delta = tuple(map(sub, give, take))
            last = vadd(w, vscale(n - 1, delta))  # a run's walk moves by delta, so take - w peaks at an end
            z = tuple(map(max, z, map(sub, take, w), map(sub, take, last)))
            w = vadd(last, delta)
            path += [(ri, lam[ri] > 0)] * n
    return Rewrite(z, tuple(path))


def cancellative_equal(p: MonoidPresentation, u: Sequence[int], v: Sequence[int]) -> Verdict:
    """Equality in the cancellative hull: is there z with u + z = v + z?

    Decided exactly by whether u - v lies in the lattice of relation
    differences: outside it No, with a :class:`LatticeRefutation`; inside it
    Yes, with the :class:`Rewrite` that ``_lattice_rewrite`` builds.
    """
    u = _check_vector(p, u)
    v = _check_vector(p, v)
    m = len(p.relations)
    _check_search("elimination steps", m * p.rank * min(m, p.rank))
    basis, moves = _echelon(p)
    diff = tuple(map(sub, u, v))
    mu, stop = _coordinates(basis, diff)
    if stop is not None:
        cert = _refutation(basis, diff, stop)
        modulo = f" modulo {cert.modulus}" if cert.modulus else ""
        return Verdict(
            NO,
            f"u - v = {diff} is outside the lattice of relation differences: "
            f"y = {cert.y} is orthogonal to every difference{modulo} but not to u - v",
            cert,
        )
    cert = _lattice_rewrite(p, u, basis, moves, mu) if mu else Rewrite((0,) * p.rank, ())
    return Verdict(YES, f"z = {cert.z}, built from the lattice coefficients of u - v in {len(cert.path)} steps", cert)
