"""Output checks for the benchmark, run outside the timed region.

Every check raises :class:`WrongAnswer` on a wrong answer or a certificate
that does not replay.  Replays are written out here with explicit tests
rather than through the package's own ``replay`` methods, which use
``assert`` and would vanish under ``python -O``; that also keeps the
evidence independent of the code it judges.
"""

from __future__ import annotations

from fractions import Fraction

from coarse_lab import amenability, monoid


class WrongAnswer(Exception):
    """The program returned an answer that the checks reject."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


def line_dist(x: int, y: int) -> int:
    return abs(x - y)


def tree_dist(a: str, b: str) -> int:
    """Distance between path-string labels ("v", "v0", "v02", ...) of a tree."""
    k = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        k += 1
    return len(a) + len(b) - 2 * k


def stacked_tree_dist(p: tuple, q: tuple) -> int:
    """The column metric over a tree base, from its definition."""
    (x, n), (y, m) = p, q
    return abs(n - m) if x == y else n + m + tree_dist(x, y)


def brute_boundary(points, F, R: int, dist) -> set:
    """Outer R-boundary from the metric alone: no bulk operation involved."""
    F = set(F)
    return {y for y in points if y not in F and any(dist(x, y) <= R for x in F)}


# -- tile -> verify_tiling -> castle_from_tiling -> invariance_defect --------


def check_pipeline(out, window, dist=None) -> None:
    """Partition, report, castle and defect agree with each other.

    Given ``dist``, every tile ratio and diameter is recomputed from the
    metric, independently of the space's bulk operations.
    """
    t, report, castle, defect = out
    core = window.core
    expect(sum(len(tile) for tile in t.tiles) == len(core), "tile sizes do not add up to the core")
    expect(set().union(*t.tiles) == core, "tiles do not cover exactly the core")
    expect(report.passed, "verify_tiling rejected the tiling: " + "; ".join(report.failures[:2]))
    expect(not report.meta_mismatches, f"tile metadata disagrees with replay at {report.meta_mismatches[:5]}")
    expect(report.max_ratio == t.max_ratio(), "report and tiling disagree on the max ratio")
    expect(defect == t.max_ratio(), f"defect {defect} != max clean tile ratio {t.max_ratio()}")
    tiles = set(t.tiles)
    orbits = castle.orbits()
    expect(len(orbits) == len(tiles) and all(frozenset(col) in tiles for col in orbits),
           "castle orbits are not the tiles")
    for tower in castle.towers:
        expect(all(len(col) == tower.height for col in tower.columns), "castle column of wrong height")
    if dist is not None:
        for tile, meta in zip(t.tiles, t.meta):
            bd = brute_boundary(window.space.points, tile, t.R, dist)
            expect(meta.ratio == Fraction(len(bd), len(tile)), "tile ratio differs from the brute-force boundary")
            diam = max((dist(x, y) for x in tile for y in tile), default=0)
            expect(meta.diameter == diam, "tile diameter differs from the brute-force diameter")


def check_interval_tiling(out, window, N: int) -> None:
    """Every tile clear of the halo has length N and ratio exactly 2R/N."""
    check_pipeline(out, window)
    t = out[0]
    interior = [(tile, m) for tile, m in zip(t.tiles, t.meta) if not m.contaminated]
    expect(bool(interior), "no interior tiles")
    for tile, m in interior:
        expect(len(tile) == N, f"interior tile of length {len(tile)} != {N}")
        expect(m.ratio == Fraction(2 * t.R, N), f"interior ratio {m.ratio} != 2R/N")


def check_sparse_tiling(out, window, N: int, brute: bool) -> None:
    """Criterion 2's bound: every tile has diameter at most 2RN."""
    check_pipeline(out, window, line_dist if brute else None)
    t = out[0]
    expect(all(m.diameter <= 2 * t.R * N for m in t.meta), "a tile exceeds diameter 2RN")


def check_stacked_tiling(out, window, S: int, N: int) -> None:
    """Criterion 3: blocks of height N, bottom tiles at ratio <= (S+R)/N."""
    check_pipeline(out, window)
    t = out[0]
    expect(all(len(tile) == N for tile in t.tiles), "a column block is not of height N")
    bottoms = [m for tile, m in zip(t.tiles, t.meta) if any(n == 0 for _, n in tile)]
    expect(len(bottoms) == len(window.space.base.points), "not one bottom tile per column")
    expect(all(m.ratio <= Fraction(S + t.R, N) for m in bottoms), "a bottom tile exceeds (S+R)/N")


def check_box_tiling(out, window, monotile: int) -> None:
    """Criterion 4: X_0 has empty boundary, arcs have the monotile length."""
    check_pipeline(out, window)
    t = out[0]
    expect(not brute_boundary(window.space.points, t.tiles[0], t.R, window.space.dist),
           "X_0 has a nonempty outer boundary")
    for tile, m in zip(t.tiles[1:], t.meta[1:]):
        expect(len(tile) == monotile, "an arc does not have the monotile length")
        expect(m.ratio == Fraction(2 * t.R, monotile), "an arc ratio differs from 2R/|T|")


def check_folner(res, window, dist, R: int, epsilon, budget: int, must_succeed: bool) -> None:
    """The best set lies in the core, off the halo, at the ratio it claims."""
    F = set(res.points)
    expect(bool(F) and F <= window.core, "Folner candidate leaves the core")
    bd = brute_boundary(window.space.points, F, R, dist)
    expect(not bd & window.halo, "Folner candidate is halo-contaminated")
    expect(res.ratio == Fraction(len(bd), len(F)), "Folner ratio does not replay")
    expect(res.success == (res.ratio < epsilon), "success flag contradicts the ratio")
    expect(1 <= res.examined <= budget, f"examined {res.examined} outside [1, {budget}]")
    if must_succeed:
        expect(res.success, "no interval beat 2R/eps although one exists within budget")


# -- fills and doubling -----------------------------------------------------


def check_fill(res, window, dist, coeffs: dict, P: int, norm: int | None = None,
               max_norm: int | None = None) -> None:
    """The filler lives in the window, respects P and bounds the chain on the core."""
    chain = res.chain
    space = window.space
    boundary: dict = {}
    for (x, y), v in chain.coeffs.items():
        expect(x in space and y in space, "filler pair leaves the window")
        expect(dist(x, y) <= P, "filler pair exceeds the propagation bound")
        boundary[y] = boundary.get(y, 0) + v
        boundary[x] = boundary.get(x, 0) - v
    on_core = {p: v for p, v in boundary.items() if p in window.core and v}
    expect(on_core == {p: v for p, v in coeffs.items() if v}, "filler boundary differs from the chain on the core")
    sup = max((abs(v) for v in chain.coeffs.values()), default=0)
    expect(sup == res.norm, f"filler sup norm {sup} != reported norm {res.norm}")
    if norm is not None:
        expect(res.norm == norm, f"fill norm {res.norm} != {norm}")
    if max_norm is not None:
        expect(res.norm <= max_norm, f"fill norm {res.norm} > {max_norm}")


def check_paradox(res, window, dist, F, R: int) -> None:
    """Two injective maps on F, displacement <= R, images disjoint."""
    expect(isinstance(res, amenability.ParadoxWitness), f"expected a doubling witness, got {type(res).__name__}")
    expect(set(res.phi1) == set(F) and set(res.phi2) == set(F), "witness maps are not defined on F")
    images = list(res.phi1.values()) + list(res.phi2.values())
    expect(len(images) == len(set(images)), "witness images collide")
    space = window.space
    for phi in (res.phi1, res.phi2):
        for x, y in phi.items():
            expect(y in space, "witness image leaves the window")
            expect(dist(x, y) <= R, "witness displacement exceeds R")


def check_violator(res, window, dist, F, R: int) -> None:
    """A nonempty S inside F with |B_R(S)| < 2|S|."""
    expect(isinstance(res, amenability.HallViolator), f"expected a Hall violator, got {type(res).__name__}")
    S = set(res.points)
    expect(bool(S) and S <= set(F), "violator is not a nonempty subset of F")
    ball = S | brute_boundary(window.space.points, S, R, dist)
    expect(len(ball) < 2 * len(S), "claimed violator satisfies Hall")


# -- castles ----------------------------------------------------------------


def _columns_partition(c) -> bool:
    atoms = [a for col in c.orbits() for a in col]
    return len(atoms) == len(set(atoms))


def check_compare(res, c, A, B) -> None:
    """A is subequivalent to B iff no orbit holds more of A than of B."""
    expected = all(
        sum(a in A for a in col) <= sum(a in B for a in col) for col in c.orbits()
    )
    expect(res.ok == expected, f"compare says {res.ok}, per-orbit counts say {expected}")
    if not res.ok:
        return
    orbit_of = {a: i for i, col in enumerate(c.orbits()) for a in col}
    sources: list = []
    images: list = []
    for bij in res.witness.bisections:
        expect(len(set(bij.values())) == len(bij), "bisection is not injective")
        expect(all(orbit_of[x] == orbit_of[y] for x, y in bij.items()), "bisection leaves an orbit")
        sources.extend(bij)
        images.extend(bij.values())
    expect(len(sources) == len(set(sources)) and set(sources) == set(A), "sources do not partition A")
    expect(len(images) == len(set(images)) and set(images) <= set(B), "images overlap or leave B")


def check_refine(r, c, targets) -> None:
    """Criterion 6: a valid castle, adapted levels, the same orbits."""
    expect(_columns_partition(r), "refined castle repeats an atom")
    for tower in r.towers:
        expect(all(len(col) == tower.height for col in tower.columns), "refined column of wrong height")
        for j in range(tower.height):
            level = {col[j] for col in tower.columns}
            for tgt in targets:
                expect(level <= tgt or not level & tgt, "a refined level straddles a target")
    expect(sorted(r.orbits()) == sorted(c.orbits()), "refinement changed the orbits")


# -- monoids ----------------------------------------------------------------


class NumericalModel:
    """The numerical semigroup generated by ``gens``; a vector maps to its value."""

    def __init__(self, gens):
        self.gens = tuple(gens)

    def image(self, v):
        return sum(g * a for g, a in zip(self.gens, v))

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        reach = [True] + [False] * n
        for k in range(1, n + 1):
            reach[k] = any(g <= k and reach[k - g] for g in self.gens)
        return reach[n]

    def leq(self, u, v) -> bool:
        return self.contains(self.image(v) - self.image(u))


class LinearModel:
    """A free monoid N^m; ``rows`` sends each generator to a vector of N^m."""

    def __init__(self, rows):
        self.rows = tuple(map(tuple, rows))

    def image(self, v):
        return tuple(sum(r[i] * a for r, a in zip(self.rows, v)) for i in range(len(self.rows[0])))

    def leq(self, u, v) -> bool:
        return all(a <= b for a, b in zip(self.image(u), self.image(v)))


class IdempotentModel:
    """{0, a} with a + a = a."""

    def image(self, v):
        return min(v[0], 1)

    def leq(self, u, v) -> bool:
        return self.image(v) == 1 or self.image(u) == 0


def _replay(p, start, steps, end, what: str) -> None:
    try:
        got = monoid.replay_path(p, tuple(start), steps)
    except ValueError as e:
        raise WrongAnswer(f"{what} does not replay: {e}") from None
    expect(got == tuple(end), f"{what} ends at {got}, not {tuple(end)}")


def check_verdict(v, expected: bool, allow_unknown: bool, what: str) -> None:
    if v.kind == monoid.UNKNOWN:
        expect(allow_unknown, f"{what}: Unknown where the search region is complete")
        return
    expect(v.yes == expected, f"{what}: verdict {v.kind}, model says {expected}")


def check_equal(v, p, model, u, w) -> None:
    check_verdict(v, model.image(u) == model.image(w), False, f"equal{u, w}")
    if v.yes:
        _replay(p, u, v.certificate, w, "equal path")


def check_leq(v, p, model, u, w) -> None:
    check_verdict(v, model.leq(u, w), False, f"leq{u, w}")
    if v.yes:
        cert = v.certificate
        _replay(p, monoid.vadd(u, cert.z), cert.path, w, "leq certificate")


def check_properly_infinite(res, p, model, x) -> None:
    check_leq(res.verdict, p, model, monoid.vscale(2, x), x)
    if res.least_multiple is not None:
        mx = monoid.vscale(res.least_multiple, x)
        check_leq(res.multiple_verdict, p, model, monoid.vscale(2, mx), mx)


def check_cancellative(v, p, model, u, w, equal_in_hull: bool) -> None:
    check_verdict(v, equal_in_hull, True, f"cancellative_equal{u, w}")
    if v.yes:
        z, path = v.certificate
        _replay(p, monoid.vadd(u, z), path, monoid.vadd(w, z), "cancellative certificate")


def check_refinement(res, model, a, b, c, d) -> None:
    expect(res.found, f"no refinement found: {res.detail}")
    w, x, y, z = res.quadruple
    im = model.image
    for s, t, target in ((w, x, a), (y, z, b), (w, y, c), (x, z, d)):
        expect(im(monoid.vadd(s, t)) == im(target), "refinement quadruple does not sum correctly")


def check_aup(res, p, model, expected) -> None:
    """No counterexample where none exists; a found one is replayed."""
    if expected is None:
        expect(not res.found, f"counterexample {res.counterexample} in an unperforated monoid")
        return
    expect(res.found, "no counterexample found")
    ce = res.counterexample
    if expected is not True:
        expect((ce.x, ce.y, ce.n) == expected, f"counterexample {(ce.x, ce.y, ce.n)} != {expected}")
    u, w = monoid.vscale(ce.n + 1, ce.x), monoid.vscale(ce.n, ce.y)
    check_leq(ce.scaled_leq, p, model, u, w)
    expect(ce.plain_leq.no and not model.leq(ce.x, ce.y), "plain leq is not a true No")
