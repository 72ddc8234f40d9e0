"""Command-line front door.

Exit codes separate four situations: 0 means success or a mathematical
pass, 1 means the mathematics said no (a failed verification, a comparison
refusal, a Hall violator, an infeasible fill, a No verdict), 2 means the
invocation itself was wrong (unknown flags, missing files, schema
violations), and 3 means an internal error (any other exception, such as
a certificate that failed to replay), so a crash never reads as a no.
Reports are deterministic JSON with the keys ``tool``, ``version``,
``command``, ``params`` (the parsed options, the command words excepted),
``result``, ``stats`` (``homology-fill`` only) and ``exit_code``: same
config, same bytes.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .amenability import ParadoxWitness, doubling_check, folner_search
from .castle import (
    castle_from_tiling,
    compare,
    invariance_defect,
    refine,
    validate as validate_castle,
)
from .homology import InfeasibleFill, min_norm_fill
from .monoid import (
    DEFAULT_DEPTH,
    DEFAULT_ENTRY_CAP,
    DEFAULT_N_MAX,
    DEFAULT_Z_CAP,
    Rewrite,
    cancellative_equal,
    check_almost_unperforated,
    equal,
    leq,
    properly_infinite,
    refinement_instance,
)
from .serialize import (
    PointCodec,
    SchemaError,
    _check_size,
    _expect,
    _list_of,
    _require,
    atom_list,
    castle_from_dict,
    castle_to_dict,
    dump_json,
    encode_point,
    format_fraction,
    integer_list,
    load_json,
    one_chain_to_dict,
    parse_fraction,
    points_from_arg,
    presentation_from_dict,
    tiling_from_dict,
    tiling_to_dict,
    vector_from_arg,
    window_from_spec,
    zero_chain_from_dict,
)
from .space import ball
from .tiling import (
    tile_box_space,
    tile_interval,
    tile_sparse_subset,
    tile_stacked_product,
    verify_tiling,
)

OK, NEGATIVE, USAGE, INTERNAL = 0, 1, 2, 3


class ArgumentParser(argparse.ArgumentParser):
    """argparse, refusing a command line with one stderr line, like every exit 2."""

    def error(self, message):
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


class Emitter:
    def __init__(self, args):
        self.json_only = args.json
        self.out = args.out
        params = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "json", "out") and v is not None
        }
        # the parsed command words go into "command" and nowhere else
        words = [params.pop(k) for k in ("subcommand", "castle_op", "monoid_op") if k in params]
        self.report = {
            "tool": "coarse-lab",
            "version": __version__,
            "command": " ".join(words),
            "params": params,
        }

    def say(self, line: str):
        if not self.json_only:
            print(line)

    def finish(self, result: dict, code: int, stats: dict | None = None) -> int:
        self.report["result"] = result
        if stats is not None:
            self.report["stats"] = stats
        self.report["exit_code"] = code
        text = dump_json(self.report, self.out)
        if self.json_only:
            print(text)
        return code


def _keys(points) -> list[str]:
    return sorted(map(encode_point, points))


def _written(em: Emitter, payload: dict, path, what: str):
    """The payload for the report, or the path it was written to instead."""
    if not path:
        return payload
    dump_json(payload, path)
    em.say(f"wrote {what} to {path}")
    return path


def _load_window(path):
    return window_from_spec(load_json(path))


def _point_set(args, codec: PointCodec) -> set:
    if args.points:
        return points_from_arg(args.points, codec)
    if args.set:
        keys = _require(load_json(args.set), "points", "point set")
        return {codec.decode(k) for k in _list_of(keys, str, "point set 'points'")}
    raise SchemaError("supply --points or --set")


# -- subcommand handlers ------------------------------------------------------


def cmd_boundary(args, em: Emitter) -> int:
    window = _load_window(args.infile)
    codec = PointCodec(window.space)
    F = _point_set(args, codec)
    bd, contaminated = window.boundary(F, args.R)
    em.say(f"outer {args.R}-boundary has {len(bd)} points"
           + (" (halo-contaminated)" if contaminated else ""))
    return em.finish(
        {
            "boundary": _keys(bd),
            "size": len(bd),
            "halo_contaminated": contaminated,
        },
        OK,
    )


def cmd_ball(args, em: Emitter) -> int:
    window = _load_window(args.infile)
    codec = PointCodec(window.space)
    b = ball(window.space, codec.decode(args.center), args.R)
    em.say(f"ball of radius {args.R} around {args.center} has {len(b)} points")
    return em.finish({"ball": _keys(b), "size": len(b)}, OK)


def cmd_tile(args, em: Emitter) -> int:
    eps = parse_fraction(args.epsilon)
    spec = load_json(args.infile)
    if args.strategy in ("interval", "stack"):
        tiler = tile_interval if args.strategy == "interval" else tile_stacked_product
        t = tiler(window_from_spec(spec), args.R, eps)
    elif args.strategy == "sparse":
        if not isinstance(spec, dict) or "A" not in spec:
            raise SchemaError("sparse tiling input needs an 'A' list")
        prefix = _expect(spec.get("prefix_of_unbounded", False), bool, "sparse 'prefix_of_unbounded'")
        t = tile_sparse_subset(integer_list(spec["A"], "subset 'A'"), args.R, eps, prefix)
    else:
        box = spec.get("box", spec) if isinstance(spec, dict) else None
        if not isinstance(box, dict) or not box.get("moduli"):
            raise SchemaError("box tiling input needs 'moduli'")
        moduli = integer_list(box["moduli"], "box 'moduli'")
        _check_size("box", sum(moduli))
        t = tile_box_space(moduli, args.R, eps)
        spec = {"box": {"moduli": moduli}}
    tiling = _written(em, tiling_to_dict(t, space_spec=spec), args.tiling_out, f"tiling with {len(t.tiles)} tiles")
    em.say(
        f"{len(t.tiles)} tiles, max clean ratio {format_fraction(t.max_ratio())}, "
        f"diameter bound {t.diameter_bound}"
    )
    return em.finish(
        {
            "tiles": len(t.tiles),
            "max_ratio": format_fraction(t.max_ratio()),
            "diameter_bound": t.diameter_bound,
            "notes": t.notes,
            "tiling": tiling,
        },
        OK,
    )


def _load_tiling(args):
    data = load_json(args.infile)
    window = _load_window(args.space) if args.space else None
    return tiling_from_dict(data, window)


def cmd_verify_tiling(args, em: Emitter) -> int:
    t = _load_tiling(args)
    report = verify_tiling(t)
    em.say(
        ("PASS" if report.passed else "FAIL")
        + f": max clean ratio {format_fraction(report.max_ratio)} vs epsilon "
        + format_fraction(t.epsilon)
    )
    for f in report.failures:
        em.say("  " + f)
    result = {
        "passed": report.passed,
        "max_ratio": format_fraction(report.max_ratio),
        "max_diameter": report.max_diameter,
        "failures": report.failures,
        "meta_mismatches": report.meta_mismatches,
        "tiles": [
            {
                "index": tr.index,
                "size": tr.size,
                "ratio": format_fraction(tr.ratio),
                "diameter": tr.diameter,
                "contaminated": tr.contaminated,
            }
            for tr in report.tiles
        ],
    }
    return em.finish(result, OK if report.passed else NEGATIVE)


def cmd_folner(args, em: Emitter) -> int:
    window = _load_window(args.infile)
    res = folner_search(
        window, args.R, parse_fraction(args.epsilon), args.strategy, args.budget
    )
    em.say(
        f"best of {res.examined} candidates: {len(res.points)} points at ratio "
        f"{format_fraction(res.ratio)} ({'success' if res.success else 'no witness found'})"
    )
    return em.finish(
        {
            "success": res.success,
            "ratio": format_fraction(res.ratio),
            "size": len(res.points),
            "points": _keys(res.points),
            "examined": res.examined,
        },
        OK if res.success else NEGATIVE,
    )


def cmd_paradox(args, em: Emitter) -> int:
    window = _load_window(args.infile)
    codec = PointCodec(window.space)
    F = _point_set(args, codec)
    res = doubling_check(window, F, args.R)
    if isinstance(res, ParadoxWitness):
        res.replay(window)
        em.say(f"witness: two disjoint {args.R}-translates of {len(F)} points")
        return em.finish(
            {
                "outcome": "witness",
                "phi1": {encode_point(x): encode_point(y) for x, y in res.phi1.items()},
                "phi2": {encode_point(x): encode_point(y) for x, y in res.phi2.items()},
            },
            OK,
        )
    res.replay(window)
    em.say(f"Hall violator of {len(res.points)} points: doubling impossible")
    return em.finish({"outcome": "violator", "points": _keys(res.points)}, NEGATIVE)


def cmd_homology_fill(args, em: Emitter) -> int:
    window = _load_window(args.infile)
    codec = PointCodec(window.space)
    c = zero_chain_from_dict(load_json(args.chain), codec)
    try:
        res = min_norm_fill(window, c, args.P)
    except InfeasibleFill as e:
        em.say(f"infeasible: {e}")
        return em.finish(
            {
                "outcome": "infeasible",
                "component": _keys(e.component),
                "component_total": e.total,
            },
            NEGATIVE,
        )
    em.say(f"filled with sup norm {res.norm} on {len(res.chain.coeffs)} pairs")
    return em.finish(
        {"outcome": "filled", "norm": res.norm, "chain": one_chain_to_dict(res.chain)},
        OK,
        {"solves": res.solves, "nodes": res.nodes, "arcs": res.arcs},
    )


def _load_castle(args, codec=None):
    return castle_from_dict(load_json(args.infile), codec)


def cmd_castle_validate(args, em: Emitter) -> int:
    violations = validate_castle(_load_castle(args))
    for v in violations:
        em.say("violation: " + v)
    if not violations:
        em.say("castle is valid")
    return em.finish(
        {"ok": not violations, "violations": violations},
        OK if not violations else NEGATIVE,
    )


def cmd_castle_refine(args, em: Emitter) -> int:
    c = _load_castle(args)
    targets = _expect(_require(load_json(args.targets), "targets", "targets file"), list, "'targets'")
    r = refine(c, [atom_list(t, f"target {i}") for i, t in enumerate(targets)])
    castle = _written(em, castle_to_dict(r), args.castle_out, "refined castle")
    em.say(f"{len(c.towers)} towers refined into {len(r.towers)}")
    return em.finish({"towers": len(r.towers), "castle": castle}, OK)


def cmd_castle_compare(args, em: Emitter) -> int:
    c = _load_castle(args)
    names = [[k for k in map(str.strip, text.split(",")) if k] for text in (args.A, args.B)]
    wanted = {k for ks in names for k in ks}
    # keep only the named atoms: a castle may hold 10^6 of them
    atoms: dict = {}
    for a in c.atoms():
        if str(a) in wanted:
            atoms.setdefault(str(a), []).append(a)

    def decode(k):
        if k not in atoms:
            raise SchemaError(f"unknown atom {k!r}")
        if len(atoms[k]) > 1:
            raise SchemaError(f"ambiguous atom {k!r}: {len(atoms[k])} atoms have this name")
        return atoms[k][0]

    A, B = [set(map(decode, ks)) for ks in names]
    res = compare(c, A, B)
    if res.ok:
        res.witness.replay(A, B)
        em.say(f"subequivalent: {len(res.witness.bisections)} level bisections")
        return em.finish(
            {"ok": True, "bisections": [{str(k): str(v) for k, v in b.items()} for b in res.witness.bisections]},
            OK,
        )
    ref = res.refusal
    em.say(
        f"refusal at tower {ref.tower_index}: {ref.a_levels} source levels vs "
        f"{ref.b_levels} target levels"
    )
    return em.finish(
        {"ok": False, "tower": ref.tower_index, "a_levels": ref.a_levels, "b_levels": ref.b_levels},
        NEGATIVE,
    )


def cmd_castle_defect(args, em: Emitter) -> int:
    window = _load_window(args.space)
    c = _load_castle(args, PointCodec(window.space))
    d = invariance_defect(c, window, args.R)
    em.say(f"invariance defect at R={args.R}: {format_fraction(d)}")
    return em.finish({"defect": format_fraction(d)}, OK)


def cmd_castle_from_tiling(args, em: Emitter) -> int:
    t = _load_tiling(args)
    c = castle_from_tiling(t)
    castle = _written(em, castle_to_dict(c), args.castle_out, "castle")
    em.say(f"{len(c.towers)} towers over {len(c.atoms())} atoms")
    return em.finish({"towers": len(c.towers), "castle": castle}, OK)


def _verdict_result(v) -> dict:
    """JSON form of a verdict: ``equal`` certifies by a rewrite path, the others by a :class:`Rewrite`."""
    out = {"verdict": v.kind, "detail": v.detail}
    path = v.certificate
    if isinstance(path, Rewrite):
        out["z"] = list(path.z)
        path = path.path
    if path is not None:
        out["path"] = [[ri, fwd] for ri, fwd in path]
    return out


def cmd_monoid(args, em: Emitter) -> int:
    p = presentation_from_dict(load_json(args.infile))
    op = args.monoid_op
    depth, cap = args.depth, args.cap
    if op in ("equal", "leq", "canc"):
        u, v = vector_from_arg(args.u), vector_from_arg(args.v)
        if op == "equal":
            got = equal(p, u, v, depth, cap)
        else:
            got = (leq if op == "leq" else cancellative_equal)(p, u, v, depth, args.zcap, cap)
        em.say(f"{got.kind}: {got.detail}")
        return em.finish(_verdict_result(got), OK if got.yes else NEGATIVE)
    if op == "aup":
        res = check_almost_unperforated(p, args.xcap, args.nmax, depth, args.zcap, cap)
        if res.found:
            ce = res.counterexample
            em.say(
                f"counterexample: x={list(ce.x)} y={list(ce.y)} n={ce.n}: "
                f"(n+1)x <= ny holds yet x <= y fails"
            )
            return em.finish(
                {
                    "found": True,
                    "x": list(ce.x),
                    "y": list(ce.y),
                    "n": ce.n,
                    "scaled_leq": _verdict_result(ce.scaled_leq),
                    "plain_leq": _verdict_result(ce.plain_leq),
                    "region": res.region,
                },
                NEGATIVE,
            )
        em.say(f"no counterexample within bounds ({res.region})")
        return em.finish({"found": False, "region": res.region}, OK)
    if op == "pinf":
        res = properly_infinite(p, vector_from_arg(args.x), depth, args.zcap, cap)
        em.say(f"2x <= x: {res.verdict.kind}; least doubling multiple: {res.least_multiple}")
        return em.finish(
            {
                "verdict": _verdict_result(res.verdict),
                "least_multiple": res.least_multiple,
            },
            OK if res.verdict.yes else NEGATIVE,
        )
    # refine, the last operation
    res = refinement_instance(p, *map(vector_from_arg, (args.a, args.b, args.c, args.d)), depth, cap)
    if res.found:
        w, x, y, z = res.quadruple
        em.say(f"refinement: w={list(w)} x={list(x)} y={list(y)} z={list(z)}")
        return em.finish(
            {"found": True, "w": list(w), "x": list(x), "y": list(y), "z": list(z)},
            OK,
        )
    em.say(f"not found: {res.detail}")
    return em.finish({"found": False, "detail": res.detail}, NEGATIVE)


def cmd_selftest(args, em: Emitter) -> int:
    # imported here, so that every other subcommand's cold run skips the criteria module
    from .acceptance import CRITERIA, run_criteria

    numbers = None
    if args.criteria:
        numbers = [int(x) for x in args.criteria.split(",")]
        for n in numbers:
            if n not in CRITERIA:
                raise SchemaError(f"no criterion {n}")
    results = run_criteria(numbers)
    for r in results:
        em.say(r.line())
        for f in r.failures:
            em.say("    ! " + f)
    ok = all(r.passed for r in results)
    return em.finish(
        {
            "passed": ok,
            "criteria": [
                {
                    "number": r.number,
                    "title": r.title,
                    "passed": r.passed,
                    "elapsed_s": round(r.elapsed, 3),
                    "budget_s": r.budget,
                    "headroom_s": None if r.budget is None else round(r.budget - r.elapsed, 3),
                    "details": r.details,
                    "failures": r.failures,
                }
                for r in results
            ],
        },
        OK if ok else NEGATIVE,
    )


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = ArgumentParser(
        prog="coarse-lab",
        description="Folner tilings, castles, type-semigroup checks and "
        "boundary filling on finite metric windows.",
    )
    top.add_argument("--json", action="store_true", help="machine output only")
    top.add_argument("--out", help="write the JSON report to this path")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        return p

    p = add("boundary", cmd_boundary, help="outer R-boundary of a point set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--points", help="comma-separated point keys")
    p.add_argument("--set", help="JSON file with a 'points' list")
    p.add_argument("--R", type=int, required=True)

    p = add("ball", cmd_ball, help="closed ball around a point")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--center", required=True)
    p.add_argument("--R", type=int, required=True)

    p = add("tile", cmd_tile, help="construct a tiling")
    p.add_argument("--strategy", choices=["interval", "sparse", "stack", "box"], required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="tiling_out", help="tiling JSON destination")

    p = add("verify-tiling", cmd_verify_tiling, help="replay a tiling's claims")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--space", help="window file when the tiling has no embedded space")

    p = add("folner", cmd_folner, help="bounded search for an invariant set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--strategy", choices=["balls", "intervals", "greedy"], default="balls")
    p.add_argument("--budget", type=int, default=200)

    p = add("paradox", cmd_paradox, help="doubling check: witness or violator")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--points", help="comma-separated point keys")
    p.add_argument("--set", help="JSON file with a 'points' list")
    p.add_argument("--R", type=int, required=True)

    p = add("homology-fill", cmd_homology_fill, help="minimum sup-norm boundary fill")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--P", type=int, required=True)

    castle = sub.add_parser("castle", help="castle operations")
    csub = castle.add_subparsers(dest="castle_op", required=True)

    def addc(name, handler):
        p = csub.add_parser(name)
        p.set_defaults(func=handler)
        p.add_argument("--in", dest="infile", required=True)
        return p

    addc("validate", cmd_castle_validate)
    p = addc("refine", cmd_castle_refine)
    p.add_argument("--targets", required=True, help="JSON file with a 'targets' list")
    p.add_argument("--out", dest="castle_out")
    p = addc("compare", cmd_castle_compare)
    p.add_argument("--A", required=True, help="comma-separated atoms")
    p.add_argument("--B", required=True, help="comma-separated atoms")
    p = addc("defect", cmd_castle_defect)
    p.add_argument("--space", required=True)
    p.add_argument("--R", type=int, required=True)
    p = addc("from-tiling", cmd_castle_from_tiling)
    p.add_argument("--space", help="window file when the tiling has no embedded space")
    p.add_argument("--out", dest="castle_out")

    monoid = sub.add_parser("monoid", help="bounded monoid decision procedures")
    msub = monoid.add_subparsers(dest="monoid_op", required=True)
    for name in ("equal", "leq", "aup", "pinf", "refine", "canc"):
        p = msub.add_parser(name)
        p.set_defaults(func=cmd_monoid)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
        p.add_argument("--cap", type=int, default=DEFAULT_ENTRY_CAP)
        if name in ("leq", "aup", "pinf", "canc"):  # the searches that add a z
            p.add_argument("--zcap", type=int, default=DEFAULT_Z_CAP)
        if name in ("equal", "leq", "canc"):
            p.add_argument("--u", required=True)
            p.add_argument("--v", required=True)
        if name == "aup":
            p.add_argument("--xcap", type=int, default=8)
            p.add_argument("--nmax", type=int, default=DEFAULT_N_MAX)
        if name == "pinf":
            p.add_argument("--x", required=True)
        if name == "refine":
            for flag in ("a", "b", "c", "d"):
                p.add_argument(f"--{flag}", required=True)

    p = add("selftest", cmd_selftest, help="run the acceptance criteria")
    p.add_argument("--criteria", help="comma-separated criterion numbers")

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, Emitter(args))
    # SchemaError and PartitionError are ValueErrors; an OSError is a path
    # that cannot be read or written (missing, a directory, no permission)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
