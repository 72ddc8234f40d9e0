"""JSON schemas for spaces, windows, tilings, castles, chains, presentations.

Rationals travel as "p/q" strings end to end; points travel as string keys
(pairs joined with "|"), so no verdict ever depends on floating point.
Loaders check the shape of what they read: objects, lists and integers
where the schema puts them, naming the first offending key on failure.
Mathematical invariants (a castle's partition property, say) are checked
by the operations that rely on them, which raise ``ValueError``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import filterfalse
from pathlib import Path

from .castle import Castle, Tower
from .homology import OneChain, ZeroChain
from .monoid import MonoidPresentation, presentation
from .space import (
    FiniteMetricSpace,
    MatrixSpace,
    WindowedSpace,
    box_window,
    build_graph_metric,
    integer_window,
    regular_tree_window,
    stacked_product_window,
    subset_window,
)
from .tiling import TileMeta, Tiling


class SchemaError(ValueError):
    """Input file does not match the documented schema."""


def parse_fraction(text) -> Fraction:
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise SchemaError(f"expected a rational 'p/q' string, got {text!r}")
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"bad rational {text!r}: {e}") from None
    return f


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def encode_point(p) -> str:
    if isinstance(p, tuple):
        return "|".join(str(x) for x in p)
    return str(p)


class PointCodec:
    """Bijection between a space's points and their string keys."""

    def __init__(self, space: FiniteMetricSpace):
        self.key_to_point = {}
        for p in space.points:
            k = encode_point(p)
            if k in self.key_to_point:
                raise SchemaError(f"point keys collide at {k!r}")
            self.key_to_point[k] = p

    def decode(self, key: str):
        if not isinstance(key, str) or key not in self.key_to_point:
            raise SchemaError(f"unknown point key {key!r}")
        return self.key_to_point[key]


_JSON_KINDS = {dict: "an object", list: "a list", int: "an integer", str: "a string", bool: "a boolean"}

# point identifiers: the JSON values a graph or matrix space may name a point by
_POINT_KINDS = (int, str)


def _expect(value, kind: type | tuple[type, ...], context: str):
    """value if its type is exactly kind (or one of kinds), so a float or a bool is no integer."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) not in kinds:
        expected = " or ".join(_JSON_KINDS[k] for k in kinds)
        raise SchemaError(f"{context}: expected {expected}, got {value!r}")
    return value


def _require(obj: dict, key: str, context: str):
    if key not in _expect(obj, dict, context):
        raise SchemaError(f"{context}: missing key {key!r}")
    return obj[key]


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: not valid JSON ({e})") from None
    except RecursionError:
        # no schema nests more than a few levels, so such a file is malformed
        raise SchemaError(f"{path}: JSON nested too deeply to read") from None


def _integer(obj: dict, key: str, context: str, default=None) -> int:
    """obj[key] as an integer; a missing key is an error unless a default is given."""
    if default is None:
        value = _require(obj, key, context)
    else:
        value = _expect(obj, dict, context).get(key, default)
    return _expect(value, int, f"{context} {key!r}")


def _list_of(values, kind, context: str) -> list:
    """values if it is a list whose entries are all of the given kind."""
    for v in _expect(values, list, context):
        _expect(v, kind, f"{context} entry")
    return values


def integer_list(values, context: str) -> list:
    """values if it is a list of integers."""
    return _list_of(values, int, context)


def atom_list(values, context: str) -> list:
    """values if it is a list of castle atoms: any JSON value but a list or an object."""
    for a in _expect(values, list, context):
        if isinstance(a, (list, dict)):
            raise SchemaError(f"{context}: atom {a!r} is not a scalar")
    return values


# the most points a window generated from a few numbers (an interval, a
# tree, a box or a stack) may have; a CLI ball on a 10^6-point interval
# peaks near 0.3 GB resident, and so does one on the largest degree-3 tree
# (786 430 points) or on a 992 970-point stack over a path
MAX_WINDOW_POINTS = 1_000_000

# tree vertices are named by their whole paths, so a degree-2 tree's names
# grow with the square of its depth; at this limit (depth 9 998) a CLI ball
# peaks near 0.12 GB resident, a folner or paradox call, which sorts the
# names' reprs, near 0.22 GB.  A degree-3 tree within the point limit holds
# at most 14 155 777 characters.
_MAX_TREE_NAME_CHARS = 100_000_000


def _check_size(kind: str, points: int) -> None:
    """Refuse a generated window above the point limit before building it."""
    if points > MAX_WINDOW_POINTS:
        raise SchemaError(
            f"{kind} window: {points} points or more, above the limit of {MAX_WINDOW_POINTS}"
        )


def space_from_spec(spec: dict) -> FiniteMetricSpace:
    """Bare space forms: a graph or an explicit matrix; points are JSON integers or strings."""
    if "vertices" in spec:
        edges = _expect(spec.get("edges", []), list, "graph 'edges'")
        for e in edges:
            if len(_list_of(e, _POINT_KINDS, "graph 'edges' pair")) != 2:
                raise SchemaError(f"graph 'edges' pair: expected 2 vertices, got {e!r}")
        return build_graph_metric(_list_of(spec["vertices"], _POINT_KINDS, "graph 'vertices'"), edges)
    if "points" in spec:
        rows = _expect(_require(spec, "matrix", "matrix space"), list, "matrix space 'matrix'")
        for i, row in enumerate(rows):
            integer_list(row, f"matrix space row {i}")
        return MatrixSpace(_list_of(spec["points"], _POINT_KINDS, "matrix space 'points'"), rows)
    raise SchemaError("space: expected 'vertices' or 'points'")


def window_from_spec(spec: dict) -> WindowedSpace:
    """Window forms: graph/matrix plus core, or one of the shorthands.

    Shorthands: {"interval": {lo, hi, halo_depth}}, {"tree": {degree,
    core_depth, halo_depth}}, {"stack": {base, K, halo_depth}},
    {"box": {moduli}}, {"A": [...]} for integer subsets.  Every number in
    a window must be a JSON integer.  The four shorthands that generate
    their points refuse a window of more than MAX_WINDOW_POINTS points.
    """
    _expect(spec, dict, "window")
    if "interval" in spec:
        iv = spec["interval"]
        lo, hi = _integer(iv, "lo", "interval"), _integer(iv, "hi", "interval")
        halo = _integer(iv, "halo_depth", "interval", 0)
        _check_size("interval", hi - lo + 1 + 2 * halo)
        return integer_window(lo, hi, halo)
    if "tree" in spec:
        tr = spec["tree"]
        degree = _integer(tr, "degree", "tree")
        core_depth = _integer(tr, "core_depth", "tree")
        halo = _integer(tr, "halo_depth", "tree", 0)
        total = core_depth + halo
        if degree == 2:
            _check_size("tree", 1 + 2 * total)
            # "v", then two names of k + 1 characters at each depth k
            chars = 1 + total * (total + 3)
            if chars > _MAX_TREE_NAME_CHARS:
                raise SchemaError(
                    f"tree window: {chars} characters of vertex names, above the limit of {_MAX_TREE_NAME_CHARS}"
                )
        elif degree > 2 and total > 0:
            # 1 + degree (1 + (degree - 1) + ... + (degree - 1)^(total - 1)); the
            # first 64 shells already pass the limit
            _check_size("tree", 1 + degree * ((degree - 1) ** min(total, 64) - 1) // (degree - 2))
        return regular_tree_window(degree, core_depth, halo)
    if "stack" in spec:
        st = spec["stack"]
        base = space_from_spec(_expect(_require(st, "base", "stack"), dict, "stack 'base'"))
        K = _integer(st, "K", "stack")
        _check_size("stack", len(base.points) * K)
        depth = st.get("halo_depth")
        return stacked_product_window(
            base, K, None if depth is None else _expect(depth, int, "stack 'halo_depth'")
        )
    if "box" in spec:
        moduli = integer_list(_require(spec["box"], "moduli", "box"), "box 'moduli'")
        _check_size("box", sum(moduli))
        return box_window(moduli)
    if "A" in spec:
        return subset_window(integer_list(spec["A"], "subset 'A'"))
    space = space_from_spec(spec)
    if "core" in spec:
        codec = PointCodec(space)
        core = frozenset(codec.decode(k) for k in _expect(spec["core"], list, "window 'core'"))
        halo = frozenset(filterfalse(core.__contains__, space.points))
        return WindowedSpace(space, core, halo, _integer(spec, "halo_depth", "window", 0))
    pts = frozenset(space.points)
    return WindowedSpace(space, pts, frozenset(), 0)


def tiling_to_dict(t: Tiling, space_spec: dict) -> dict:
    return {
        "R": t.R,
        "epsilon": format_fraction(t.epsilon),
        "tiles": [sorted(encode_point(p) for p in tile) for tile in t.tiles],
        "meta": [
            {
                "ratio": format_fraction(m.ratio),
                "diam": m.diameter,
                "contaminated": m.contaminated,
            }
            for m in t.meta
        ],
        "diameter_bound": t.diameter_bound,
        "notes": t.notes,
        "space": space_spec,
    }


def tiling_from_dict(data: dict, window: WindowedSpace | None = None) -> Tiling:
    _expect(data, dict, "tiling")
    if window is None:
        if "space" not in data:
            raise SchemaError(
                "tiling: no embedded 'space' and no window supplied"
            )
        window = window_from_spec(data["space"])
    codec = PointCodec(window.space)
    tiles = [
        frozenset(codec.decode(k) for k in _expect(tile, list, f"tiling tile {i}"))
        for i, tile in enumerate(_expect(_require(data, "tiles", "tiling"), list, "tiling 'tiles'"))
    ]
    meta = [
        TileMeta(
            ratio=parse_fraction(_require(m, "ratio", "tiling meta")),
            diameter=_integer(m, "diam", "tiling meta"),
            contaminated=_expect(m.get("contaminated", False), bool, "tiling meta 'contaminated'"),
        )
        for m in _expect(data.get("meta", []), list, "tiling 'meta'")
    ]
    diam_bound = _integer(data, "diameter_bound", "tiling", max((m.diameter for m in meta), default=0))
    return Tiling(
        window=window,
        tiles=tiles,
        R=_integer(data, "R", "tiling"),
        epsilon=parse_fraction(_require(data, "epsilon", "tiling")),
        meta=meta,
        diameter_bound=diam_bound,
        notes=_expect(data.get("notes", []), list, "tiling 'notes'"),
    )


def castle_to_dict(c: Castle) -> dict:
    return {
        "towers": [
            {
                "height": t.height,
                "columns": [[encode_point(a) for a in col] for col in t.columns],
            }
            for t in c.towers
        ]
    }


def castle_from_dict(data: dict, codec: PointCodec | None = None) -> Castle:
    """The castle as written; ``castle.validate`` lists its violations."""
    towers = []
    for i, td in enumerate(_expect(_require(data, "towers", "castle"), list, "castle 'towers'")):
        context = f"castle tower {i}"
        height = _expect(_require(td, "height", context), int, f"{context} 'height'")
        cols = _expect(_require(td, "columns", context), list, f"{context} 'columns'")
        decoded = []
        for ci, col in enumerate(cols):
            atom_list(col, f"{context} column {ci}")
            decoded.append(tuple(map(codec.decode, col)) if codec else tuple(col))
        towers.append(Tower(height, tuple(decoded)))
    return Castle(towers)


def presentation_from_dict(data: dict) -> MonoidPresentation:
    rank = _expect(_require(data, "rank", "presentation"), int, "presentation 'rank'")
    rels = _expect(data.get("relations", []), list, "presentation 'relations'")
    for i, r in enumerate(rels):
        if not isinstance(r, list) or len(r) != 2:
            raise SchemaError(f"presentation relation {i}: expected a pair of vectors")
        for side in r:
            for x in _expect(side, list, f"presentation relation {i}"):
                _expect(x, int, f"presentation relation {i} entry")
    try:
        return presentation(rank, rels)
    except ValueError as e:
        raise SchemaError(f"presentation: {e}") from None


def zero_chain_from_dict(data: dict, codec: PointCodec) -> ZeroChain:
    coeffs = _expect(_require(data, "coeffs", "zero chain"), dict, "zero chain 'coeffs'")
    return ZeroChain(
        {codec.decode(k): _expect(v, int, f"zero chain coefficient {k!r}") for k, v in coeffs.items()}
    )


def one_chain_to_dict(h: OneChain) -> dict:
    return {
        "coeffs": {
            f"{encode_point(x)}|{encode_point(y)}": v
            for (x, y), v in sorted(
                h.coeffs.items(), key=lambda kv: (encode_point(kv[0][0]), encode_point(kv[0][1]))
            )
        },
        "P": h.propagation,
    }


def points_from_arg(text: str, codec: PointCodec) -> set:
    """Comma-separated point keys from the command line."""
    return {codec.decode(k.strip()) for k in text.split(",") if k.strip()}


def vector_from_arg(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SchemaError(f"bad vector {text!r}; expected comma-separated integers") from None


def dump_json(data: dict, path=None) -> str:
    text = json.dumps(data, sort_keys=True, indent=2)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
