"""Seeded fuzzing of the command line: no one-value change to a valid input crashes it.

The inputs are the corpus of ``cli_corpus`` (every subcommand and every
castle and monoid operation, with its input files),
plus the tiling strategies it leaves out, a ``--set`` point file, and one
call per monoid operation with every bound it takes given, so each is
changed too.
Each call changes one value of one corpus call: either a JSON value of one
of its input files becomes null, a bool, a float, a small or large integer,
a string, a list or an object, or is deleted with its key; or one flag's
value becomes another of its kind.  The call must then exit 0, 1 or 2,
with a single stderr line on exit 2 and none otherwise.  Exit 3 is a crash.

A longer run, with any seed and number of calls, from any directory; it
needs the standard library only, not pytest:

    PYTHONPATH=src python tests/test_fuzz.py SEED CALLS
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from coarse_lab import cli

import cli_corpus

SEED = 1301
CALLS = 2000

FILES = {
    **cli_corpus.FILES,
    "box.json": {"moduli": [2, 4, 8, 16]},
    "stack.json": {"stack": {"base": {"vertices": ["p", "q"], "edges": [["p", "q"]]}, "K": 12, "halo_depth": 2}},
    "set.json": {"points": ["v", "v0", "v11"]},
    # a line without a halo, where nothing bounds --P
    "line-bare.json": {"interval": {"lo": 0, "hi": 3, "halo_depth": 0}},
    "line-bare-chain.json": {"coeffs": {"0": 1, "1": -2, "3": 1}},
}
# every monoid bound given, so that each one is changed too
BOUNDS = ["--depth", "12", "--cap", "20"]
CALLS_TO_CHANGE = cli_corpus.CALLS + [
    ["tile", "--strategy", "interval", "--R", "1", "--epsilon", "1/2", "--in", "line.json"],
    ["tile", "--strategy", "box", "--R", "1", "--epsilon", "1/3", "--in", "box.json"],
    ["tile", "--strategy", "stack", "--R", "1", "--epsilon", "1/2", "--in", "stack.json"],
    ["boundary", "--in", "tree.json", "--set", "set.json", "--R", "1"],
    ["paradox", "--in", "tree.json", "--set", "set.json", "--R", "1"],
    ["homology-fill", "--in", "line-bare.json", "--chain", "line-bare-chain.json", "--P", "2"],
    ["monoid", "equal", "--in", "num23.json", "--u", "6,0", "--v", "0,4", *BOUNDS],
    ["monoid", "leq", "--in", "num23.json", "--u", "1,0", "--v", "0,2", *BOUNDS],
    ["monoid", "aup", "--in", "num23.json", "--xcap", "3", "--nmax", "2", *BOUNDS],
    ["monoid", "pinf", "--in", "idem.json", "--x", "1", *BOUNDS],
    ["monoid", "refine", "--in", "num23.json", "--a", "3,0", "--b", "0,2", "--c", "0,2", "--d", "3,0", *BOUNDS],
    ["monoid", "canc", "--in", "num23.json", "--u", "3,0", "--v", "0,2"],
]

VALUES = [None, True, False, 0.5, 0, -1, 2 ** 40, -(2 ** 40), "", "x", "1/0", [], [1], {}, {"x": 1}]
DELETE = object()

# flag values: integers argparse accepts, point and vector lists, paths,
# and strategies, each command's own, another command's and none
INT_FLAGS = {"--R", "--P", "--budget", "--depth", "--cap", "--xcap", "--nmax"}
INT_VALUES = ["-1", "0", str(2 ** 40)]
PATH_FLAGS = {"--in", "--chain", "--targets", "--space", "--set", "--out"}
PATH_VALUES = ["missing.json", ".", ""]
TEXT_VALUES = ["", "x", "0", "-1", "1/0", "0,0,0", "1,-1", "v,v", ",", "a0|b0"]
# an empty or a valid criterion list would run the criteria themselves
CRITERIA_VALUES = ["x", "0", "-1", "11", "9,x", ",", " "]
STRATEGY_VALUES = ["interval", "sparse", "stack", "box", "balls", "intervals", "greedy", "", "x"]


def _positions(doc, path=()):
    """Every path into a JSON document, the root's () included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _positions(value, path + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return None if value is DELETE else value
    parent = functools.reduce(lambda d, k: d[k], path[:-1], doc)
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _flag_values(flag: str) -> list:
    if flag in INT_FLAGS:
        return INT_VALUES
    if flag in PATH_FLAGS:
        return PATH_VALUES
    if flag == "--strategy":
        return STRATEGY_VALUES
    return CRITERIA_VALUES if flag == "--criteria" else TEXT_VALUES


def mutations(rng: random.Random, docs: dict, calls: int):
    """(argv, mutated file or None, description) for each call, drawn from the corpus."""
    for _ in range(calls):
        argv = list(rng.choice(CALLS_TO_CHANGE))
        if "--out" in argv:  # leave the corpus's own files as they are
            argv[argv.index("--out") + 1] = "written.json"
        inputs = [i for i, a in enumerate(argv) if a in docs and argv[i - 1] != "--out"]
        flags = [i for i, a in enumerate(argv) if a.startswith("--") and i + 1 < len(argv)]
        if inputs and rng.random() < 0.8:
            i = rng.choice(inputs)
            doc = docs[argv[i]]
            path = rng.choice(list(_positions(doc)))
            value = DELETE if path and rng.random() < 0.15 else rng.choice(VALUES)
            argv[i] = "mutated.json"
            shown = "delete" if value is DELETE else json.dumps(value)
            yield argv, _mutated(doc, path, value), f"{argv[i - 1]} {list(path)} -> {shown}"
        else:
            i = rng.choice(flags)
            argv[i + 1] = rng.choice(_flag_values(argv[i]))
            yield argv, None, f"{argv[i]} -> {argv[i + 1]!r}"


def _call(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refusing the command line
            code = e.code
    return code, err.getvalue()


def fuzz(seed: int, calls: int) -> list[str]:
    """Run the mutated calls in the current directory; the ones that broke the contract."""
    for name, data in FILES.items():
        Path(name).write_text(json.dumps(data))
    for argv in cli_corpus.CALLS:  # the files some calls read are written by earlier ones
        if "--out" in argv:
            assert _call(argv)[0] == 0
    docs = {name: json.loads(Path(name).read_text()) for name in os.listdir(".")}
    bad = []
    parser = functools.cache(cli.build_parser)  # argparse setup dominates a small call
    real, cli.build_parser = cli.build_parser, parser
    try:
        for argv, doc, what in mutations(random.Random(seed), docs, calls):
            if doc is not None:
                Path("mutated.json").write_text(json.dumps(doc))
            code, err = _call(argv)
            if not (code in (0, 1) and err == "" or code == 2 and err.count("\n") == 1 and err.endswith("\n")):
                bad.append(f"exit {code}: {' '.join(argv)} [{what}]: {err.strip()}")
    finally:
        cli.build_parser = real
    return bad


def test_one_value_changes_never_crash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert fuzz(SEED, CALLS) == []


if __name__ == "__main__":
    seed, calls = int(sys.argv[1]), int(sys.argv[2])
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        found = fuzz(seed, calls)
    print("\n".join(found) or f"{calls} calls, no contract broken")
    sys.exit(bool(found))
