"""The CLI corpus: every subcommand and every castle and monoid operation, run on fixed inputs.

``tests/golden/cli-corpus.txt`` pins each call's exit code, ``--json``
report and human lines byte for byte; it is the only file that pins report
bytes.  ``tests/test_cli.py`` compares it block by block and
``tests/test_fuzz.py`` changes one value of one call at a time.  This module
needs the standard library only, so the fuzzer runs without pytest.

After a deliberate change to the reports, rewrite the golden from a scratch
directory (the calls write their input files into the current directory):

    cd "$(mktemp -d)" && PYTHONPATH=<repo>/src python <repo>/tests/cli_corpus.py

The script takes no arguments: given any, ``--help`` included, it prints a
usage line to stderr, exits 2 and writes nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

from coarse_lab.cli import main
from coarse_lab.space import regular_tree_window

GOLDEN = Path(__file__).parent / "golden" / "cli-corpus.txt"

FILES = {
    "line.json": {"interval": {"lo": -30, "hi": 30, "halo_depth": 3}},
    "tree.json": {"tree": {"degree": 3, "core_depth": 4, "halo_depth": 2}},
    "graph.json": {
        "vertices": ["a", "b", "c", "d", "e"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]],
        "core": ["b", "c", "d"],
        "halo_depth": 1,
    },
    "cycle.json": {  # two shortest routes between opposite points
        "vertices": [f"p{i}" for i in range(6)],
        "edges": [[f"p{i}", f"p{(i + 1) % 6}"] for i in range(6)],
    },
    "subset.json": {"A": list(range(0, 12)) + list(range(40, 52))},
    # the final run may continue past the truncation: its two tiles are flagged
    "subset-prefix.json": {
        "A": list(range(0, 12)) + [20, 21, 23] + list(range(40, 53)),
        "prefix_of_unbounded": True,
    },
    "towers.json": {
        "towers": [
            {"height": 3, "columns": [["a0", "a1", "a2"], ["b0", "b1", "b2"]]},
            {"height": 2, "columns": [["c0", "c1"]]},
        ]
    },
    "targets.json": {"targets": [["a0", "b1", "c0"], ["a2", "c1"]]},
    "num23.json": {"rank": 2, "relations": [[[3, 0], [0, 2]]]},
    "idem.json": {"rank": 1, "relations": [[[2], [1]]]},
    "tree-chain.json": {"coeffs": {"v0": 1, "v10": 2, "v211": -1}},
    "closed-chain.json": {"coeffs": {"3": 1, "4": 1}},
    "cycle-chain.json": {"coeffs": {"p0": 1, "p3": -1}},
    # flows on a long path, a line with a halo (the exit node carries mass at
    # P = 2) and a tree; doubling witnesses and violators; greedy Følner
    # searches on a line, a tree and a column space over a path
    "homology-fill-dipole-window.json": {"vertices": list(range(40)), "edges": [[i, i + 1] for i in range(39)]},
    "homology-fill-dipole-chain.json": {"coeffs": {"0": 1, "39": -1}},
    "homology-fill-line-halo-window.json": {"interval": {"lo": -8, "hi": 8, "halo_depth": 2}},
    "homology-fill-line-halo-chain.json": {"coeffs": {"-6": 2, "-1": 4, "0": 3, "1": 4, "3": -1, "7": 1}},
    "homology-fill-tree-window.json": {"tree": {"degree": 3, "core_depth": 3, "halo_depth": 1}},
    "homology-fill-tree-chain.json": {"coeffs": {p: 1 for p in sorted(regular_tree_window(3, 3, 1).core)}},
    "paradox-witness-window.json": {"tree": {"degree": 3, "core_depth": 5, "halo_depth": 2}},
    "paradox-violator-window.json": {"interval": {"lo": -10, "hi": 10, "halo_depth": 2}},
    "folner-greedy-line-window.json": {"interval": {"lo": -30, "hi": 30, "halo_depth": 3}},
    "folner-greedy-tree-window.json": {"tree": {"degree": 3, "core_depth": 4, "halo_depth": 2}},
    "folner-greedy-stacked-window.json": {
        "stack": {
            "base": {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["c", "d"]]},
            "K": 12,
            "halo_depth": 3,
        }
    },
    # the orbit {10} is a halo point: the window shows it the boundary {9},
    # the ambient line {9, 11}, so the defect skips it and reads 1/2
    "castle-defect-halo-window.json": {"interval": {"lo": 0, "hi": 9, "halo_depth": 1}},
    "castle-defect-halo-castle.json": {
        "towers": [{"height": 1, "columns": [["10"]]}, {"height": 4, "columns": [["3", "4", "5", "6"]]}]
    },
}

# in order: a call may read a file that an earlier one wrote (--out)
CALLS = [
    ["boundary", "--in", "tree.json", "--points", "v,v0,v11", "--R", "1"],
    ["ball", "--in", "graph.json", "--center", "c", "--R", "1"],
    ["tile", "--strategy", "sparse", "--R", "1", "--epsilon", "1/2",
     "--in", "subset.json", "--out", "tiling.json"],
    ["verify-tiling", "--in", "tiling.json"],
    ["folner", "--in", "tree.json", "--R", "1", "--epsilon", "1/2",
     "--strategy", "greedy", "--budget", "20"],
    ["paradox", "--in", "tree.json", "--points", "v,v0,v1,v2,v00", "--R", "1"],
    ["homology-fill", "--in", "tree.json", "--chain", "tree-chain.json", "--P", "2"],
    ["homology-fill", "--in", "subset.json", "--chain", "closed-chain.json", "--P", "1"],
    ["homology-fill", "--in", "cycle.json", "--chain", "cycle-chain.json", "--P", "1"],
    ["castle", "validate", "--in", "towers.json"],
    ["castle", "refine", "--in", "towers.json", "--targets", "targets.json"],
    ["castle", "compare", "--in", "towers.json", "--A", "a0,b0", "--B", "a1,b1,a2,b2,c0"],
    ["castle", "from-tiling", "--in", "tiling.json"],
    ["castle", "from-tiling", "--in", "tiling.json", "--out", "castle.json"],
    ["castle", "defect", "--in", "castle.json", "--space", "subset.json", "--R", "1"],
    ["monoid", "equal", "--in", "num23.json", "--u", "6,0", "--v", "0,4"],
    ["monoid", "leq", "--in", "num23.json", "--u", "1,0", "--v", "0,2"],
    ["monoid", "aup", "--in", "num23.json"],
    ["monoid", "pinf", "--in", "idem.json", "--x", "1"],
    ["monoid", "refine", "--in", "num23.json",
     "--a", "3,0", "--b", "0,2", "--c", "0,2", "--d", "3,0"],
    ["monoid", "refine", "--in", "num23.json",
     "--a", "0,1", "--b", "0,1", "--c", "1,0", "--d", "2,0"],
    ["monoid", "canc", "--in", "num23.json", "--u", "3,0", "--v", "0,2"],
    ["selftest", "--criteria", "9"],
    ["homology-fill", "--chain", "homology-fill-dipole-chain.json", "--P", "1",
     "--in", "homology-fill-dipole-window.json"],
    ["homology-fill", "--chain", "homology-fill-line-halo-chain.json", "--P", "2",
     "--in", "homology-fill-line-halo-window.json"],
    ["homology-fill", "--chain", "homology-fill-tree-chain.json", "--P", "1",
     "--in", "homology-fill-tree-window.json"],
    ["paradox", "--points", "v,v0,v1,v2", "--R", "2", "--in", "paradox-witness-window.json"],
    ["paradox", "--points", "0,1,2,3,4,5,6,7,8,9", "--R", "1", "--in", "paradox-violator-window.json"],
    ["folner", "--strategy", "greedy", "--R", "2", "--epsilon", "1/5", "--budget", "40",
     "--in", "folner-greedy-line-window.json"],
    ["folner", "--strategy", "greedy", "--R", "1", "--epsilon", "1/2", "--budget", "25",
     "--in", "folner-greedy-tree-window.json"],
    ["folner", "--strategy", "greedy", "--R", "2", "--epsilon", "1/2", "--budget", "30",
     "--in", "folner-greedy-stacked-window.json"],
    ["tile", "--strategy", "interval", "--R", "1", "--epsilon", "1/10", "--in", "line.json"],
    ["tile", "--strategy", "sparse", "--R", "1", "--epsilon", "1/2", "--in", "subset-prefix.json"],
    ["castle", "defect", "--in", "castle-defect-halo-castle.json", "--space", "castle-defect-halo-window.json",
     "--R", "1"],
    ["monoid", "canc", "--in", "num23.json", "--u", "1,0", "--v", "0,1"],
]


def blocks() -> list[str]:
    """Write the input files into the current directory and run each call twice.

    A block is the call, its exit code, its ``--json`` report and its human
    lines.  Wall times and headroom under the budgets, the only fields that
    may differ between runs, read 0.
    """
    for name, data in FILES.items():
        Path(name).write_text(json.dumps(data))
    out = []
    for argv in CALLS:
        runs = []
        for mode in (["--json"], []):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*mode, *argv])
            assert stderr.getvalue() == "", stderr.getvalue()
            runs.append((code, stdout.getvalue()))
        (code, report), (human_code, human) = runs
        assert code == human_code
        block = f"$ {' '.join(argv)}\nexit {code}\n{report}--- human\n{human}"
        block = re.sub(r'"(elapsed|headroom)_s": -?[0-9.]+', r'"\1_s": 0', block)
        out.append(re.sub(r"\([0-9.]+s\)$", "(0s)", block, flags=re.M))
    return out


def split(text: str) -> list[str]:
    """A corpus text cut before each ``$`` line; the first piece is what precedes the first call."""
    return re.split(r"^(?=\$ )", text, flags=re.M)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(f"usage: python {sys.argv[0]}  (takes no arguments; rewrites {GOLDEN.name})", file=sys.stderr)
        sys.exit(2)
    GOLDEN.write_text("".join(blocks()))
