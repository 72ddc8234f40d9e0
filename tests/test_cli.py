import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coarse_lab import acceptance, castle, cli, monoid, serialize, space, tiling
from coarse_lab.cli import main
from coarse_lab.monoid import presentation, replay_path

import cli_corpus


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def zwindow(tmp_path):
    return write(
        tmp_path / "window.json",
        {"interval": {"lo": -60, "hi": 60, "halo_depth": 3}},
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tile_then_verify_roundtrip(tmp_path, capsys, zwindow):
    tiling = str(tmp_path / "tiling.json")
    code, out, _ = run(
        capsys,
        "tile", "--strategy", "interval", "--R", "1",
        "--epsilon", "1/10", "--in", zwindow, "--out", tiling,
    )
    assert code == 0
    code, out, _ = run(capsys, "verify-tiling", "--in", tiling)
    assert code == 0
    assert "PASS" in out


def test_tile_roundtrip_all_strategies(tmp_path, capsys):
    cases = [
        ("sparse", {"A": list(range(0, 30)) + list(range(100, 140))}, "1", "1/2"),
        ("box", {"moduli": [2, 4, 8, 16, 32, 64, 128]}, "1", "1/3"),
        (
            "stack",
            {"stack": {"base": {"vertices": ["p"], "edges": []}, "K": 28, "halo_depth": 0}},
            "1",
            "1/2",
        ),
    ]
    for strategy, spec, R, eps in cases:
        infile = write(tmp_path / f"{strategy}.json", spec)
        tiling = str(tmp_path / f"{strategy}_tiling.json")
        code, _, err = run(
            capsys,
            "tile", "--strategy", strategy, "--R", R,
            "--epsilon", eps, "--in", infile, "--out", tiling,
        )
        assert code == 0, (strategy, err)
        code, out, _ = run(capsys, "verify-tiling", "--in", tiling)
        assert code == 0, (strategy, out)


def test_verify_fail_exit_code(tmp_path, capsys):
    window_spec = {"interval": {"lo": 0, "hi": 14, "halo_depth": 2}}
    tiling = write(
        tmp_path / "bad.json",
        {
            "R": 1,
            "epsilon": "2/5",
            "tiles": [[str(i) for i in range(0, 5)],
                      [str(i) for i in range(5, 10)],
                      [str(i) for i in range(10, 15)]],
            "meta": [],
            "diameter_bound": 14,
            "space": window_spec,
        },
    )
    code, out, _ = run(capsys, "verify-tiling", "--in", tiling)
    assert code == 1
    assert "FAIL" in out


def tiling_file(tmp_path, tiles, epsilon="2/5", diameter_bound=14):
    """A tiling of the core 0..14 of an interval window with halo depth 2."""
    return write(
        tmp_path / "tiling.json",
        {
            "R": 1,
            "epsilon": epsilon,
            "tiles": [[str(i) for i in tile] for tile in tiles],
            "meta": [],
            "diameter_bound": diameter_bound,
            "space": {"interval": {"lo": 0, "hi": 14, "halo_depth": 2}},
        },
    )


# exit 2: the input is not a tiling of the core
@pytest.mark.parametrize("tiles, err", [
    ([[], range(15)], "error: empty tile: []\n"),
    ([range(0, 6), range(5, 11), range(10, 15)], "error: tiles overlap: [10, 5]\n"),
    ([range(0, 5), range(5, 10)], "error: core points not covered: [10, 11, 12, 13, 14]\n"),
    ([range(-1, 5), range(5, 10), range(10, 15)], "error: tiles leave the core: [-1]\n"),
    ([list(range(15)) + [99]], "error: unknown point key '99'\n"),
], ids=["empty-tile", "overlap", "uncovered-core", "halo-point", "unknown-point"])
def test_verify_non_partition_exits_2(tmp_path, capsys, tiles, err):
    code, out, got = run(capsys, "--json", "verify-tiling", "--in", tiling_file(tmp_path, tiles))
    assert (code, out, got) == (2, "", err)


# exit 1: a partition of the core that fails epsilon or the diameter bound
@pytest.mark.parametrize("epsilon, bound, failures", [
    ("2/5", 14, ["tile 1: ratio 2/5 is not strictly below 2/5"]),
    ("1/2", 3, [f"tile {i}: diameter 4 exceeds declared bound 3" for i in range(3)]),
], ids=["epsilon", "diameter"])
def test_verify_failed_partition_exits_1(tmp_path, capsys, epsilon, bound, failures):
    tiles = [range(0, 5), range(5, 10), range(10, 15)]
    code, out, err = run(
        capsys, "--json", "verify-tiling", "--in", tiling_file(tmp_path, tiles, epsilon, bound)
    )
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["exit_code"] == 1
    assert report["result"] == {
        "failures": failures,
        "max_diameter": 4,
        "max_ratio": "2/5",
        "meta_mismatches": [],
        "passed": False,
        "tiles": [
            {"contaminated": i != 1, "diameter": 4, "index": i, "ratio": "2/5", "size": 5}
            for i in range(3)
        ],
    }


def test_missing_input_file_is_usage_error(capsys):
    code, _, err = run(capsys, "ball", "--in", "no_such_file.json", "--center", "0", "--R", "1")
    assert code == 2
    assert "error" in err


def test_bad_epsilon_is_usage_error(capsys, zwindow):
    code, _, err = run(
        capsys,
        "tile", "--strategy", "interval", "--R", "1",
        "--epsilon", "3/0", "--in", zwindow,
    )
    assert code == 2
    assert "3/0" in err


def test_castle_file_with_duplicate_atom(tmp_path, capsys):
    castle = write(
        tmp_path / "castle.json",
        {"towers": [{"height": 2, "columns": [["a", "c"], ["a", "d"]]}]},
    )
    code, _, out = run(capsys, "castle", "validate", "--in", castle)
    assert code == 1


def test_castle_compare_refusal_names_tower(tmp_path, capsys):
    castle = write(
        tmp_path / "castle.json",
        {
            "towers": [
                {"height": 3, "columns": [["a0", "a1", "a2"], ["b0", "b1", "b2"]]},
                {"height": 2, "columns": [["c0", "c1"]]},
            ]
        },
    )
    code, out, _ = run(
        capsys,
        "castle", "compare", "--in", castle,
        "--A", "a1,b1,a2,b2,c0", "--B", "a0,b0",
    )
    assert code == 1
    assert "tower 0" in out


def test_castle_compare_witness(tmp_path, capsys):
    castle = write(
        tmp_path / "castle.json",
        {
            "towers": [
                {"height": 3, "columns": [["a0", "a1", "a2"], ["b0", "b1", "b2"]]},
                {"height": 2, "columns": [["c0", "c1"]]},
            ]
        },
    )
    code, out, _ = run(
        capsys,
        "castle", "compare", "--in", castle,
        "--A", "a0,b0", "--B", "a1,b1,a2,b2,c0",
    )
    assert code == 0
    assert "subequivalent" in out


TOWERS = [
    {"height": 3, "columns": [["a0", "a1", "a2"], ["b0", "b1", "b2"]]},
    {"height": 2, "columns": [["c0", "c1"]]},
]


@pytest.mark.parametrize(
    "castle, err",
    [
        ({"towers": [5]}, "castle tower 0: expected an object, got 5"),
        ({"towers": 5}, "castle 'towers': expected a list, got 5"),
        ({"towers": [{"height": 1, "columns": "a"}]}, "castle tower 0 'columns': expected a list"),
        ({"towers": [{"height": 1, "columns": ["a"]}]}, "castle tower 0 column 0: expected a list"),
        ({"towers": [{"height": 1, "columns": [[["a"]]]}]}, "atom ['a'] is not a scalar"),
        ({"towers": [{"height": 1.0, "columns": [["a"]]}]}, "castle tower 0 'height': expected an integer"),
        ([TOWERS], "castle: expected an object"),
        ({"towers": [{"columns": [["a"]]}]}, "castle tower 0: missing key 'height'"),
        ({"towers": [TOWERS[0], {"columns": [["c0", "c1"]]}]}, "castle tower 1: missing key 'height'"),
    ],
)
@pytest.mark.parametrize("op", [["validate"], ["compare", "--A", "a0", "--B", "a1"]])
def test_malformed_castle_is_a_schema_error(tmp_path, capsys, castle, err, op):
    path = write(tmp_path / "castle.json", castle)
    code, out, stderr = run(capsys, "castle", op[0], "--in", path, *op[1:])
    assert (code, out) == (2, "")
    assert err in stderr


@pytest.mark.parametrize(
    "targets, err",
    [
        ({"targets": 5}, "error: 'targets': expected a list, got 5"),
        ({"targets": [["a0"], 5]}, "error: target 1: expected a list, got 5"),
        ({"targets": [["a0", ["a1"]]]}, "error: target 0: atom ['a1'] is not a scalar"),
        ({"targets": [[{"a": 1}]]}, "error: target 0: atom {'a': 1} is not a scalar"),
    ],
)
def test_malformed_targets_are_a_schema_error(tmp_path, capsys, targets, err):
    castle = write(tmp_path / "castle.json", {"towers": TOWERS})
    path = write(tmp_path / "targets.json", targets)
    code, out, stderr = run(capsys, "castle", "refine", "--in", castle, "--targets", path)
    assert (code, out, stderr) == (2, "", err + "\n")


def test_castle_refine_target_with_a_repeated_atom_refines_as_its_set(tmp_path, capsys):
    castle = write(tmp_path / "castle.json", {"towers": TOWERS})
    refined = []
    for targets in ([["a0", "b1", "a0"], ["c0", "c0"]], [["a0", "b1"], ["c0"]]):
        path = write(tmp_path / "targets.json", {"targets": targets})
        out_path = tmp_path / f"refined{len(refined)}.json"
        code, _, err = run(capsys, "castle", "refine", "--in", castle, "--targets", path, "--out", str(out_path))
        assert (code, err) == (0, "")
        refined.append(out_path.read_text())
    assert refined[0] == refined[1]
    # the targets split tower 0's two columns apart
    assert len(json.loads(refined[0])["towers"]) == 3


def test_castle_compare_refuses_an_ambiguous_atom_name(tmp_path, capsys):
    # atoms 1 and "1" are distinct, so the name 1 cannot pick one of them
    castle = write(tmp_path / "castle.json", {"towers": [{"height": 1, "columns": [[1], ["1"], ["x"]]}]})
    assert run(capsys, "castle", "validate", "--in", castle)[0] == 0
    for A, B in (("1", "x"), ("x", "1")):
        code, out, err = run(capsys, "castle", "compare", "--in", castle, "--A", A, "--B", B)
        assert (code, out) == (2, "")
        assert err == "error: ambiguous atom '1': 2 atoms have this name\n"
    # names that are not shared resolve as before
    code, out, _ = run(capsys, "--json", "castle", "compare", "--in", castle, "--A", "x", "--B", "x")
    assert code == 0
    assert json.loads(out)["result"]["bisections"] == [{"x": "x"}]


def test_castle_compare_skips_empty_names_and_refuses_unknown_atoms(tmp_path, capsys):
    castle = write(tmp_path / "castle.json", {"towers": [{"height": 1, "columns": [["x"]]}]})
    code, out, _ = run(capsys, "--json", "castle", "compare", "--in", castle, "--A", ",x", "--B", "x,")
    assert code == 0
    assert json.loads(out)["result"]["bisections"] == [{"x": "x"}]
    code, out, err = run(capsys, "castle", "compare", "--in", castle, "--A", ",nope", "--B", "x")
    assert (code, out, err) == (2, "", "error: unknown atom 'nope'\n")


def test_castle_compare_refuses_the_first_bad_name_in_a_then_b_order(tmp_path, capsys):
    castle = write(tmp_path / "castle.json", {"towers": [{"height": 1, "columns": [[1], ["1"], ["x"], ["y"]]}]})
    ambiguous = "error: ambiguous atom '1': 2 atoms have this name\n"
    unknown = "error: unknown atom 'nope'\n"
    for A, B, err in (
        ("x,1", "nope", ambiguous),
        ("x,nope", "1", unknown),
        ("nope,1", "x", unknown),
        ("x", "1,nope", ambiguous),
        ("x", "y,nope,1", unknown),
        # a bad name in both lists is refused at its place in --A
        ("1", "1,nope", ambiguous),
        ("nope", "1,nope", unknown),
    ):
        assert run(capsys, "castle", "compare", "--in", castle, "--A", A, "--B", B) == (2, "", err)
    # a good name in both lists, or twice in one, names one atom
    code, out, _ = run(capsys, "--json", "castle", "compare", "--in", castle, "--A", "x,x", "--B", "y,x")
    assert code == 0
    assert json.loads(out)["result"]["bisections"] == [{"x": "x"}]


def test_castle_validate_lists_every_violation(tmp_path, capsys):
    castle = write(
        tmp_path / "castle.json",
        {"towers": [{"height": 2, "columns": [["a", "a"], ["b"]]}, {"height": 0, "columns": [["b"]]}]},
    )
    code, out, _ = run(capsys, "--json", "castle", "validate", "--in", castle)
    assert code == 1
    assert json.loads(out)["result"]["violations"] == [
        "tower 0 column 0: repeated atom",
        "atom 'a' appears in tower 0 and tower 0",
        "tower 0 column 1: length 1 != height 2",
        "tower 1: height must be at least 1",
        "tower 1 column 0: length 1 != height 0",
        "atom 'b' appears in tower 0 and tower 1",
    ]
    # the other subcommands refuse an invalid castle as bad input
    code, out, err = run(capsys, "castle", "compare", "--in", castle, "--A", "a", "--B", "b")
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid castle: tower 0 column 0: repeated atom; ")


def test_paradox_violator_and_witness(tmp_path, capsys, zwindow):
    code, out, _ = run(
        capsys,
        "paradox", "--in", zwindow,
        "--points", ",".join(str(i) for i in range(0, 10)), "--R", "1",
    )
    assert code == 1
    assert "violator" in out
    tree = write(
        tmp_path / "tree.json",
        {"tree": {"degree": 3, "core_depth": 5, "halo_depth": 2}},
    )
    code, out, _ = run(capsys, "paradox", "--in", tree, "--points", "v,v0,v1,v2", "--R", "2")
    assert code == 0
    assert "witness" in out


def test_homology_fill_cli(tmp_path, capsys, zwindow):
    chain = write(
        tmp_path / "chain.json",
        {"coeffs": {"0": 1, "10": -1}},
    )
    code, out, _ = run(capsys, "homology-fill", "--in", zwindow, "--chain", chain, "--P", "1")
    assert code == 0
    assert "norm 1" in out


@pytest.mark.parametrize(
    "coeffs, err",
    [
        ({"0": 0.5}, "zero chain coefficient '0': expected an integer, got 0.5"),
        ({"0": 1.5, "3": -1.5}, "zero chain coefficient '0': expected an integer, got 1.5"),
        ({"0": 1, "3": True}, "zero chain coefficient '3': expected an integer, got True"),
        ({"0": "1"}, "zero chain coefficient '0': expected an integer, got '1'"),
        ([["0", 1]], "zero chain 'coeffs': expected an object"),
    ],
)
def test_non_integer_chain_is_a_schema_error(tmp_path, capsys, zwindow, coeffs, err):
    chain = write(tmp_path / "chain.json", {"coeffs": coeffs})
    code, out, stderr = run(capsys, "homology-fill", "--in", zwindow, "--chain", chain, "--P", "1")
    assert (code, out) == (2, "")
    assert err in stderr


def test_homology_fill_cli_on_long_path(tmp_path, capsys):
    window = write(
        tmp_path / "path.json",
        {"interval": {"lo": 0, "hi": 2999, "halo_depth": 0}},
    )
    chain = write(tmp_path / "chain.json", {"coeffs": {"0": 1, "2999": -1}})
    code, out, _ = run(capsys, "--json", "homology-fill", "--in", window, "--chain", chain, "--P", "1")
    assert code == 0
    assert json.loads(out)["result"]["norm"] == 1


def test_homology_fill_reports_stable_solve_stats(tmp_path, capsys, zwindow):
    chain = write(tmp_path / "chain.json", {"coeffs": {str(i): 1 for i in range(-20, 21)}})
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "homology-fill", "--in", zwindow, "--chain", chain, "--P", "2")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    stats = json.loads(outs[0])["stats"]
    assert sorted(stats) == ["arcs", "nodes", "solves"]
    assert stats["solves"] >= 1 and stats["nodes"] > 0 and stats["arcs"] > 0


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The corpus run once in a scratch directory, and the golden, each cut into blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("corpus"))
        got = cli_corpus.split("".join(cli_corpus.blocks()))
    return got, cli_corpus.split(cli_corpus.GOLDEN.read_text())


def test_cli_corpus_matches_golden_bytes(corpus):
    # block by block, so a failure names the call whose report moved;
    # rewrite the golden with cli_corpus.py run as a script
    got, want = corpus
    for g, w in zip(got, want):
        assert g == w, g.partition("\n")[0]
    assert len(got) == len(want)


def corpus_block(corpus, argv):
    # the golden block of one corpus call, and the block the run gave for it;
    # the first piece of a split precedes the first call
    got, want = corpus
    i = cli_corpus.CALLS.index(argv) + 1
    assert want[i].startswith(f"$ {' '.join(argv)}\n")
    return got[i], want[i]


def named_call(name):
    # the one corpus call that reads <name>-window.json
    (argv,) = [a for a in cli_corpus.CALLS if f"{name}-window.json" in a]
    return argv


@pytest.mark.parametrize(
    "name",
    ["homology-fill-dipole", "homology-fill-line-halo", "homology-fill-tree", "paradox-witness", "paradox-violator"],
)
def test_flow_reports_match_golden_bytes(corpus, name):
    got, want = corpus_block(corpus, named_call(name))
    assert got == want


@pytest.mark.parametrize("name", ["folner-greedy-line", "folner-greedy-tree", "folner-greedy-stacked"])
def test_folner_reports_match_golden_bytes(corpus, name):
    got, want = corpus_block(corpus, named_call(name))
    assert got == want


@pytest.mark.parametrize(
    "name", ["castle-validate", "castle-refine", "castle-compare", "castle-from-tiling", "castle-defect"]
)
def test_castle_reports_match_golden_bytes(corpus, name):
    # the first call of each castle operation; from-tiling's first call has no
    # --out, so the castle payload is part of its report
    argv = next(a for a in cli_corpus.CALLS if a[:2] == ["castle", name.removeprefix("castle-")])
    got, want = corpus_block(corpus, argv)
    assert got == want


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # the corpus, run in a child under two hash seeds, gives the golden bytes
    paths = [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]
    outs = []
    for seed in ("0", "1"):
        cwd = tmp_path / seed
        cwd.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(paths)}
        done = subprocess.run(
            [sys.executable, "-c", "import sys, cli_corpus; sys.stdout.write(''.join(cli_corpus.blocks()))"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0 and done.stderr == "", done.stderr
        outs.append(done.stdout)
    assert outs == [cli_corpus.GOLDEN.read_text()] * 2


def test_corpus_script_refuses_arguments_and_writes_nothing(tmp_path):
    golden = cli_corpus.GOLDEN
    before = (golden.read_bytes(), golden.stat().st_mtime_ns)
    paths = [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, str(Path(cli_corpus.__file__)), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: ")
    assert (golden.read_bytes(), golden.stat().st_mtime_ns) == before
    assert list(tmp_path.iterdir()) == []


def test_monoid_cli_verdicts(tmp_path, capsys):
    pres = write(
        tmp_path / "num23.json",
        {"rank": 2, "relations": [[[3, 0], [0, 2]]]},
    )
    code, out, _ = run(capsys, "monoid", "equal", "--in", pres, "--u", "3,0", "--v", "0,2")
    assert code == 0
    code, out, _ = run(capsys, "monoid", "equal", "--in", pres, "--u", "1,0", "--v", "0,1")
    assert code == 1
    code, out, _ = run(capsys, "monoid", "aup", "--in", pres)
    assert code == 1
    assert "counterexample" in out


def test_monoid_equal_two_step_path(tmp_path, capsys):
    # 6a = 3a + 3a -> 2b + 3a -> 4b takes two rewrites; a two-step path
    # has the shape of a (z, path) pair, so the certificate's type must decide
    pres = write(
        tmp_path / "num23.json",
        {"rank": 2, "relations": [[[3, 0], [0, 2]]]},
    )
    code, out, _ = run(
        capsys, "--json", "monoid", "equal", "--in", pres, "--u", "6,0", "--v", "0,4"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "yes"
    assert result["path"] == [[0, True], [0, True]]
    assert "z" not in result


def test_monoid_leq_above_entry_cap(tmp_path, capsys):
    # v = 5a sits above the entry cap 4, so no capped saturation from u + z
    # can step back onto v; the certificate comes from v's own class
    pres = write(tmp_path / "a32.json", {"rank": 1, "relations": [[[3], [2]]]})
    code, out, err = run(
        capsys, "--json", "monoid", "leq", "--in", pres,
        "--u", "1", "--v", "5", "--cap", "4", "--zcap", "7",
    )
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["verdict"] == "yes"
    assert result["z"] == [1]
    p = presentation(1, [[(3,), (2,)]])
    assert replay_path(p, (2,), [tuple(step) for step in result["path"]]) == (5,)


def test_monoid_aup_with_class_members_above_entry_cap(tmp_path, capsys):
    pres = write(tmp_path / "n35.json", {"rank": 2, "relations": [[[5, 0], [0, 3]]]})
    code, out, err = run(
        capsys, "monoid", "aup", "--in", pres, "--xcap", "3", "--nmax", "2",
        "--depth", "2", "--zcap", "3", "--cap", "4",
    )
    assert code == 1
    assert "counterexample" in out
    assert "Traceback" not in err


def test_monoid_unknown_exits_1(tmp_path, capsys):
    # an Unknown verdict exits 1, like No; the JSON verdict tells them apart
    pres = write(tmp_path / "idem.json", {"rank": 1, "relations": [[[2], [1]]]})
    code, out, err = run(
        capsys, "--json", "monoid", "equal", "--in", pres,
        "--u", "1", "--v", "19", "--depth", "30", "--cap", "3",
    )
    assert code == 1, err
    assert json.loads(out)["result"]["verdict"] == "unknown"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["canc", "--u", "1,0", "--v", "1,0", "--zcap", "-1"], "z_cap must be nonnegative, got -1"),
        (["aup", "--xcap", "-1"], "x_cap must be nonnegative, got -1"),
        (["aup", "--nmax", "0"], "n_max must be at least 1, got 0"),
        (["equal", "--u", "1,0", "--v", "1,0", "--cap", "-1"], "entry_cap must be nonnegative, got -1"),
        (["leq", "--u", "1,0", "--v", "1,0", "--depth", "-2"], "depth must be nonnegative, got -2"),
        (["pinf", "--x", "1,0", "--zcap", "-3"], "z_cap must be nonnegative, got -3"),
        (["refine", "--a", "3,0", "--b", "0,2", "--c", "0,2", "--d", "3,0", "--cap", "-1"],
         "entry_cap must be nonnegative, got -1"),
    ],
)
def test_negative_monoid_bounds_exit_2(tmp_path, capsys, argv, err):
    # an empty search region would read as an exhausted one: canc with
    # u = v answered no, and aup reported no counterexample over 1 <= n <= 0
    pres = write(tmp_path / "num23.json", {"rank": 2, "relations": [[[3, 0], [0, 2]]]})
    code, out, stderr = run(capsys, "monoid", argv[0], "--in", pres, *argv[1:])
    assert (code, out) == (2, "")
    assert stderr == f"error: {err}\n"


@pytest.mark.parametrize(
    "rank, argv, err",
    [
        (1, ["aup", "--xcap", str(2 ** 40)], f"{(2 ** 40 + 1) ** 2} (x, y) pairs"),
        (2, ["aup", "--xcap", "31"], "1048576 (x, y) pairs"),
        # a rank past 32 counts 64 factors, already far above the limit
        (10 ** 6, ["aup", "--xcap", "1"], f"{2 ** 64} (x, y) pairs"),
        # n_max * (x_cap + 1)^rank classes of ny, each saturated once
        (1, ["aup", "--xcap", "1", "--nmax", "500001"], "1000002 (n, y) classes"),
        (1, ["aup", "--xcap", "0", "--nmax", str(2 ** 40)], f"{2 ** 40} (n, y) classes"),
        (2, ["aup", "--xcap", "9", "--nmax", "10001"], "1000100 (n, y) classes"),
        (2, ["canc", "--zcap", "100000", "--u", "1,0", "--v", "0,1"], "10000200001 z vectors"),
        (10 ** 6, ["canc", "--zcap", "1", "--u", "1", "--v", "0"], f"{2 ** 64} z vectors"),
    ],
)
def test_monoid_search_above_the_limit_is_refused_unbuilt(tmp_path, capsys, monkeypatch, rank, argv, err):
    # aup --xcap 2^40 exited 3 with MemoryError and canc --zcap 100000 ran
    # for minutes; monoid counts the search and refuses before saturating
    def unbuilt(*args):
        raise AssertionError("monoid search called")

    monkeypatch.setattr(monoid, "_saturate", unbuilt)
    pres = write(tmp_path / "pres.json", {"rank": rank, "relations": []})
    code, out, stderr = run(capsys, "monoid", argv[0], "--in", pres, *argv[1:])
    assert (code, out) == (2, "")
    assert stderr == f"error: {err} or more, above the limit of {monoid.MAX_SEARCH}\n"


def test_presentation_rank_above_the_limit_is_refused(tmp_path, capsys):
    # aup --xcap 0 on rank 10^9 exited 3 with MemoryError; rank 10^6 is the largest accepted
    pres = write(tmp_path / "pres.json", {"rank": monoid.MAX_SEARCH + 1, "relations": []})
    code, out, stderr = run(capsys, "monoid", "aup", "--in", pres, "--xcap", "0")
    assert (code, out) == (2, "")
    assert stderr == f"error: presentation: rank {monoid.MAX_SEARCH + 1} is above the limit of {monoid.MAX_SEARCH}\n"


def test_truncated_json_input_exits_2(tmp_path, capsys):
    path = tmp_path / "window.json"
    path.write_text('{"interval": {"lo": 0, "hi"')
    code, out, stderr = run(capsys, "ball", "--in", str(path), "--center", "0", "--R", "1")
    assert (code, out) == (2, "")
    assert stderr.startswith(f"error: {path}: not valid JSON (") and stderr.count("\n") == 1


@pytest.mark.parametrize("flag", ["--in", "--chain"])
def test_deeply_nested_json_input_exits_2(tmp_path, capsys, zwindow, flag):
    # json.load recurses once per level; the file is valid JSON, but no schema nests like this
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    if flag == "--in":
        argv = ["ball", "--in", str(deep), "--center", "0", "--R", "1"]
    else:
        argv = ["homology-fill", "--in", zwindow, "--chain", str(deep), "--P", "1"]
    code, out, stderr = run(capsys, *argv)
    assert (code, out, stderr) == (2, "", f"error: {deep}: JSON nested too deeply to read\n")


def test_monoid_search_at_the_limit_runs(tmp_path, capsys):
    # the free monoid's sweep over 10^6 (x, y) pairs is the largest accepted
    pres = write(tmp_path / "free1.json", {"rank": 1, "relations": []})
    code, _, stderr = run(capsys, "monoid", "aup", "--in", pres, "--xcap", "999", "--nmax", "1", "--cap", "0")
    assert (code, stderr) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["--xcap", "1", "--nmax", "2000"],
        ["--xcap", "0", "--nmax", "100000"],
        ["--cap", str(2 ** 40)],
    ],
)
def test_monoid_aup_entry_values_are_not_counted(tmp_path, capsys, argv):
    # the sweep builds a side of the x box only for the entry values its
    # classes contain, so a large n * x_cap or entry cap costs nothing; each
    # was refused for its entry ranges, 2 * 10^6 or more
    pres = write(tmp_path / "free1.json", {"rank": 1, "relations": []})
    code, out, stderr = run(capsys, "--json", "monoid", "aup", "--in", pres, *argv)
    assert (code, stderr) == (0, "")
    assert json.loads(out)["result"]["found"] is False


@pytest.mark.parametrize(
    "pres, err",
    [
        ({"rank": 2, "relations": [[[1.5, 0], [0, 1]]]}, "presentation relation 0 entry: expected an integer, got 1.5"),
        ({"rank": 2, "relations": [[[1, 0], [0, False]]]}, "presentation relation 0 entry: expected an integer, got False"),
        ({"rank": 2.0, "relations": []}, "presentation 'rank': expected an integer, got 2.0"),
        ({"rank": True}, "presentation 'rank': expected an integer, got True"),
        ({"rank": 2, "relations": [[1, [0, 1]]]}, "presentation relation 0: expected a list, got 1"),
        ({"rank": 2, "relations": [5]}, "presentation relation 0: expected a pair of vectors"),
        ({"rank": 2, "relations": {"0": 1}}, "presentation 'relations': expected a list"),
    ],
)
def test_non_integer_presentation_is_a_schema_error(tmp_path, capsys, pres, err):
    path = write(tmp_path / "pres.json", pres)
    code, out, stderr = run(capsys, "monoid", "equal", "--in", path, "--u", "1,0", "--v", "0,1")
    assert (code, out) == (2, "")
    assert err in stderr


@pytest.mark.parametrize(
    "window, err",
    [
        ({"interval": {"lo": 0.5, "hi": 5, "halo_depth": 1}}, "interval 'lo': expected an integer, got 0.5"),
        ({"interval": {"lo": 0, "hi": 5, "halo_depth": True}}, "interval 'halo_depth': expected an integer, got True"),
        ({"tree": {"degree": 3, "core_depth": 2.0}}, "tree 'core_depth': expected an integer, got 2.0"),
        ({"box": {"moduli": [2.0, 4]}}, "box 'moduli' entry: expected an integer, got 2.0"),
        ({"box": {"moduli": 4}}, "box 'moduli': expected a list, got 4"),
        ({"A": [1.5, 3]}, "subset 'A' entry: expected an integer, got 1.5"),
        ({"A": 3}, "subset 'A': expected a list, got 3"),
        ({"stack": {"base": {"vertices": [3], "edges": []}, "K": 4.0}}, "stack 'K': expected an integer, got 4.0"),
        (
            {"stack": {"base": {"vertices": [3], "edges": []}, "K": 4, "halo_depth": "1"}},
            "stack 'halo_depth': expected an integer, got '1'",
        ),
        ({"points": [3, 4], "matrix": [[0, 1.5], [1.5, 0]]}, "matrix space row 0 entry: expected an integer, got 1.5"),
        ({"vertices": [3, 4], "edges": [[3, 4]], "core": ["3"], "halo_depth": 1.0}, "window 'halo_depth': expected an integer"),
        ([3, 4], "window: expected an object, got [3, 4]"),
        ({"vertices": [1, 2], "edges": [5]}, "graph 'edges' pair: expected a list, got 5"),
        ({"vertices": [1, 2], "edges": [[1, 2, 3]]}, "graph 'edges' pair: expected 2 vertices, got [1, 2, 3]"),
        ({"vertices": [1, 2], "edges": [[1, [2]]]}, "graph 'edges' pair entry: expected an integer or a string, got [2]"),
        ({"vertices": [[1], 2], "edges": []}, "graph 'vertices' entry: expected an integer or a string, got [1]"),
        ({"vertices": None, "edges": []}, "graph 'vertices': expected a list, got None"),
        ({"vertices": [1, 2], "edges": None}, "graph 'edges': expected a list, got None"),
        ({"vertices": [1, 2.5], "edges": []}, "graph 'vertices' entry: expected an integer or a string, got 2.5"),
        ({"vertices": [1, True], "edges": []}, "graph 'vertices' entry: expected an integer or a string, got True"),
        ({"vertices": {"a": 1}, "edges": []}, "graph 'vertices': expected a list, got {'a': 1}"),
        ({"points": None, "matrix": []}, "matrix space 'points': expected a list, got None"),
        ({"points": [1, [2]], "matrix": [[0, 1], [1, 0]]}, "matrix space 'points' entry: expected an integer or a string, got [2]"),
        ({"stack": {"base": 5, "K": 4}}, "stack 'base': expected an object, got 5"),
        ({"vertices": [1, 2, 3], "edges": [[1, 2]], "core": "12"}, "window 'core': expected a list, got '12'"),
        ({"vertices": [1, 2, 3], "edges": [[1, 2]], "core": [["1"]]}, "unknown point key ['1']"),
        ({"vertices": [1, "1"], "edges": []}, "error: point keys collide at '1'"),
        ({"core": [3]}, "space: expected 'vertices' or 'points'"),
    ],
)
def test_malformed_window_is_a_schema_error(tmp_path, capsys, window, err):
    path = write(tmp_path / "window.json", window)
    code, out, stderr = run(capsys, "ball", "--in", path, "--center", "3", "--R", "1")
    assert (code, out) == (2, "")
    assert err in stderr


LIMIT = serialize.MAX_WINDOW_POINTS


@pytest.mark.parametrize(
    "window, points",
    [
        ({"interval": {"lo": 0, "hi": 1099511627776}}, 1099511627777),
        ({"interval": {"lo": 1, "hi": LIMIT - 1, "halo_depth": 1}}, LIMIT + 1),
        ({"tree": {"degree": 2, "core_depth": LIMIT // 2}}, LIMIT + 1),
        ({"tree": {"degree": 3, "core_depth": 1099511627776}}, 1 + 3 * (2 ** 64 - 1)),
        ({"box": {"moduli": [LIMIT, 1]}}, LIMIT + 1),
        ({"stack": {"base": {"vertices": [1, 2], "edges": []}, "K": LIMIT // 2 + 1}}, LIMIT + 2),
        ({"moduli": [1, 1099511627776]}, 1099511627777),
    ],
)
def test_window_above_the_point_limit_is_refused_unbuilt(tmp_path, capsys, monkeypatch, window, points):
    # each would take gigabytes (the first exited 3 with MemoryError); the
    # loader counts the points and refuses before any constructor runs.  A
    # bare "moduli" is the box tiling input, which tile reads without a window.
    def unbuilt(*args):
        raise AssertionError("window constructor called")

    for name in ("integer_window", "regular_tree_window", "box_window", "stacked_product_window"):
        monkeypatch.setattr(serialize, name, unbuilt)
    monkeypatch.setattr(cli, "tile_box_space", unbuilt)
    path = write(tmp_path / "window.json", window)
    if "moduli" in window:
        code, out, stderr = run(capsys, "tile", "--strategy", "box", "--R", "1", "--epsilon", "1/2", "--in", path)
    else:
        code, out, stderr = run(capsys, "ball", "--in", path, "--center", "3", "--R", "1")
    assert (code, out) == (2, "")
    kind = "box" if "moduli" in window else next(iter(window))
    assert stderr == f"error: {kind} window: {points} points or more, above the limit of {LIMIT}\n"


def test_a_degree_2_tree_with_too_many_name_characters_is_refused_unbuilt(tmp_path, capsys, monkeypatch):
    # a vertex is named by its whole path, so a degree-2 tree of 100 001
    # points would hold 2 500 150 001 characters of names (it exited 3 with
    # MemoryError under a 2 GB address-space limit); the point check passes
    built = []

    def recorded(*args):
        built.append(args)
        return space.regular_tree_window(2, 1, 0)

    monkeypatch.setattr(serialize, "regular_tree_window", recorded)
    limit = serialize._MAX_TREE_NAME_CHARS
    cases = [
        ({"degree": 2, "core_depth": 50000}, 2500150001),
        # total depth 9 999, the first past the limit: 1 + 9 999 * 10 002 characters
        ({"degree": 2, "core_depth": 9000, "halo_depth": 999}, 100009999),
    ]
    for tree, chars in cases:
        path = write(tmp_path / "window.json", {"tree": tree})
        code, out, stderr = run(capsys, "ball", "--in", path, "--center", "v", "--R", "1")
        assert (code, out) == (2, "")
        assert stderr == f"error: tree window: {chars} characters of vertex names, above the limit of {limit}\n"
    assert built == []
    # total depth 9 998 holds 99 989 999 characters, within the limit
    path = write(tmp_path / "window.json", {"tree": {"degree": 2, "core_depth": 9000, "halo_depth": 998}})
    code, _, stderr = run(capsys, "ball", "--in", path, "--center", "v", "--R", "1")
    assert (code, stderr) == (0, "")
    assert built == [(2, 9000, 998)]


@pytest.mark.parametrize(
    "tree, code, err",
    [
        ({"degree": 1, "core_depth": 3}, 2, "error: tree degree must be at least 2\n"),
        ({"degree": -4, "core_depth": 10 ** 12}, 2, "error: tree degree must be at least 2\n"),
        ({"degree": 3, "core_depth": 0}, 0, ""),
        ({"degree": 5, "core_depth": 0, "halo_depth": 0}, 0, ""),
        ({"degree": 3, "core_depth": 2, "halo_depth": -2}, 2, "error: depths must be nonnegative\n"),
        ({"degree": 3, "core_depth": -1}, 2, "error: depths must be nonnegative\n"),
    ],
    ids=["degree-1", "negative-degree", "depth-0", "depth-0-degree-5", "negative-halo", "negative-depth"],
)
def test_tree_specs_that_skip_the_size_check(tmp_path, capsys, tree, code, err):
    # below degree 2, or at total depth 0 or less, there is no size to check;
    # the constructor refuses what is not a tree, and depth 0 is the root alone
    path = write(tmp_path / "window.json", {"tree": tree})
    got = run(capsys, "--json", "ball", "--in", path, "--center", "v", "--R", "1")
    assert (got[0], got[2]) == (code, err)
    if code == 0:
        assert json.loads(got[1])["result"]["ball"] == ["v"]


def tiling_with(**fields):
    """A two-tile interval tiling with top-level fields, or a field of its first tile's meta, replaced."""
    meta = [{"ratio": "2/5", "diam": 4, "contaminated": False} for _ in range(2)]
    data = {
        "space": {"interval": {"lo": 0, "hi": 9, "halo_depth": 1}},
        "R": 1,
        "epsilon": "1/2",
        "tiles": [[str(i) for i in range(5)], [str(i) for i in range(5, 10)]],
        "meta": meta,
        "diameter_bound": 4,
        "notes": [],
    }
    for key, value in fields.items():
        (meta[0] if key in meta[0] else data)[key] = value
    return data


@pytest.mark.parametrize(
    "strategy, spec, err",
    [
        ("sparse", {"A": [0, 1.5, 3]}, "subset 'A' entry: expected an integer, got 1.5"),
        ("sparse", {"A": 3}, "subset 'A': expected a list, got 3"),
        ("box", {"moduli": [2.0, 4]}, "box 'moduli' entry: expected an integer, got 2.0"),
        ("box", {"box": {"moduli": [2, 4.0]}}, "box 'moduli' entry: expected an integer, got 4.0"),
        ("box", {"box": [2, 4]}, "box tiling input needs 'moduli'"),
        ("sparse", 5, "sparse tiling input needs an 'A' list"),
        ("box", 5, "box tiling input needs 'moduli'"),
        ("interval", 5, "window: expected an object, got 5"),
        ("verify-tiling", tiling_with(R="1"), "tiling 'R': expected an integer, got '1'"),
        ("verify-tiling", tiling_with(R=1.5), "tiling 'R': expected an integer, got 1.5"),
        ("verify-tiling", tiling_with(R=None), "tiling 'R': expected an integer, got None"),
        ("verify-tiling", tiling_with(diam="3"), "tiling meta 'diam': expected an integer, got '3'"),
        ("verify-tiling", tiling_with(diam=None), "tiling meta 'diam': expected an integer, got None"),
        ("verify-tiling", tiling_with(contaminated="no"), "tiling meta 'contaminated': expected a boolean, got 'no'"),
        ("verify-tiling", tiling_with(diameter_bound="9"), "tiling 'diameter_bound': expected an integer, got '9'"),
        ("verify-tiling", tiling_with(epsilon=True), "expected a rational 'p/q' string, got True"),
        ("verify-tiling", tiling_with(tiles=[["0", [1]]]), "unknown point key [1]"),
        ("verify-tiling", tiling_with(tiles=["01"]), "tiling tile 0: expected a list, got '01'"),
        ("verify-tiling", tiling_with(tiles=None), "tiling 'tiles': expected a list, got None"),
        ("verify-tiling", tiling_with(tiles=5), "tiling 'tiles': expected a list, got 5"),
        ("verify-tiling", tiling_with(meta=None), "tiling 'meta': expected a list, got None"),
        ("verify-tiling", tiling_with(meta=5), "tiling 'meta': expected a list, got 5"),
        ("verify-tiling", tiling_with(notes=None), "tiling 'notes': expected a list, got None"),
        ("verify-tiling", tiling_with(notes=5), "tiling 'notes': expected a list, got 5"),
        ("verify-tiling", 5, "tiling: expected an object, got 5"),
        ("sparse", {"A": [0, 1], "prefix_of_unbounded": "no"}, "sparse 'prefix_of_unbounded': expected a boolean, got 'no'"),
        ("box", {"moduli": [0, 4]}, "moduli must be positive integers"),
        (
            "verify-tiling",
            {k: v for k, v in tiling_with().items() if k != "space"},
            "tiling: no embedded 'space' and no window supplied",
        ),
    ],
)
def test_malformed_tiling_input_is_a_schema_error(tmp_path, capsys, strategy, spec, err):
    # "verify-tiling" loads spec as a tiling; any other value tiles spec with that strategy
    path = write(tmp_path / "space.json", spec)
    if strategy == "verify-tiling":
        code, out, stderr = run(capsys, "verify-tiling", "--in", path)
    else:
        code, out, stderr = run(capsys, "tile", "--strategy", strategy, "--R", "1", "--epsilon", "1/2", "--in", path)
    assert (code, out) == (2, "")
    assert err in stderr


@pytest.mark.parametrize("epsilon", ["0", "-1/2"])
@pytest.mark.parametrize("strategy, spec", [
    ("interval", {"interval": {"lo": 0, "hi": 20}}),
    ("sparse", {"A": list(range(20))}),
    ("stack", {"stack": {"base": {"vertices": ["p"], "edges": []}, "K": 12}}),
    ("box", {"moduli": [2, 4, 8]}),
])
def test_tile_refuses_a_nonpositive_epsilon(tmp_path, capsys, strategy, spec, epsilon):
    # the stacked block height divided by epsilon: epsilon 0 exited 3
    path = write(tmp_path / "space.json", spec)
    code, out, err = run(capsys, "tile", "--strategy", strategy, "--R", "1", f"--epsilon={epsilon}", "--in", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_monoid_pinf_cli(tmp_path, capsys):
    pres = write(tmp_path / "idem.json", {"rank": 1, "relations": [[[2], [1]]]})
    code, out, _ = run(capsys, "monoid", "pinf", "--in", pres, "--x", "1")
    assert code == 0


@pytest.mark.parametrize("command", ["boundary", "paradox"])
@pytest.mark.parametrize(
    "points, err",
    [
        (5, "point set: expected an object, got 5"),
        ([1], "point set: expected an object, got [1]"),
        ({"points": 5}, "point set 'points': expected a list, got 5"),
        ({"points": [[1]]}, "point set 'points' entry: expected a string, got [1]"),
        ({"point": ["1"]}, "point set: missing key 'points'"),
    ],
)
def test_malformed_point_set_file_is_a_schema_error(tmp_path, capsys, zwindow, command, points, err):
    # 5 and {"points": 5} exited 3 with TypeError
    path = write(tmp_path / "set.json", points)
    code, out, stderr = run(capsys, command, "--in", zwindow, "--set", path, "--R", "1")
    assert (code, out) == (2, "")
    assert stderr == f"error: {err}\n"


def test_boundary_and_ball(capsys, zwindow):
    code, out, _ = run(capsys, "boundary", "--in", zwindow, "--points", "0,1,2", "--R", "2")
    assert code == 0
    assert "4 points" in out
    code, out, _ = run(capsys, "ball", "--in", zwindow, "--center", "0", "--R", "3")
    assert code == 0
    assert "7 points" in out


def test_reports_are_byte_identical(tmp_path, capsys, zwindow):
    r1 = str(tmp_path / "r1.json")
    r2 = str(tmp_path / "r2.json")
    for r in (r1, r2):
        code, _, _ = run(
            capsys,
            "--out", r,
            "ball", "--in", zwindow, "--center", "0", "--R", "2",
        )
        assert code == 0
    assert Path(r1).read_bytes() == Path(r2).read_bytes()


def test_json_mode_emits_only_json(capsys, zwindow):
    code, out, _ = run(capsys, "--json", "ball", "--in", zwindow, "--center", "0", "--R", "1")
    assert code == 0
    data = json.loads(out)
    assert data["tool"] == "coarse-lab"
    assert data["result"]["size"] == 3


def test_folner_cli(capsys, zwindow):
    code, out, _ = run(
        capsys,
        "folner", "--in", zwindow, "--R", "1", "--epsilon", "1/10",
        "--strategy", "intervals", "--budget", "30",
    )
    assert code == 0
    assert "success" in out


@pytest.mark.parametrize("strategy", ["balls", "intervals", "greedy"])
@pytest.mark.parametrize(
    "flags, err",
    [
        (["--R", "-1", "--budget", "20"], "error: radius must be nonnegative\n"),
        (["--R", "1", "--budget", "0"], "error: budget must be at least 1, got 0\n"),
        (["--R", "1", "--budget", "-3"], "error: budget must be at least 1, got -3\n"),
    ],
    ids=["negative-R", "zero-budget", "negative-budget"],
)
def test_folner_rejects_bad_arguments(capsys, zwindow, strategy, flags, err):
    code, out, stderr = run(
        capsys, "folner", "--in", zwindow, "--epsilon", "1/2", "--strategy", strategy, *flags
    )
    assert (code, out, stderr) == (2, "", err)


def test_castle_from_tiling_and_defect(tmp_path, capsys, zwindow):
    tiling = str(tmp_path / "tiling.json")
    castle = str(tmp_path / "castle.json")
    run(
        capsys,
        "tile", "--strategy", "interval", "--R", "1",
        "--epsilon", "1/10", "--in", zwindow, "--out", tiling,
    )
    code, _, _ = run(capsys, "castle", "from-tiling", "--in", tiling, "--out", castle)
    assert code == 0
    code, out, _ = run(
        capsys, "castle", "defect", "--in", castle, "--space", zwindow, "--R", "1"
    )
    assert code == 0
    assert "2/21" in out


def test_a_tiling_without_its_space_reads_the_window_from_space(tmp_path, capsys, zwindow):
    # the same tiling with and without its embedded window gives the same
    # verification and the same castle, once --space supplies the window
    tiling, bare = str(tmp_path / "tiling.json"), tmp_path / "bare.json"
    code, _, err = run(
        capsys, "tile", "--strategy", "interval", "--R", "1", "--epsilon", "1/10", "--in", zwindow, "--out", tiling
    )
    assert code == 0, err
    data = json.loads(Path(tiling).read_text())
    del data["space"]
    write(bare, data)
    reports = []
    for args in (["--in", tiling], ["--in", str(bare), "--space", zwindow]):
        code, out, err = run(capsys, "--json", "verify-tiling", *args)
        assert (code, err) == (0, "")
        reports.append(json.loads(out)["result"])
    assert reports[0] == reports[1]
    assert reports[0]["passed"]
    castles = []
    for args in (["--in", tiling], ["--in", str(bare), "--space", zwindow]):
        out_path = tmp_path / f"castle{len(castles)}.json"
        code, _, err = run(capsys, "castle", "from-tiling", *args, "--out", str(out_path))
        assert code == 0, err
        castles.append(out_path.read_text())
    assert castles[0] == castles[1]


def test_castle_from_stacked_tiling_with_mixed_vertex_kinds(tmp_path, capsys):
    # column atoms (0, j) and ("a", j) share a tower; their order must not
    # depend on comparing 0 with "a"
    window = write(
        tmp_path / "window.json",
        {"stack": {"base": {"vertices": [0, "a"], "edges": [[0, "a"]]}, "K": 10, "halo_depth": 0}},
    )
    tiling, castle = str(tmp_path / "tiling.json"), str(tmp_path / "castle.json")
    code, _, err = run(
        capsys, "tile", "--strategy", "stack", "--R", "1", "--epsilon", "1", "--in", window, "--out", tiling
    )
    assert code == 0, err
    code, _, err = run(capsys, "castle", "from-tiling", "--in", tiling, "--out", castle)
    assert code == 0, err
    code, out, err = run(capsys, "--json", "castle", "defect", "--in", castle, "--space", window, "--R", "1")
    assert code == 0, err
    assert json.loads(out)["result"]["defect"] == "2/5"


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--criteria", "5,6")
    assert code == 0
    assert "criterion 5" in out and "criterion 6" in out


def test_importing_the_cli_leaves_the_criteria_module_unloaded(tmp_path):
    # only selftest needs acceptance, so every other cold run skips compiling it
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, coarse_lab.cli; print('coarse_lab.acceptance' in sys.modules)"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_selftest_without_criteria_runs_them_all(monkeypatch, capsys):
    asked = []

    def fake_run_criteria(numbers=None):
        asked.append(numbers)
        return [acceptance.CriterionResult(n, f"title {n}") for n in sorted(numbers or acceptance.CRITERIA)]

    monkeypatch.setattr(acceptance, "run_criteria", fake_run_criteria)
    code, out, _ = run(capsys, "--json", "selftest")
    assert (code, asked) == (0, [None])
    report = json.loads(out)["result"]
    assert report["passed"] is True
    assert [c["number"] for c in report["criteria"]] == list(range(1, 11))


def test_selftest_reports_headroom_under_each_budget(capsys):
    # criterion 8 has a 10 s budget, criterion 10 none
    code, out, _ = run(capsys, "--json", "selftest", "--criteria", "8,10")
    assert code == 0
    eight, ten = json.loads(out)["result"]["criteria"]
    assert eight["budget_s"] == 10.0
    assert eight["headroom_s"] == pytest.approx(10.0 - eight["elapsed_s"], abs=0.002)
    assert 0 < eight["headroom_s"] < 10.0
    assert ten["budget_s"] is None and ten["headroom_s"] is None


def test_selftest_fails_a_criterion_on_a_misdeclared_tile(monkeypatch, capsys):
    # the first tile declares a diameter one too large; the verdict replays
    # its true diameter and still passes, so only the metadata check fails
    def misdeclared_interval(window, R, eps):
        t = tiling.tile_interval(window, R, eps)
        m = t.meta[0]
        return dataclasses.replace(t, meta=(tiling.TileMeta(m.ratio, m.diameter + 1, m.contaminated), *t.meta[1:]))

    monkeypatch.setattr(acceptance, "tile_interval", misdeclared_interval)
    result = acceptance.criterion_1({})
    assert not result.passed
    assert result.failures == ["declared metadata mismatch at tiles [0]"]
    code, out, _ = run(capsys, "--json", "selftest", "--criteria", "1")
    assert code == 1
    report = json.loads(out)["result"]
    assert report["passed"] is False
    assert report["criteria"][0]["failures"] == result.failures


def test_selftest_fails_criterion_7_on_a_wrong_defect(monkeypatch, capsys):
    # the defect is counted apart from the tiling's verification, so a wrong
    # one must fail the tie-back check; a cached report cannot hide it
    monkeypatch.setattr(acceptance, "invariance_defect", lambda c, window, R: Fraction(-1))
    t = tiling.tile_interval(space.integer_window(0, 99, 1), 1, Fraction(1, 2))
    result = acceptance.criterion_7({"tiling_1": t})
    assert not result.passed
    assert result.failures == [f"defect -1 != max clean tile ratio {t.max_ratio()}"]
    code, out, _ = run(capsys, "--json", "selftest", "--criteria", "7")
    assert code == 1
    report = json.loads(out)["result"]
    assert report["passed"] is False
    failures = report["criteria"][0]["failures"]
    assert failures and all(f.startswith("defect -1 != max clean tile ratio ") for f in failures)


def _selftest_failures(capsys, number):
    """The failures that ``selftest --criteria <number>`` reports; it must exit 1."""
    code, out, _ = run(capsys, "--json", "selftest", "--criteria", str(number))
    assert code == 1
    report = json.loads(out)["result"]
    assert report["passed"] is False
    return report["criteria"][0]["failures"]


def test_selftest_fails_criterion_5_when_compare_disagrees_with_the_oracle(monkeypatch, capsys):
    compare = acceptance.compare

    def flipped(c, A, B):
        res = compare(c, A, B)
        return dataclasses.replace(res, ok=not res.ok)

    monkeypatch.setattr(acceptance, "compare", flipped)
    assert _selftest_failures(capsys, 5) == ["1000 disagreements with the type-vector oracle"]


def test_selftest_fails_criterion_5_when_a_witness_does_not_replay(monkeypatch, capsys):
    def tampered(self, A, B):
        raise AssertionError("tampered")

    monkeypatch.setattr(castle.ComparisonWitness, "replay", tampered)
    assert "witness replay failed: tampered" in _selftest_failures(capsys, 5)


def test_selftest_fails_criterion_6_when_refine_drops_a_tower(monkeypatch, capsys):
    refine = acceptance.refine

    def dropping(c, targets):
        # the criterion refines the result again, by targets whose atoms may be gone
        atoms = c.atoms()
        return castle.Castle(refine(c, [atoms.intersection(t) for t in targets]).towers[1:])

    # every random castle has an atom, so every refinement loses an orbit
    monkeypatch.setattr(acceptance, "refine", dropping)
    assert _selftest_failures(capsys, 6) == ["500 refinement failures"]


def test_graph_window_file_with_core(tmp_path, capsys):
    window = write(
        tmp_path / "graph.json",
        {
            "vertices": ["a", "b", "c", "d", "e"],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]],
            "core": ["b", "c", "d"],
            "halo_depth": 1,
        },
    )
    code, out, _ = run(capsys, "boundary", "--in", window, "--points", "c", "--R", "1")
    assert code == 0
    data_code, out, _ = run(capsys, "--json", "boundary", "--in", window, "--points", "b", "--R", "1")
    data = json.loads(out)
    assert data["result"]["halo_contaminated"] is True


def test_a_set_with_a_halo_point_is_contaminated(tmp_path, capsys):
    # the window shows {10} the boundary {9}; the ambient line shows {9, 11}
    window = write(tmp_path / "window.json", {"interval": {"lo": 0, "hi": 9, "halo_depth": 1}})
    code, out, _ = run(capsys, "--json", "boundary", "--in", window, "--points", "9,10", "--R", "1")
    assert code == 0
    assert json.loads(out)["result"] == {"boundary": ["8"], "halo_contaminated": True, "size": 1}
    # the empty set is clean and has no boundary
    code, out, _ = run(capsys, "--json", "boundary", "--in", window, "--points", ",", "--R", "1")
    assert code == 0
    assert json.loads(out)["result"] == {"boundary": [], "halo_contaminated": False, "size": 0}
    # a negative radius is refused, for the empty set too
    for points in ("9,10", ","):
        code, out, err = run(capsys, "boundary", "--in", window, "--points", points, "--R", "-1")
        assert (code, out, err) == (2, "", "error: radius must be nonnegative\n")
    only = write(tmp_path / "castle.json", {"towers": [{"height": 1, "columns": [["10"]]}]})
    code, out, err = run(capsys, "castle", "defect", "--in", only, "--space", window, "--R", "1")
    assert (code, out, err) == (2, "", "error: every orbit is halo-contaminated at this radius\n")


def test_matrix_space_file(tmp_path, capsys):
    window = write(
        tmp_path / "matrix.json",
        {
            "points": ["x", "y", "z"],
            "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        },
    )
    code, out, _ = run(capsys, "ball", "--in", window, "--center", "x", "--R", "1")
    assert code == 0
    assert "2 points" in out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["definitely-not-a-command"])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv, err",
    [
        (["tile", "--strategy", "x", "--R", "1", "--epsilon", "1/2", "--in", "w.json"],
         "coarse-lab tile: error: argument --strategy: invalid choice: 'x' (choose from 'interval', 'sparse', 'stack', 'box')"),
        # argparse reads -1/2 as a flag, not as a negative number
        (["tile", "--strategy", "box", "--R", "1", "--epsilon", "-1/2", "--in", "w.json"],
         "coarse-lab tile: error: argument --epsilon: expected one argument"),
        (["folner", "--in", "w.json", "--R", "1", "--epsilon", "1/2", "--strategy", "x"],
         "coarse-lab folner: error: argument --strategy: invalid choice: 'x' (choose from 'balls', 'intervals', 'greedy')"),
        (["castle"], "coarse-lab castle: error: the following arguments are required: castle_op"),
        (["ball", "--in", "w.json", "--center", "1", "--R", "x"], "coarse-lab ball: error: argument --R: invalid int value: 'x'"),
        # there is no --seed; spaced, its value is read as the subcommand
        (["--seed=1", "ball", "--in", "w.json", "--center", "1", "--R", "1"],
         "coarse-lab: error: unrecognized arguments: --seed=1"),
        (["--seed", "1", "ball", "--in", "w.json", "--center", "1", "--R", "1"],
         "coarse-lab: error: argument subcommand: invalid choice: '1' (choose from 'boundary', 'ball', 'tile', "
         "'verify-tiling', 'folner', 'paradox', 'homology-fill', 'castle', 'monoid', 'selftest')"),
    ],
)
def test_refused_command_line_prints_one_line(capsys, argv, err):
    # every exit 2 prints one stderr line; argparse's usage line is dropped
    with pytest.raises(SystemExit) as e:
        main(argv)
    out = capsys.readouterr()
    assert (e.value.code, out.out, out.err) == (2, "", err + "\n")


def test_internal_error_exits_3(monkeypatch, capsys, zwindow):
    # a crash must not read as the mathematical "no" of exit code 1
    def broken(args, em):
        raise AssertionError("replay failed")

    monkeypatch.setattr(cli, "cmd_boundary", broken)
    code, out, err = run(capsys, "boundary", "--in", zwindow, "--points", "0", "--R", "1")
    assert code == 3
    assert out == ""
    assert err == "internal error: AssertionError: replay failed\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["boundary", "--in", "{window}", "--R", "1"], "supply --points or --set"),
        (["monoid", "equal", "--in", "{free2}", "--u", "1,x", "--v", "0,1"],
         "bad vector '1,x'; expected comma-separated integers"),
        (["selftest", "--criteria", "9,11"], "no criterion 11"),
    ],
    ids=["no-point-set", "bad-vector", "no-criterion"],
)
def test_unusable_argument_value_exits_2(tmp_path, capsys, argv, err):
    # argparse accepts these values; the command refuses them with one stderr line
    files = {
        "window": write(tmp_path / "window.json", {"interval": {"lo": 0, "hi": 9}}),
        "free2": write(tmp_path / "free2.json", {"rank": 2, "relations": []}),
    }
    assert run(capsys, *(arg.format(**files) for arg in argv)) == (2, "", f"error: {err}\n")


def test_tiling_file_reads_an_integer_epsilon(tmp_path, capsys):
    # a JSON integer is a rational too: epsilon 1 reads as the string "1" does
    reports = []
    for eps in (1, "1"):
        path = write(tmp_path / "tiling.json", tiling_with(epsilon=eps))
        code, out, err = run(capsys, "--json", "verify-tiling", "--in", path)
        assert (code, err) == (0, "")
        reports.append(json.loads(out)["result"])
    assert reports[0] == reports[1]
