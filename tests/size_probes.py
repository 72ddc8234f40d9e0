"""Size probes: CLI calls at the input limits, each under a memory limit.

Each probe runs ``python -m coarse_lab.cli`` on inputs written to a temporary
directory, in a child process that limits its own address space to
2 000 000 KiB (``RLIMIT_AS``, set in the child only, as ``ulimit -v`` would).
A probe passes when it gives its expected exit code within its time cap and
its peak resident set, read from ``os.wait4``, stays within its RSS cap; a
probe still running at its time cap is killed.  Exit 2 marks an input too
large to build; exit 3 (a ``MemoryError`` or a ``RecursionError``) is never
expected.  The probes run in table order, because later ones read the
tiling and castle that earlier ones write.

    python tests/size_probes.py

The children import ``coarse_lab`` from this checkout's ``src``.  Prints
one JSON line per probe and exits 1 when any probe fails, else 0.  Standard
library only.

Time caps are about five times the probes' wall times on a 2-vCPU Intel
Xeon (Python 3.11), so only an order-of-magnitude regression or a hang
trips one.  RSS caps are about 1.3 times the peaks measured there, rounded
up to 10 MB and at least 40 MB, leaving room for the allocator: whether
glibc returns a freed top of the heap moves a peak by tens of megabytes.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# bytes of address space each child may map: 2 000 000 KiB
ADDRESS_LIMIT = 2_000_000 * 1024

# the first unit vector of rank 101
E101 = ",".join(["1"] + ["0"] * 100)
# 0 and 10^5 times the first unit vector of rank 2 000
ZERO2000 = ",".join(["0"] * 2000)
V2000 = ",".join(["100000"] + ["0"] * 1999)

# (CLI arguments, expected exit code, time cap in s, RSS cap in MB), in run order
PROBES = [
    # search boxes far too large: refused, or walked lazily (refine)
    ("monoid aup --in free1.json --xcap 1099511627776", 2, 1.5, 40),
    # the hull decided by the lattice alone: a refutation, a one-step rewrite
    # of a = 30a, a six-step rewrite whose unreduced coefficients take about
    # 10^21 steps, a 10^5-step rewrite at rank 2 000, replayed before it is
    # reported, and an elimination above the limit
    ("monoid canc --in rank3.json --u 1,0,0 --v 0,0,1", 1, 1.5, 40),
    ("monoid canc --in a30.json --u 0,0,0 --v 29,0,0", 0, 1.5, 40),
    ("monoid canc --in rank5.json --u 3,21,22,84,36 --v 53,1,1,1,2", 0, 1.5, 40),
    (f"monoid canc --in rank2000.json --u {ZERO2000} --v {V2000}", 0, 1.5, 40),
    (f"monoid canc --in elim.json --u {E101} --v {E101}", 2, 1.5, 40),
    ("monoid refine --in free2.json --a 20000,20000 --b 0,0 --c 20000,20000 --d 0,0 --cap 20000", 0, 1.5, 40),
    # a rank and an interval above the limit
    ("monoid aup --in rank1e9.json --xcap 0", 2, 1.5, 40),
    ("boundary --in huge.json --points 0 --R 1", 2, 1.5, 40),
    # reads on the 10^6-point line, the 786 430-point tree and the 992 970-point
    # stack over a 990-vertex path
    ("ball --in big.json --center 500000 --R 3", 0, 9, 410),
    ("boundary --in big.json --points 0,1,2,500000,999999 --R 2", 0, 9, 410),
    ("ball --in bigtree.json --center v --R 3", 0, 14, 440),
    ("ball --in bigstack.json --center 500|0 --R 3", 0, 13, 410),
    # a degree-2 tree whose path names would hold 2.5 * 10^9 characters
    ("ball --in longpath.json --center v --R 1", 2, 1.5, 40),
    # 5 000 interval candidates, counted in batches of at most 10^6 points
    ("folner --in big.json --R 3 --epsilon 1/10 --strategy intervals --budget 5000", 0, 9, 390),
    ("homology-fill --in big.json --chain dip.json --P 1", 0, 50, 1160),
    # a 10^6-point line tiled, verified and turned into a castle
    ("tile --strategy interval --in bigtile.json --R 5 --epsilon 1/100 --out big_tiling.json", 0, 7, 510),
    ("verify-tiling --in big_tiling.json", 0, 10, 500),
    ("castle from-tiling --in big_tiling.json --out big_castle.json", 0, 16, 530),
    ("castle defect --in big_castle.json --space bigtile.json --R 5", 0, 11, 500),
    ("castle refine --in big_castle.json --targets big_targets.json", 0, 9, 240),
    # a comparison the castle refuses
    ("castle compare --in big_castle.json --A 0,1,2 --B 500000,500001,500002,7", 1, 10, 210),
    # JSON nested 200 000 deep
    ("ball --in deep.json --center 0 --R 1", 2, 1.5, 40),
]


def write_inputs(directory: str) -> None:
    """Write every probe's input file; nothing is kept, so the children, forked
    from this process, start from its small resident set, not from the inputs."""
    n = 990  # the stack's base is an n-vertex path
    inputs = {
        "free1.json": {"rank": 1, "relations": []},
        "free2.json": {"rank": 2, "relations": []},
        "num23.json": {"rank": 2, "relations": [[[3, 0], [0, 2]]]},
        "rank3.json": {"rank": 3, "relations": [[[2, 0, 0], [0, 1, 1]], [[0, 3, 0], [1, 0, 1]]]},
        "a30.json": {"rank": 3, "relations": [[[1, 0, 0], [30, 0, 0]]]},
        "rank5.json": {
            "rank": 5,
            "relations": [
                [[18, 9, 16, 14, 6], [9, 2, 6, 7, 3]],
                [[5, 8, 17, 4, 11], [0, 10, 1, 8, 2]],
                [[4, 1, 11, 0, 8], [5, 13, 19, 18, 19]],
                [[2, 6, 7, 11, 17], [18, 13, 13, 9, 18]],
                [[12, 6, 7, 0, 11], [1, 11, 18, 17, 18]],
                [[16, 15, 13, 3, 19], [2, 8, 2, 14, 18]],
            ],
        },
        "rank2000.json": {"rank": 2000, "relations": [[[1] + [0] * 1999, [2] + [0] * 1999]]},
        # 100 relations at rank 101: 100 * 101 * 100 elimination steps
        "elim.json": {"rank": 101, "relations": [[[1] + [0] * 100] * 2] * 100},
        "rank1e9.json": {"rank": 1000000000, "relations": []},
        "huge.json": {"interval": {"lo": 0, "hi": 999999999999}},
        "big.json": {"interval": {"lo": 0, "hi": 999999}},
        "dip.json": {"coeffs": {"0": 1, "999999": -1}},
        "bigtile.json": {"interval": {"lo": 0, "hi": 999989, "halo_depth": 5}},
        "bigtree.json": {"tree": {"degree": 3, "core_depth": 17, "halo_depth": 1}},
        "longpath.json": {"tree": {"degree": 2, "core_depth": 50000}},
        "bigstack.json": {
            "stack": {
                "base": {"vertices": list(range(n)), "edges": [[i, i + 1] for i in range(n - 1)]},
                "K": 1003,
                "halo_depth": 2,
            }
        },
        "big_targets.json": {
            "targets": [[str(i) for i in range(0, 999990, 7)], [str(i) for i in range(500000, 600000)]]
        },
    }
    for name, data in inputs.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(data, fh)
    # JSON nested 200 000 deep
    with open(os.path.join(directory, "deep.json"), "w") as fh:
        fh.write("[" * 200000 + "]" * 200000)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


def run_probe(args: str, cwd: str, env: dict, time_cap: float) -> tuple[int | None, float, float]:
    """(exit code, or None when killed at the time cap; wall time in s; peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "coarse_lab.cli", *args.split()],
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        preexec_fn=_limit_address_space,
    )
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if not killed and time.perf_counter() - start > time_cap:
            proc.kill()
            killed = True
        time.sleep(0.01)
    elapsed = time.perf_counter() - start
    # the child is reaped here, not by Popen; tell Popen so
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if killed else proc.returncode), elapsed, usage.ru_maxrss / 1024


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        for args, expected, time_cap, rss_cap in PROBES:
            code, elapsed, rss = run_probe(args, tmp, env, time_cap)
            ok = code == expected and elapsed <= time_cap and rss <= rss_cap
            failed += not ok
            print(json.dumps({
                "probe": args,
                "exit": code,
                "expected": expected,
                "time_s": round(elapsed, 2),
                "time_cap_s": time_cap,
                "rss_mb": round(rss, 1),
                "rss_cap_mb": rss_cap,
                "ok": ok,
            }), flush=True)
    print(f"{len(PROBES) - failed} of {len(PROBES)} probes passed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
