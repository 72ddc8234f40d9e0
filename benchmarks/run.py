"""coarse-lab benchmark: one workload per run, a closed loop with one caller.

    python3 benchmarks/run.py --workload flow-solve --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The workload's fixed batch of instances (see
``workloads.py``) is built from the seed and then run again and again, one
instance after the other on one thread, until ``--seconds`` would be
exceeded.  Each instance's call is timed; its answer is checked afterwards,
outside the timed region.  An instance fails when its call raises or its
answer or certificate is rejected by ``checks.py``; the run goes on.

Between instances, every few milliseconds, a fixed reference loop is timed
too.  An instance's end-to-end latency is the median, over the batches of
the run, of its time in a batch multiplied by ``REFERENCE_S`` over the
reference loop's median in that batch: on a shared host other tenants slow
everything down for seconds to minutes at a time, and the ratio to the
reference loop timed alongside stays put while raw times do not.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median,
over fresh processes, of importing ``coarse_lab.cli`` and building the
batch's inputs.  ``--trace 1`` alternates untraced batches with batches
run under spans around the layer calls (``tracing.py``) and reports
per-layer metrics from the traced ones.

The last line of standard output is one JSON object: ``correct`` (no
instance returned a wrong answer or a certificate that does not replay;
calls that raise count as failures, not as wrong answers), ``attempted``,
``failed`` and ``metrics``.  A report with the machine header, the
per-family results and the failures goes to ``.bench_out/`` in the
checkout, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("tile-castle", "flow-solve", "type-algebra")  # why each: BENCHMARK.json

SETUP_PROBES = 5

# The reference loop's median on the host the benchmark was tuned on (Intel
# Xeon, 2 vCPUs, Python 3.11).  Reported times are at that host's speed.
REFERENCE_S = 7.0e-4
REFERENCE_EVERY_NS = 10_000_000

SPACE_LABELS = ("Line", "Subset", "Graph", "Stacked", "Box")
SPACE_OPS = ("ball_of", "boundary_of", "diameter_of")
CALLS_AND_SELF = (
    [f"space.{c}.{op}" for c in SPACE_LABELS for op in SPACE_OPS]
    + ["space.outer_boundary", "tiling.construct", "tiling.verify_tiling"]
    + [f"castle.{f}" for f in ("compare", "refine", "validate")]
    + ["amenability.doubling_check", "amenability.folner_search", "homology.min_norm_fill",
       "flows.max_flow", "flows.add_edge", "monoid._saturate"]
    + [f"monoid.{f}" for f in ("equal", "leq", "cancellative_equal", "properly_infinite", "refinement_instance")]
)
SELF_ONLY = ("castle.castle_from_tiling", "castle.invariance_defect", "monoid.check_almost_unperforated")

END_TO_END_UNITS = {
    "wall_s": "s", "instance_p50_ms": "ms", "instance_p90_ms": "ms",
    "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units.update({
        "amenability.folner_search.examined": "count",
        "amenability.folner_search.success_frac": "frac",
        "homology.solves_per_fill": "ratio",
        "homology.fill_scaling_exponent": "ratio",
        "flows.max_flow.nodes": "count",
        "flows.max_flow.arcs": "count",
        "flows.max_flow.errors": "count",
        "monoid._saturate.states": "count",
        "monoid._saturate.truncated_frac": "frac",
        "monoid.leq.resaturations": "count",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    })
    return units


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import coarse_lab.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "coarse_lab" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'coarse_lab'}; run inside a full checkout")
    sys.path.insert(0, str(SRC))
    import coarse_lab.cli

    origin = Path(coarse_lab.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"coarse_lab was imported from {origin}, not from {SRC}")


def setup(workload: str, seed: int):
    """Import the package and build the batch; returns (instances, seconds)."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    instances = workloads.build(workload, seed)
    return instances, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """setup() in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def reference_loop() -> int:
    """Fixed interpreter work like the package's: tuple keys, dict updates, small ints."""
    d: dict = {}
    acc = 0
    for i in range(1500):
        key = (i % 97, i % 89)
        d[key] = d.get(key, 0) + i
        acc += i * i % 7
    return acc + len(d)


def run_batch(instances, tracer=None) -> dict:
    """One pass over the batch; the checks and reference loops run between the timed calls.

    The reference loop runs before the first instance and then whenever
    REFERENCE_EVERY_NS have passed, so every batch has a sample.
    """
    import checks  # imports coarse_lab, so not before setup() has timed that

    latencies = []
    reference = []
    errors: dict = {}
    wrong: dict = {}
    clock = time.perf_counter_ns
    last_reference = clock() - REFERENCE_EVERY_NS
    for i, inst in enumerate(instances):
        if clock() - last_reference >= REFERENCE_EVERY_NS:
            t0 = clock()
            reference_loop()
            last_reference = clock()
            reference.append(last_reference - t0)
        if tracer is not None:
            tracer.instance = i
            tracer.enabled = True
        t0 = clock()
        try:
            out = inst.call()
            error = None
        except Exception as exc:  # a raising instance fails; the run goes on
            out, error = None, exc
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.enabled = False
        if error is not None:
            errors[i] = f"{type(error).__name__}: {str(error)[:120]}"
            continue
        try:
            inst.check(out)
        except checks.WrongAnswer as exc:
            wrong[i] = str(exc)
        except Exception as exc:  # a malformed answer can break a check
            wrong[i] = f"check raised {type(exc).__name__}: {exc}"
    return {"latencies": latencies, "reference": reference, "errors": errors, "wrong": wrong,
            "wall_s": sum(latencies) / 1e9}


def run_for(seconds: float, steps, min_rounds=1) -> list[list]:
    """Rounds of ``steps`` (each runs one whole batch) while the next round fits.

    At least ``min_rounds`` rounds run; returns each round's step results.
    """
    deadline = time.perf_counter() + seconds
    rounds = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        rounds.append([step() for step in steps])
        longest = max(longest, time.perf_counter() - t0)
        if len(rounds) >= min_rounds and time.perf_counter() + longest > deadline:
            return rounds


def instance_ms(batches) -> list[float]:
    """Each instance's latency: the median of its repetitions in the run, raw."""
    return [statistics.median(col) / 1e6 for col in zip(*(b["latencies"] for b in batches))]


def host_scale(batches) -> float:
    """REFERENCE_S over the reference loop's median in these batches."""
    return REFERENCE_S / (statistics.median(t for b in batches for t in b["reference"]) / 1e9)


def scaled_instance_ms(batches) -> list[float]:
    """Each instance's latency at the reference host's speed.

    Other tenants of a shared host slow the same code down by up to 2x, in
    spells of seconds to minutes.  Each repetition is scaled by its own
    batch's host_scale, which was measured in the same seconds, and the
    instance's latency is the median of the scaled repetitions.
    """
    scales = [host_scale([b]) for b in batches]
    return [
        statistics.median(t * s for t, s in zip(col, scales)) / 1e6
        for col in zip(*(b["latencies"] for b in batches))
    ]


def counts(batches) -> tuple[int, int]:
    """(attempted, failed) over all batches; failed = raised or rejected."""
    attempted = sum(len(b["latencies"]) for b in batches)
    return attempted, sum(len(b["errors"]) + len(b["wrong"]) for b in batches)


def end_to_end(batches, setup_samples) -> dict:
    per_instance = scaled_instance_ms(batches)
    attempted, failed = counts(batches)
    return {
        "wall_s": sum(per_instance) / 1e3,
        "instance_p50_ms": statistics.median(per_instance),
        "instance_p90_ms": statistics.quantiles(per_instance, n=10, method="inclusive")[8],
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup_samples) * host_scale(batches),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def scaling_exponent(instances, batches) -> float:
    """Least-squares slope of log time against log L for line fills, averaged over P."""
    per_instance = instance_ms(batches)
    by_p: dict = {}
    for inst, ms in zip(instances, per_instance):
        if inst.family == "line-fill":
            _, L, P = inst.params
            by_p.setdefault(P, []).append((math.log(L), math.log(ms)))
    slopes = [statistics.linear_regression(*zip(*points)).slope for points in by_p.values()]
    return statistics.fmean(slopes) if slopes else 0.0


def per_layer(instances, untraced, traced, stats, counters) -> dict:
    last = stats[-1]

    def calls(name):
        return last["calls"].get(name, 0)

    def self_s(name):
        return statistics.median(s["self_s"].get(name, 0.0) for s in stats)

    def share(part, whole):
        return part / whole if whole else 0.0

    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = self_s(name)
    m["amenability.folner_search.examined"] = counters["amenability.folner_search.examined"]
    m["amenability.folner_search.success_frac"] = share(
        counters["amenability.folner_search.successes"], calls("amenability.folner_search"))
    m["homology.solves_per_fill"] = share(
        last["nested"].get("homology.fill_solves", 0), calls("homology.min_norm_fill"))
    m["homology.fill_scaling_exponent"] = scaling_exponent(instances, untraced)
    m["flows.max_flow.nodes"] = counters["flows.max_flow.nodes"]
    m["flows.max_flow.arcs"] = counters["flows.max_flow.arcs"]
    m["flows.max_flow.errors"] = last["errors"].get("flows.max_flow", 0)
    m["monoid._saturate.states"] = counters["monoid._saturate.states"]
    m["monoid._saturate.truncated_frac"] = share(
        counters["monoid._saturate.truncated"], calls("monoid._saturate"))
    m["monoid.leq.resaturations"] = last["nested"].get("monoid.leq.resaturations", 0)
    m["trace.overhead_s"] = (sum(instance_ms(traced)) - sum(instance_ms(untraced))) / 1e3
    m["trace.unattributed_s"] = statistics.median(
        b["wall_s"] - s["top_level_s"] for b, s in zip(traced, stats)
    )
    return m


def machine_header(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = got.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit, "source_sha256": digest.hexdigest(), "seed": seed,
    }


def failure_summary(instances, batches) -> dict:
    out: dict = {}
    for b in batches:
        for kind in ("errors", "wrong"):
            for i, message in b[kind].items():
                key = f"{instances[i].label}: {message}"
                out[key] = out.get(key, 0) + 1
    return out


def family_summary(instances, batches) -> dict:
    per_instance = instance_ms(batches)
    fams: dict = {}
    for inst, ms in zip(instances, per_instance):
        f = fams.setdefault(inst.family, {"instances": 0, "total_ms": 0.0, "max_ms": 0.0})
        f["instances"] += 1
        f["total_ms"] += ms
        f["max_ms"] = max(f["max_ms"], ms)
    return fams


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            _, seconds = setup(args.workload, args.seed)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


def measure(args) -> int:
    instances, own_setup = setup(args.workload, args.seed)
    import tracing
    import workloads

    header = machine_header(args.seed)
    tracer = None
    setup_samples: list = []

    def plain():
        gc.collect()
        return run_batch(instances)

    if args.trace:
        # traced and untraced batches alternate, so that both meet the host
        # in the same states and their difference is the tracing overhead
        tracer = tracing.Tracer()
        stats: list = []
        counters: list = []

        def traced():
            gc.collect()
            tracer.clear()
            with tracing.instrument(tracer):
                batch = run_batch(instances, tracer)
            stats.append(tracer.layer_stats())
            counters.append(dict(tracer.counters))
            return batch

        rounds = run_for(args.seconds, [plain, traced], min_rounds=2)
        untraced = [r[0] for r in rounds]
        traced_batches = [r[1] for r in rounds]
        batches = untraced + traced_batches
        metrics = per_layer(instances, untraced, traced_batches, stats, defaultdict(int, counters[-1]))
        units = per_layer_units()
    else:
        # fresh-process setups between batches, so they meet the host in
        # the same states as the batches do
        def probe():
            if len(setup_samples) < SETUP_PROBES:
                setup_samples.append(probe_setup(args.workload, args.seed))

        def plain_then_probe():
            batch = plain()
            probe()
            return batch

        probe()
        batches = [r[0] for r in run_for(args.seconds, [plain_then_probe])]
        while len(setup_samples) < SETUP_PROBES:
            probe()
        metrics = end_to_end(batches, setup_samples)
        units = END_TO_END_UNITS
    attempted, failed = counts(batches)
    correct = not any(b["wrong"] for b in batches)
    failures = failure_summary(instances, batches)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "header": header,
        "instances": len(instances), "inputs_sha256": workloads.fingerprint(instances),
        "batches": len(batches), "batch_wall_s": [b["wall_s"] for b in batches],
        "latency_samples": attempted, "in_process_setup_s": own_setup, "setup_samples_s": setup_samples,
        "reference_samples": sum(len(b["reference"]) for b in batches), "host_scale": host_scale(batches),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "families": family_summary(instances, batches), "failures": failures,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.tsv.gz", [i.label for i in instances])

    print(f"# coarse-lab benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print("# " + "  ".join(f"{k}={v}" for k, v in header.items()))
    print(f"# closed loop, 1 caller: {len(instances)} instances per batch, {len(batches)} batches, "
          f"{attempted} latency samples; an instance's latency is the median of its repetitions")
    if not args.trace:
        print(f"# times are scaled per batch to REFERENCE_S over the reference loop's median "
              f"(over the run: {host_scale(batches):.4f})")
    for name, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:48s} {shown} {units[name]}")
    for what, count in sorted(failures.items()):
        print(f"# failed x{count}: {what}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
