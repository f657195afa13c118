"""Benchmark of the qcongruence certification engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process with one thread runs whole
passes over the workload's case list for S seconds (at least one pass; a
pass starts only if one as long as the last still fits), checks every
verdict against ``reference.json`` and prints the metrics, then as its
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: ``norm_wall_s``
(median time of a pass) and ``setup_s`` (median of several
fresh-interpreter set-ups), both normalized for host speed (see
``hostspeed.py``), and ``peak_rss_mb``.  With ``--trace 1`` they are the per-layer ones, from
one extra pass made in a process of its own with spans around the engine's
public names.  ``failed_frac`` is ``failed / attempted``; it is printed but
kept out of the metrics, because it is 0 whenever the engine is right.

Every result, with the machine it ran on, is also written to
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from hostspeed import Sampler, normalize
from verdicts import count_failures, load_reference
from workloads import WORKLOADS, build_plan, load_engine, run_pass

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Fresh-interpreter set-ups per run; their median is ``setup_s``.
SETUP_REPEATS = 21

#: Percentiles above the median, highest first, that a timing may report.
PERCENTILES = (Fraction("99.9"), Fraction(99), Fraction(90))

CHILD_TIMEOUT_S = 150


def reportable_percentile(n: int):
    """The highest percentile in PERCENTILES with at least ten of n samples
    beyond it, or None."""
    for p in PERCENTILES:
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def summary(name: str, samples: list, unit: str) -> str:
    line = (f"{name}: median {statistics.median(samples):.6g} {unit} "
            f"(n={len(samples)})")
    p = reportable_percentile(len(samples))
    if p is not None:
        rank = math.ceil(p * len(samples) / 100)
        line += f", p{float(p):g} {sorted(samples)[rank - 1]:.6g} {unit}"
    return line


def machine() -> dict:
    info = {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches_per_cpu0"] = caches
    return info


def _child(script: str, *args) -> str:
    cmd = [sys.executable, str(HERE / script), *map(str, args)]
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S).stdout


def measure_setup(workload: str, seed: int) -> tuple:
    """Set-up times less the calibration rounds run inside them, raw and
    normalized by those rounds."""
    raw, normalized = [], []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        probe = json.loads(_child("setup_probe.py", "--workload", workload,
                                  "--seed", seed))
        raw.append(probe["ready"] - start - probe["machinery_s"]
                   - probe["busy_s"])
        normalized.append(normalize(raw[-1], probe["rounds"]))
    return raw, normalized


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    engine = load_engine()
    reference = load_reference(args.workload)
    plan = build_plan(engine, args.workload, args.seed)
    host = machine()
    print(f"machine: {json.dumps(host, sort_keys=True)}")
    setup, setup_norm = ([], []) if args.trace else \
        measure_setup(args.workload, args.seed)

    # Per pass: its wall time less the calibration rounds that ran inside
    # it, and that time normalized by those rounds.
    passes, passes_norm, round_means, attempted, failed = [], [], [], 0, 0
    start = time.perf_counter()
    last = 0.0
    # Start another pass only if one as long as the last still fits.
    while not passes or time.perf_counter() - start + last <= args.seconds:
        with Sampler() as sampler:
            result = run_pass(engine, plan)
        last = result.wall_s
        for description, _ in result.raised:
            print(description, file=sys.stderr)
        passes.append(result.wall_s - sampler.busy_s)
        passes_norm.append(normalize(passes[-1], sampler.rounds))
        round_means.append(statistics.fmean(sampler.rounds))
        attempted += plan.attempted
        failed += count_failures(result, reference, plan.attempted)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(passes)

    OUT.mkdir(exist_ok=True)
    if args.trace:
        traced = json.loads(_child(
            "traced_pass.py", "--workload", args.workload, "--seed",
            args.seed, "--untraced-wall", repr(wall_s), "--spans",
            OUT / f"spans-{args.workload}-seed{args.seed}.json"))
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = traced["metrics"]
    else:
        metrics = {
            "norm_wall_s": {"value": statistics.median(passes_norm),
                            "unit": "s"},
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"of {plan.attempted} cases")
    print(summary("norm_wall_s", passes_norm, "s"))
    print(summary("wall_s (raw, not normalized)", passes, "s"))
    print(summary("calibration round", round_means, "s"))
    if setup:
        print(summary("setup_s", setup_norm, "s"))
        print(summary("setup_s (raw, not normalized)", setup, "s"))
    print(f"peak_rss_mb: {peak_rss_mb:.6g} MB (n=1)")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} "
          f"cases failed)")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": host,
              "samples": {"norm_wall_s": passes_norm, "wall_s": passes,
                          "round_mean_s": round_means,
                          "setup_s": setup_norm, "setup_raw_s": setup},
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
