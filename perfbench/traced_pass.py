"""One traced pass of a workload, in a process of its own.

    python3 perfbench/traced_pass.py --workload NAME --seed N \
        --untraced-wall SECONDS --spans PATH

Wraps the engine's public names (see ``tracing.py``), runs one pass, writes
every span to PATH as JSON and prints one JSON line with the pass's
``attempted`` and ``failed`` counts and the per-layer metrics.  Running it
apart keeps the untraced passes of the caller free of any wrapper.
"""

import argparse
import json
import sys

from tracing import Tracer, installed, layer_metrics
from verdicts import count_failures, load_reference
from workloads import WORKLOADS, build_plan, load_engine, run_pass


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--untraced-wall", type=float, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    engine = load_engine()
    plan = build_plan(engine, args.workload, args.seed)
    tracer = Tracer()
    with installed(tracer, engine):
        result = run_pass(engine, plan)
    for description, _ in result.raised:
        print(description, file=sys.stderr)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.span_dicts(), fh)
    failed = count_failures(result, load_reference(args.workload),
                            plan.attempted)
    print(json.dumps({
        "attempted": plan.attempted, "failed": failed,
        "metrics": layer_metrics(tracer, result.wall_s, args.untraced_wall)}))


if __name__ == "__main__":
    main()
