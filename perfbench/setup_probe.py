"""Set-up as a user pays it, in a fresh interpreter.

    python3 perfbench/setup_probe.py --workload NAME --seed N

Imports qcongruence and builds the workload's case list while a
``hostspeed.Sampler`` times calibration rounds, then prints one JSON line:
``ready`` (the system-wide monotonic clock, ``time.monotonic``, when the
case list is built), ``machinery_s`` (the time spent importing
``hostspeed`` itself), ``busy_s`` and ``rounds`` (the calibration rounds).
The caller reads the clock before starting this process, so
``ready - start - machinery_s - busy_s`` covers interpreter start, the
import and the case list.  Nothing here touches the cyclotomic memo, so it
stays cold as in a fresh sweep.
"""

import argparse
import json
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    before = time.monotonic()
    from hostspeed import SETUP_INTERVAL_S, Sampler
    machinery_s = time.monotonic() - before
    with Sampler(SETUP_INTERVAL_S) as sampler:
        from workloads import build_plan, load_engine
        build_plan(load_engine(), args.workload, args.seed)
        ready = time.monotonic()
    print(json.dumps({"ready": ready, "machinery_s": machinery_s,
                      "busy_s": sampler.busy_s, "rounds": sampler.rounds}))


if __name__ == "__main__":
    main()
