"""Regenerate ``reference.json``: the verdict of every case any seed can run.

    python3 perfbench/make_reference.py

Runs each workload once over its full parameter pool (every sampled t and
every prime), checks the two findings the README records, and writes the
verdicts keyed by workload and case label.  Run it only at a commit whose
verdicts are trusted; the benchmark compares every later run against it.
"""

from __future__ import annotations

import json
import sys

from verdicts import REFERENCE_PATH, verdict
from workloads import WORKLOADS, build_plan, load_engine, run_pass


def check_readme_findings(entries: list) -> None:
    """The sextic "printed" reading fails at every root specialization whose
    target sum keeps terms beyond k = 0 (r > 1 and j > 0; at j = 0 the
    target's numerator vanishes from k = 1 on), and the conjectural jj run
    at exponent 4r fails with valuation exactly 3r."""
    for e in entries:
        if e["kind"] == "jj" and e["conjectural"]:
            if e["pass"] or e["valuation"] != 3 * e["params"]["r"]:
                raise AssertionError(f"jj finding changed: {e['label']}")
        readings = e["extra"].get("readings")
        if (readings and e["params"]["r"] > 1 and e["params"]["j"] > 0
                and readings["printed"]):
            raise AssertionError(f"printed reading finding changed: "
                                 f"{e['label']}")


def main() -> int:
    engine = load_engine()
    reference = {}
    for workload in WORKLOADS:
        plan = build_plan(engine, workload, 0, full_pool=True)
        result = run_pass(engine, plan)
        if result.raised:
            for description, _ in result.raised:
                print(description, file=sys.stderr)
            return 1
        check_readme_findings(result.entries)
        reference[workload] = {e["label"]: verdict(e)
                               for e in result.entries}
        print(f"{workload}: {len(result.entries)} verdicts, "
              f"{result.wall_s:.1f} s")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
