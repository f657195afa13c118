"""Verdicts of report entries, compared against the stored reference.

A verdict is what a check decided, not the raw numbers behind it: for
q-side entries the pass flag, whether the two sides were identically equal,
each modulus part's expectation and whether it was met, and the boolean
findings in ``extra`` (the sextic "printed" reading, the closed forms).
Raw ``required`` and ``found`` are left out on purpose, because
cross-multiplying over the lcm of the denominators legitimately shifts both
by the same amount while keeping every margin.  For classical entries the
verdict is the pass flag, plus the valuation of the conjectural ``jj`` runs,
whose exact value 3r is itself a recorded finding.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _met(part: dict) -> bool:
    if part["margin"] is None:          # identically zero: infinite margin
        return part["expect"] == "ge"
    return part["margin"] >= 0 if part["expect"] == "ge" else part["margin"] < 0


def _findings(extra: dict) -> dict:
    return {key: value for key, value in extra.items()
            if isinstance(value, bool)
            or (isinstance(value, dict)
                and all(isinstance(v, bool) for v in value.values()))}


def verdict(entry: dict) -> dict:
    out = {"pass": entry["pass"]}
    if entry["type"] == "q":
        out["identically_equal"] = entry["identically_equal"]
        out["parts"] = [[p["component"], p["d"], p["expect"], _met(p)]
                        for p in entry["parts"]]
        findings = _findings(entry["extra"])
        if findings:
            out["findings"] = findings
    elif entry["kind"] == "jj" and entry["conjectural"]:
        out["valuation"] = entry["valuation"]
    return out


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def failed_labels(entries: list, reference: dict) -> set:
    """Labels of entries whose verdict differs from the reference (or that
    the reference does not know), plus asserted (non-conjectural) failures."""
    return {e["label"] for e in entries
            if verdict(e) != reference.get(e["label"])
            or (not e["conjectural"] and not e["pass"])}


def count_failures(result, reference: dict, attempted: int) -> int:
    """Failed cases of one pass: raised, verdict mismatches and asserted
    failures, each case counted once, plus cases that left no entry."""
    missing = attempted - result.raised_cases - len(result.entries)
    return (result.raised_cases + max(missing, 0)
            + len(failed_labels(result.entries, reference)))
