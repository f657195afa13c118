"""What the benchmark in perfbench/ needs of the engine, checked in Tier-1.

perfbench/tracing.py wraps each (owner, attribute) of its _patch_points
by name for the traced pass (`perfbench/run.py --trace 1`), and
perfbench/workloads.py resets the cyclotomic memo to its preset entry for
Phi_1 before every pass.  Renaming or deleting any of them breaks the
benchmark without failing any engine test, so this file checks them.
perfbench/tracing.py is only imported, never changed.
"""

import importlib
import importlib.util
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("cli", "congruence", "cyclotomic", "polycore", "qseries")


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _engine():
    # the submodules by full name, as perfbench/workloads.py loads them
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"qcongruence.{name}")
        for name in SUBMODULES})


def test_every_traced_name_resolves():
    points = _tracing()._patch_points(_engine())
    assert points
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in points
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_cyclotomic_memo_keeps_its_preset_entry():
    memo = _engine().cyclotomic._CACHE
    assert memo[1].coeffs == (-1, 1)
