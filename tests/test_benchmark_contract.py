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


def test_traced_cases_run_with_every_observer():
    # The tracer installed as perfbench/run.py --trace 1 installs it: one
    # theorem, one sampled, one root, one lemma, one product conjecture
    # (the local path) and one half-vs-full-m case (a tail against 0) and
    # a sum run with every name wrapped, and no observer raises on what it
    # reads (the sides' .denominator.ord_cyclotomic, the .coeffs of
    # valuation_at's argument, sum_truncated(...).numerator).
    tracing, engine = _tracing(), _engine()
    cong = engine.congruence
    tracer = tracing.Tracer()
    with tracing.installed(tracer, engine):
        reports = [cong.verify_case("thm1-full", n=3, r=2),
                   cong.verify_case("param-sampled-j", n=3, r=1, d=2, t=7),
                   cong.verify_case("param-roots-c", n=3, r=2, d=1, j=1),
                   cong.verify_case("lemma31", n=5),
                   cong.verify_case("conj43", n=3, r=1, d=1),
                   cong.verify_case("half-vs-full-m", n=3, r=1)]
        cong.sum_truncated(engine.qseries.FamilySpec("J", 1, 3))
    assert all(report.passed for report in reports)
    calls = {span[0] for span in tracer.spans}
    assert {"congruence.check_congruence", "congruence.check_identity",
            "polycore.valuation", "qseries.sum_truncated"} <= calls
    assert tracer.peaks["congruence.delta_len_max"] > 0
    assert tracer.totals["congruence.required"] > 0
