"""Tests of the benchmark's own machinery, on a few cheap cases.

    python3 -m pytest perfbench -q
"""

import copy
import signal
import time

from hostspeed import REFERENCE_ROUND_S, Sampler, normalize
from run import reportable_percentile
from tracing import Tracer, installed, layer_metrics, self_times
from verdicts import count_failures, verdict
from workloads import Plan, load_engine, run_pass

ENGINE = load_engine()

COUNT_SUFFIXES = (".calls", ".passes", ".coeff_ops", "_len_max")


def small_plan() -> Plan:
    """Two direct cases and one sweep: q-side congruence, root identity,
    classical checks with a conjectural failure, and a closed form."""
    cfg = ENGINE.cli.RunConfig(checks=["jj", "gw"], n_values=[3],
                               primes=[5], r_max=1, exponent_policy="both")
    return Plan(cases=[dict(kind="thm1-half", n=3, r=1),
                       dict(kind="param-roots-j", n=3, r=2, d=1, j=1)],
                configs=[cfg], attempted=5)


def traced_pass(plan: Plan):
    tracer = Tracer()
    with installed(tracer, ENGINE):
        result = run_pass(ENGINE, plan)
    return tracer, result


def test_self_time_subtracts_nested_children():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,6]
    spans = [["root", 0.0, 10.0, None, None], ["a", 1.0, 4.0, 0, None],
             ["a1", 2.0, 3.0, 1, None], ["b", 5.0, 6.0, 0, None]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, None, None], ["a", 1.0, 4.0, 0, None],
             ["b", 3.0, 5.0, 0, None], ["c", 9.0, 12.0, 0, None]]
    assert self_times(spans)[0] == 10.0 - 4.0 - 1.0


def test_percentile_needs_ten_samples_beyond_it():
    assert reportable_percentile(3) is None
    assert reportable_percentile(99) is None
    assert reportable_percentile(100) == 90
    assert reportable_percentile(999) == 90
    assert reportable_percentile(1000) == 99
    assert float(reportable_percentile(10000)) == 99.9


def test_flipped_reference_verdict_is_a_failure():
    plan = small_plan()
    result = run_pass(ENGINE, plan)
    assert not result.raised and len(result.entries) == plan.attempted
    reference = {e["label"]: verdict(e) for e in result.entries}
    assert count_failures(result, reference, plan.attempted) == 0
    for label in reference:
        flipped = copy.deepcopy(reference)
        flipped[label]["pass"] = not flipped[label]["pass"]
        assert count_failures(result, flipped, plan.attempted) == 1, label
    del reference["gw n=3"]
    assert count_failures(result, reference, plan.attempted) == 1


def test_conjectural_failure_matches_reference_but_asserted_one_does_not():
    result = run_pass(ENGINE, small_plan())
    jj = next(e for e in result.entries if e["label"] == "jj p=5 r=1 exp=4")
    assert not jj["pass"] and jj["conjectural"]
    broken = copy.deepcopy(result)
    gw = next(e for e in broken.entries if e["kind"] == "gw")
    gw["pass"] = False
    reference = {e["label"]: verdict(e) for e in broken.entries}
    assert count_failures(broken, reference, 5) == 1


def test_count_metrics_repeat_exactly_between_traced_passes():
    runs = []
    for _ in range(2):
        tracer, result = traced_pass(small_plan())
        runs.append(layer_metrics(tracer, result.wall_s, result.wall_s))
    counts = [name for name in runs[0] if name.endswith(COUNT_SUFFIXES)]
    assert "polycore.mul.coeff_ops" in counts
    assert runs[0]["polycore.valuation.calls"]["value"] > 0
    assert runs[0]["padic.calls"]["value"] == 2
    for name in counts:
        assert runs[0][name] == runs[1][name], name


def test_self_times_cover_the_traced_pass():
    tracer, result = traced_pass(small_plan())
    metrics = layer_metrics(tracer, result.wall_s, result.wall_s)
    assert 0 <= metrics["trace.unattributed_frac"]["value"] < 0.05
    case_spans = [s for s in tracer.spans if s[0] == "congruence.verify_case"]
    assert len(case_spans) == 3
    assert all(s[4] is not None for s in tracer.spans
               if s[0] == "polycore.valuation")


def test_identity_case_makes_no_valuation_call():
    plan = Plan(cases=[dict(kind="param-roots-c", n=3, r=2, d=1, j=1)],
                attempted=1)
    tracer, _ = traced_pass(plan)
    metrics = layer_metrics(tracer, 1.0, 1.0)
    assert metrics["polycore.valuation.calls"]["value"] == 0
    assert metrics["congruence.check_identity.calls"]["value"] > 0


def test_tracing_leaves_the_engine_unwrapped():
    mul = ENGINE.polycore.Poly.__mul__
    verify = ENGINE.cli.verify_case
    traced_pass(Plan())
    assert ENGINE.polycore.Poly.__mul__ is mul
    assert ENGINE.cli.verify_case is verify


def test_normalize_rescales_to_the_reference_round():
    assert normalize(3.0, [REFERENCE_ROUND_S]) == 3.0
    # A host twice as slow: rounds and work both take twice as long.
    assert normalize(6.0, [2 * REFERENCE_ROUND_S] * 3) == 3.0
    assert normalize(2.0, [0.004, 0.006]) == 2.0 * REFERENCE_ROUND_S / 0.005


def test_sampler_times_rounds_inside_the_body_and_disarms():
    handler = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
    assert len(sampler.rounds) >= 3
    assert sampler.busy_s == sum(sampler.rounds)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_sampler_has_a_round_even_for_an_empty_body():
    with Sampler() as sampler:
        pass
    assert len(sampler.rounds) == 1 and sampler.busy_s == 0.0
