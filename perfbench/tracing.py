"""Span recorder for the traced run, and the per-layer metrics made from it.

The engine is not modified.  For the traced pass, each public name below is
replaced, at the module attribute its caller looks up, by a wrapper that
records a span ``[name, start, end, parent, case]`` and a few counts taken
from the call's arguments and result.  Spans stay in memory until the pass
ends.  ``case`` is the index of the enclosing case-level span (a
``verify_case`` or a classical check), so the spans of one case share it.

A layer's self time is its spans' time minus the part covered by their
child spans; summed over every span this is the wall time the spans cover.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

CASE_SPANS = frozenset({"congruence.verify_case", "padic"})

#: Span that is nearest around a multiply -> phase it is billed to.
_MUL_PHASES = {"qseries.expand": "expand",
               "congruence.check_congruence": "delta",
               "congruence.check_identity": "delta"}

_CLASSICAL_CHECKS = ("verify_van_hamme", "verify_swisher", "verify_m2",
                     "verify_lucas", "dwork_quotient_check")


def _coeffs(poly) -> tuple:
    # Poly or LaurentPoly
    return getattr(poly, "body", poly).coeffs


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.totals: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks[key]:
            self.peaks[key] = value

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(tracer, span, args,
        kwargs, result)`` runs inside the span and takes the counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            case = spans[parent][4] if parent is not None else None
            if case is None and name in CASE_SPANS:
                case = index
            span = [name, clock(), None, parent, case]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, span, args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def span_dicts(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "case")
        return [dict(zip(keys, span)) for span in self.spans]


# ---------------------------------------------------------------------------
# counts taken at the span boundaries


def _observe_mul(tr, span, args, kwargs, result):
    la = len(args[0].coeffs)
    other = args[1]
    lb = len(other.coeffs) if hasattr(other, "coeffs") else 1
    tr.totals["polycore.mul.coeff_ops"] += la * lb
    tr.peak("polycore.mul.operand_len_max", max(la, lb))


def _observe_valuation(tr, span, args, kwargs, result):
    coeffs = _coeffs(args[0])
    bits = max(map(abs, coeffs)).bit_length() if coeffs else 0
    tr.peak("polycore.valuation.input_len_max", len(coeffs))
    tr.peak("polycore.valuation.coeff_bits_max", bits)
    if result != math.inf:
        tr.totals["polycore.valuation.passes"] += result + 1
    parent = span[3]
    if parent is not None and \
            tr.spans[parent][0] == "congruence.check_congruence":
        # the cross-multiplied delta, seen where it is first used
        tr.peak("congruence.delta_len_max", len(coeffs))
        tr.peak("congruence.delta_bits_max", bits)


def _observe_check_congruence(tr, span, args, kwargs, result):
    lhs, rhs = args[0], args[1]
    counted = kwargs.get("count_denominators", True)
    for part in result.parts:
        tr.totals["congruence.required"] += part.required
        if counted:
            tr.totals["congruence.denominator_ord"] += \
                lhs.denominator.ord_cyclotomic(part.d) \
                + rhs.denominator.ord_cyclotomic(part.d)
        if part.found != math.inf:
            tr.totals["congruence.useful_passes"] += min(part.found,
                                                         part.required)
            tr.totals["congruence.passes"] += part.found + 1


def _observe_sum(tr, span, args, kwargs, result):
    tr.peak("qseries.numerator_len_max", len(_coeffs(result.numerator)))


def _observe_expand(tr, span, args, kwargs, result):
    tr.peak("qseries.expand.degree_max", result.high_degree)


def _observe_emit(tr, span, args, kwargs, result):
    tr.totals["cli.emit_report.bytes"] += len(result)


def _patch_points(engine):
    """(owner, attribute, span name, observer) for every wrapped name."""
    poly = engine.polycore.Poly
    cong, cli = engine.congruence, engine.cli
    points = [
        (poly, "__mul__", "polycore.mul", _observe_mul),
        (poly, "__rmul__", "polycore.mul", _observe_mul),
        (cong, "valuation_at", "polycore.valuation", _observe_valuation),
        (engine.cyclotomic, "cyclotomic", "cyclotomic", None),
        (cong, "cyclotomic", "cyclotomic", None),
        (cong, "sum_truncated", "qseries.sum_truncated", _observe_sum),
        (engine.qseries.FactoredProduct, "expand", "qseries.expand",
         _observe_expand),
        (cong, "check_congruence", "congruence.check_congruence",
         _observe_check_congruence),
        (cong, "check_identity_equal", "congruence.check_identity", None),
        (cong, "verify_case", "congruence.verify_case", None),
        (cli, "verify_case", "congruence.verify_case", None),
        (cli, "sweep", "cli.sweep", None),
        (cli, "emit_report", "cli.emit_report", _observe_emit),
    ]
    points += [(cli, name, "padic", None) for name in _CLASSICAL_CHECKS]
    return points


@contextmanager
def installed(tracer: Tracer, engine):
    """Wrap every traced name for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, observe in _patch_points(engine):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# self times and metrics


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


#: Span names, one per layer boundary; each gives a ``<name>.s`` self time.
LAYER_SPANS = ("polycore.mul", "polycore.valuation", "cyclotomic",
               "qseries.sum_truncated", "qseries.expand",
               "congruence.check_congruence", "congruence.check_identity",
               "congruence.verify_case", "padic", "cli.sweep",
               "cli.emit_report")

#: Span names whose call count is a per-layer metric.
COUNTED_CALLS = ("polycore.mul", "polycore.valuation", "cyclotomic",
                 "qseries.sum_truncated", "qseries.expand",
                 "congruence.check_congruence", "congruence.check_identity",
                 "padic")

PEAKS = ("polycore.mul.operand_len_max", "polycore.valuation.input_len_max",
         "polycore.valuation.coeff_bits_max", "qseries.numerator_len_max",
         "qseries.expand.degree_max", "congruence.delta_len_max",
         "congruence.delta_bits_max")

#: Per-layer metric name -> unit, in the order they are reported.
UNITS = {
    **{f"{name}.calls": "count" for name in COUNTED_CALLS},
    **{f"{name}.s": "s" for name in LAYER_SPANS},
    "polycore.mul.delta_s": "s",
    "polycore.mul.build_s": "s",
    "polycore.mul.expand_s": "s",
    "polycore.mul.coeff_ops": "count",
    "polycore.valuation.passes": "count",
    **{name: ("bits" if name.endswith("bits_max") else "count")
       for name in PEAKS},
    "congruence.useful_pass_ratio": "ratio",
    "congruence.denominator_share": "ratio",
    "cli.emit_report.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer: Tracer, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """Per-layer values of one traced pass, keyed like ``UNITS``."""
    spans = tracer.spans
    selfs = self_times(spans)
    values = defaultdict(float)
    calls = defaultdict(int)
    for span, own in zip(spans, selfs):
        name = span[0]
        calls[name] += 1
        values[f"{name}.s"] += own
        if name == "polycore.mul":
            parent = span[3]
            enclosing = spans[parent][0] if parent is not None else ""
            values[f"polycore.mul.{_MUL_PHASES.get(enclosing, 'build')}_s"] \
                += own
    for name in COUNTED_CALLS:
        values[f"{name}.calls"] = calls[name]
    totals, peaks = tracer.totals, tracer.peaks
    for key in ("polycore.mul.coeff_ops", "polycore.valuation.passes",
                "cli.emit_report.bytes"):
        values[key] = totals[key]
    for key in PEAKS:
        values[key] = peaks[key]
    values["congruence.useful_pass_ratio"] = (
        totals["congruence.useful_passes"] / totals["congruence.passes"]
        if totals["congruence.passes"] else 0.0)
    values["congruence.denominator_share"] = (
        totals["congruence.denominator_ord"] / totals["congruence.required"]
        if totals["congruence.required"] else 0.0)
    values["trace.wall_s"] = traced_wall_s
    values["trace.unattributed_frac"] = 1.0 - sum(selfs) / traced_wall_s
    values["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items()}
