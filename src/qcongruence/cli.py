"""Batch driver: single cases, config-file sweeps, machine-readable reports.

Subcommands
    verify     one q-side check from flags
    sweep      run the cartesian case grid of a JSON config file
    classical  one prime-power check from flags
    list       enumerate supported checks, as the check table holds them

Every check is one row of CHECKS: its name, description, parameter axes and
runner, the q-side rows built from congruence.CHECKS.  A case is plain
data, (name, params), so it can be pickled.  run_case names and times a
classical report by congruence.Report.named, as verify_case does a q-side
one; congruence.label labels every error entry the same way.

Exit codes: 0 all asserted (non-conjectural) cases pass; 1 some asserted
case failed; 2 usage or config error; 3 report write error; 4 some sweep
case raised and no asserted case failed.  Conjectural cases are always
executed and reported but never fail a run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from . import __version__
from .congruence import CHECKS as Q_CHECKS
from .congruence import admissible_root_indices, label, verify_case
from .padic import (
    MIN_PRIME,
    dwork_quotient_check,
    is_prime,
    verify_lucas,
    verify_m2,
    verify_swisher,
    verify_van_hamme,
)


def _first_repeat(values: list):
    # the first value that also occurs earlier in values, or None
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


@dataclass
class RunConfig:
    """Sweep configuration; JSON object with exactly these fields, of
    which only checks is required."""

    checks: list[str] = field(default_factory=list)
    n_values: list[int] = field(default_factory=list)
    r_max: int = 1
    d_values: list[int] = field(default_factory=lambda: [1, 2])
    primes: list[int] = field(default_factory=list)
    t_values: list[int] = field(default_factory=lambda: [3, 5, 7])
    exponent_policy: str = "proven"
    output_path: str = ""
    format: str = "json"
    dwork_degree_cap: int = 50

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        defaults = RunConfig().__dict__
        unknown = set(data) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key, value in data.items():
            # each field takes its default's exact type: no bool for an int
            listed = isinstance(defaults[key], list)
            kind = (str if key == "checks" else int) if listed \
                else type(defaults[key])
            items = value if listed else [value]
            if listed and type(value) is not list \
                    or any(type(v) is not kind for v in items):
                raise ValueError(f"{key} must be {'a list of ' * listed}"
                                 f"{kind.__name__}, got {value!r}")
            repeat = _first_repeat(items)
            if repeat is not None:
                raise ValueError(f"duplicate value {repeat!r} in {key}")
        if "checks" not in data:
            raise ValueError("checks is required")
        cfg = RunConfig(**data)
        for n in cfg.n_values:
            if n < 3 or n % 2 == 0:
                raise ValueError("n values must be odd and >= 3")
        for t in cfg.t_values:
            if t % 2 == 0:
                raise ValueError(f"t values must be odd, got {t}")
        for p in cfg.primes:
            if p < 3 or not is_prime(p):
                raise ValueError(f"primes must be odd primes, got {p}")
        for name in cfg.checks:
            if name not in CHECKS:
                raise ValueError(f"unknown check {name!r}")
            low = [p for p in cfg.primes if p < MIN_PRIME.get(name, 0)]
            if low:
                raise ValueError(f"check {name!r} needs primes >= "
                                 f"{MIN_PRIME[name]}, got {low[0]}")
        if cfg.exponent_policy not in ("proven", "conjectural", "both"):
            raise ValueError("exponent_policy must be proven|conjectural|both")
        if cfg.format not in ("json", "csv", "text"):
            raise ValueError("format must be json|csv|text")
        if cfg.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if any(d not in (1, 2) for d in cfg.d_values):
            raise ValueError("d values must be 1 or 2")
        if cfg.dwork_degree_cap < 0:
            raise ValueError(f"dwork_degree_cap must be >= 0, "
                             f"got {cfg.dwork_degree_cap}")
        # an empty axis (no n_values, say) would leave a named check unrun
        for name in cfg.checks:
            if not CHECKS[name].grid(cfg, {}):
                raise ValueError(f"check {name!r} gets no case")
        return cfg

    def digest(self, pinned: dict = None) -> str:
        """Hash of the fields and of the axes a single-case command pins
        beyond them (none for a sweep).  Where the report goes is not
        part of the grid: output_path and format hash at their defaults."""
        blob = json.dumps(dict(self.__dict__, output_path="", format="json"),
                          sort_keys=True)
        if pinned:
            blob += json.dumps(pinned, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ReportSet:
    meta: dict
    entries: list[dict]

    def asserted_failures(self) -> int:
        return sum(1 for e in self.entries if e["type"] != "error"
                   and not e["conjectural"] and not e["pass"])

    def errors(self) -> int:
        return sum(1 for e in self.entries if e["type"] == "error")


# ---------------------------------------------------------------------------
# the check table


@dataclass
class Check:
    """One row of the check table: run(name, **params) returns the report
    of one case, and axes name its params in grid order.  A sweep takes an
    axis's values from _AXIS_VALUES, the exponent's from exponents."""

    name: str
    description: str
    axes: tuple[str, ...]
    run: Callable
    exponents: Callable = None

    @property
    def classical(self) -> bool:
        return "p" in self.axes

    def grid(self, cfg: RunConfig, pinned: dict) -> list[tuple]:
        """(name, params) at every grid point under cfg; pinned maps an
        axis to the list of its values, in place of cfg's."""
        points = [{}]
        for axis in self.axes:
            values = _AXIS_VALUES.get(axis, self.exponents)
            points = [dict(params, **{axis: value}) for params in points
                      for value in pinned.get(axis) or values(cfg, params)]
        return [(self.name, params) for params in points]


#: Axis -> its values in a sweep, from the config and the axes before it.
_AXIS_VALUES = {
    "n": lambda cfg, params: cfg.n_values,
    "r": lambda cfg, params: range(1, cfg.r_max + 1),
    "d": lambda cfg, params: cfg.d_values,
    "j": lambda cfg, params: admissible_root_indices(
        params["n"], params["r"], params["d"]),
    "t": lambda cfg, params: cfg.t_values,
    "p": lambda cfg, params: cfg.primes,
    "kcap": lambda cfg, params: [cfg.dwork_degree_cap],
}


# Runners look the engine's checks up as attributes of this module at call
# time, so a name replaced here (by a test or a tracer) is the one called.
def _run_q(name, **params):
    return verify_case(name, **params)


def _by_policy(cfg: RunConfig, params: dict) -> list[int]:
    # the quotient checks are proven modulo p^{3r}; 4r is conjectural
    return [k * params["r"] for k, tag in ((3, "proven"), (4, "conjectural"))
            if cfg.exponent_policy in (tag, "both")]


_P_R_EXP = ("p", "r", "exponent")

CHECKS = {check.name: check for check in (
    *(Check(name, description, axes, _run_q)
      for name, (_, axes, description) in Q_CHECKS.items()),
    Check("c2", "half-range quartic sum == p mod p^exp (proven to exp 4)",
          ("p", "exponent"), lambda name, **kw: verify_van_hamme(name, **kw),
          lambda cfg, params: [4]),
    Check("j2", "half-range sextic sum == +-p mod p^exp (proven to exp 4)",
          ("p", "exponent"), lambda name, **kw: verify_van_hamme(name, **kw),
          lambda cfg, params: [4]),
    Check("c3", "half-range quartic quotient congruence mod p^exp",
          _P_R_EXP, lambda name, **kw: verify_swisher(name, **kw), _by_policy),
    Check("j3", "half-range sextic quotient congruence mod p^exp",
          _P_R_EXP, lambda name, **kw: verify_swisher(name, **kw), _by_policy),
    Check("cc", "full-range quartic quotient congruence mod p^exp",
          _P_R_EXP, lambda name, **kw: verify_swisher(name, **kw), _by_policy),
    Check("jj", "full-range sextic quotient congruence mod p^exp",
          _P_R_EXP, lambda name, **kw: verify_swisher(name, **kw), _by_policy),
    Check("m2", "half and full quartic sums == eta coefficient mod p^3",
          ("p",), lambda name, p: verify_m2(p)),
    Check("dwork", "cross-multiplied truncation compatibility mod p^r",
          ("p", "r", "kcap", "exponent"),
          lambda name, p, r, kcap, exponent: dwork_quotient_check(
              p, r, kcap, exponent), lambda cfg, params: [params["r"]]),
    Check("lucas", "central-binomial vanishing windows at order 4",
          ("p", "r"), lambda name, p, r: verify_lucas(p, r)),
)}


# ---------------------------------------------------------------------------
# case enumeration and execution


def enumerate_cases(cfg: RunConfig) -> list[tuple]:
    """(name, params) for every case of the config's grid."""
    return [spec for name in cfg.checks
            for spec in CHECKS[name].grid(cfg, {})]


def run_case(spec: tuple) -> dict:
    """The report entry of one (name, params) case.  A classical report is
    named and timed here, a q-side one by verify_case."""
    name, params = spec
    check = CHECKS[name]
    start = time.perf_counter()
    report = check.run(name, **params)
    if check.classical:
        report.named(name, params, start)
    return report.to_dict()


def _run_recorded(spec: tuple) -> dict:
    # a raising case becomes an error entry, never an asserted failure
    start = time.perf_counter()
    try:
        return run_case(spec)
    except Exception as exc:
        name, params = spec
        return {"type": "error", "label": label(name, params), "kind": name,
                "params": dict(params), "conjectural": False, "pass": False,
                "error": " ".join(f"{type(exc).__name__}: {exc}".split()),
                "elapsed_ms": round((time.perf_counter() - start) * 1e3, 3)}


def sweep(cfg: RunConfig) -> ReportSet:
    """Run the cases of the config's grid one after another in this process.

    Entries are ordered by case label, so the report content is
    deterministic for a fixed config.  A case that raises is recorded as
    an error entry and never aborts a sweep.
    """
    return _report_set([_run_recorded(spec) for spec in enumerate_cases(cfg)],
                       cfg.digest())


def _report_set(entries: list[dict], digest: str) -> ReportSet:
    entries.sort(key=lambda e: e["label"])
    report_set = ReportSet(meta={
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "engine_version": __version__,
        "config_digest": digest,
        "case_count": len(entries),
    }, entries=entries)
    report_set.meta.update(asserted_failures=report_set.asserted_failures(),
                           errors=report_set.errors())
    return report_set


def canonical_entries(report_set: ReportSet) -> list[dict]:
    """Entries with volatile fields removed; identical across reruns."""
    return [{k: v for k, v in e.items() if k != "elapsed_ms"}
            for e in report_set.entries]


# ---------------------------------------------------------------------------
# serialization


def _flat_rows(report_set: ReportSet) -> list[dict]:
    # one row per modulus part; an infinite valuation (None) reads "inf"
    rows = []
    for e in report_set.entries:
        base = {key: e.get(key, "") for key in (
            "label", "kind", "conjectural", "pass", "elapsed_ms", "error")}
        blank = dict(base, d="", required="", found="", margin="")
        if e["type"] == "error":
            rows.append(dict(blank, component="error"))
        elif e["type"] == "classical":
            rows.append(dict(blank, component="", required=e["exponent"],
                             found=e["valuation"]))
        elif e["parts"]:
            rows += [dict(base, component=p["component"], d=p["d"],
                          required=p["required"], found=p["found"],
                          margin=p["margin"]) for p in e["parts"]]
        else:
            rows.append(dict(blank, component="identity"))
    return [{k: "inf" if v is None else v for k, v in row.items()}
            for row in rows]


_CSV_FIELDS = ["label", "kind", "conjectural", "pass", "component", "d",
               "required", "found", "margin", "elapsed_ms", "error"]


def emit_report(report_set: ReportSet, fmt: str) -> bytes:
    """Serialize a report set; identical input gives identical bytes."""
    if fmt == "json":
        payload = {"meta": report_set.meta, "entries": report_set.entries}
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        writer.writerows(_flat_rows(report_set))
        return buf.getvalue().encode()
    if fmt == "text":
        rows = _flat_rows(report_set)
        headers = ["label", "part", "d", "req", "found", "margin", "pass"]
        table = [[r["label"], r["component"], str(r["d"]), str(r["required"]),
                  str(r["found"]), str(r["margin"]),
                  "ERROR" if r["error"] else
                  ("PASS" if r["pass"] else "FAIL") + "*" * r["conjectural"]]
                 for r in rows]
        widths = [max(len(h), *(len(row[i]) for row in table)) if table
                  else len(h) for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for row in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        lines += [f"{r['label']}: {r['error']}" for r in rows if r["error"]]
        lines.append(f"asserted failures: {report_set.asserted_failures()}"
                     f"  errors: {report_set.errors()}  (* = conjectural)")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def _finish(report_set: ReportSet, fmt: str, path: str) -> int:
    """Write the report to path (stdout for "" or "-"); the exit code."""
    blob = emit_report(report_set, fmt)
    if not path or path == "-":
        sys.stdout.write(blob.decode())
    else:
        try:
            with open(path, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 3
    return 1 if report_set.asserted_failures() \
        else 4 if report_set.errors() else 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# subcommands


def _cmd_single(args) -> int:
    # verify and classical: the cases of one check, from flags.  A flag left
    # out is None; a given one pins its axis, and one the check does not
    # take is an error.
    classical = args.command == "classical"
    if classical:
        cfg = RunConfig(checks=[args.check], primes=[args.p],
                        r_max=args.r or 1,
                        dwork_degree_cap=50 if args.kcap is None
                        else args.kcap)
        flags = {"r": args.r, "exponent": args.exp, "kcap": args.kcap}
    else:
        cfg = RunConfig(checks=[args.check], n_values=[args.n],
                        r_max=args.r or 1,
                        d_values=[2 if args.d is None else args.d],
                        t_values=args.t or [3, 5, 7])
        flags = {"r": args.r, "d": args.d, "j": args.j, "t": args.t}
    check = CHECKS.get(args.check)
    if check is None or check.classical != classical:
        side = "classical " * classical
        return _usage_error(f"unknown {side}check {args.check!r}")
    pinned = {}
    for axis, value in flags.items():
        if value is None:
            continue
        if axis not in check.axes:
            return _usage_error(f"check {check.name!r} takes no {axis}")
        values = value if isinstance(value, list) else [value]
        repeat = _first_repeat(values)
        if repeat is not None:
            return _usage_error(f"duplicate value {repeat} in --{axis}")
        if axis not in ("d", "kcap"):   # these reach the grid and digest
            pinned[axis] = values       # as cfg.d_values, dwork_degree_cap
    try:
        entries = [run_case(spec) for spec in check.grid(cfg, pinned)]
    except (ValueError, ZeroDivisionError) as exc:
        return _usage_error(str(exc))
    return _finish(_report_set(entries, cfg.digest(pinned)), args.format,
                   args.output)


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_dict(json.load(fh))
    except OSError as exc:
        return _usage_error(f"cannot read config: {exc}")
    except (ValueError, TypeError) as exc:
        return _usage_error(f"bad config: {exc}")
    # the flags choose where the report goes, not what the digest hashes
    return _finish(sweep(cfg), args.format or cfg.format,
                   args.output or cfg.output_path)


def _cmd_list(_args) -> int:
    for title, classical in (("q-side checks:", False),
                             ("classical checks:", True)):
        print(title)
        for check in CHECKS.values():
            if check.classical == classical:
                print(f"  {check.name:<18} {check.description}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcongruence",
        description="exact certification of cyclotomic q-congruences and "
                    "their prime-power limits")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one q-side check")
    p_classical = sub.add_parser("classical", help="run one classical check")
    for single in (p_verify, p_classical):
        single.add_argument("--check", required=True)
        single.add_argument("--r", type=int, default=None)
        single.add_argument("--format", default="text",
                            choices=("json", "csv", "text"))
        single.add_argument("--output", default="")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--d", type=int, default=None, choices=(1, 2),
                          help="divisor index; default: 2")
    p_verify.add_argument("--j", type=int, default=None,
                          help="root index; default: all admissible")
    p_verify.add_argument("--t", type=int, action="append", default=None,
                          help="sampled specialization exponent(s)")
    p_classical.add_argument("--p", type=int, required=True)
    p_classical.add_argument("--exp", type=int, default=None)
    p_classical.add_argument("--kcap", type=int, default=None,
                             help="dwork degree cap; default: 50")

    p_sweep = sub.add_parser("sweep", help="run a config-file case grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--output", default="")
    p_sweep.add_argument("--format", default="",
                         choices=("", "json", "csv", "text"))

    sub.add_parser("list", help="enumerate supported checks")
    return parser


_COMMANDS = {
    "verify": _cmd_single,
    "classical": _cmd_single,
    "sweep": _cmd_sweep,
    "list": _cmd_list,
}


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
