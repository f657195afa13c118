"""Batch driver: single cases, config-file sweeps, machine-readable reports.

Subcommands
    verify     one q-side check from flags
    sweep      run the cartesian case grid of a JSON config file
    classical  one prime-power check from flags
    list       enumerate supported checks
    bench      timing table for the polynomial kernels and the valuation

Exit codes: 0 all asserted (non-conjectural) cases pass; 1 some asserted
case failed; 2 usage error; 3 report write error.  Conjectural cases are
always executed and reported but never fail a run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import __version__
from .congruence import (
    CheckKind,
    admissible_root_indices,
    verify_case,
)
from .cyclotomic import cyclotomic, valuation_at
from .padic import (
    CLASSICAL_KINDS,
    MIN_PRIME,
    dwork_quotient_check,
    is_prime,
    verify_lucas,
    verify_m2,
    verify_swisher,
    verify_van_hamme,
)
from .polycore import LaurentPoly, Poly, mul_schoolbook, one_minus_q

Q_KIND_VALUES = tuple(k.value for k in CheckKind)

_DESCRIPTIONS = {
    "thm1-half": "quartic family, half range vs base-raised target",
    "thm1-full": "quartic family, full range vs base-raised target",
    "thm2-half": "sextic family, half range vs base-raised target",
    "thm2-full": "sextic family, full range vs base-raised target",
    "gw": "quartic family vs cubic-corrected closed form (asserted)",
    "qj2": "sextic family vs cubic-corrected closed form (conjectural)",
    "conj41": "full-range product splitting mod Phi_n^3 (conjectural)",
    "conj42": "half-range product splitting mod Phi_n^3 (conjectural)",
    "conj43": "product splitting at divisor d mod Phi_n^2 (conjectural)",
    "lemma22": "quartic root-specialization closed form (exact identity)",
    "lemma31": "sextic root-specialization closed form (exact identity)",
    "param-roots-c": "quartic parametric sides equal at root specializations",
    "param-roots-j": "sextic parametric sides equal at root specializations",
    "param-sampled-c": "quartic parametric sides vanish mod [n^r] at odd t",
    "param-sampled-j": "sextic parametric sides vanish mod [n^r] at odd t",
    "half-vs-full-m": "truncation separation mod Phi_n, agreement mod "
                      "Phi_{n^{r+1}}^4",
    "c2": "half-range quartic sum == p mod p^exp (proven to exp 4)",
    "j2": "half-range sextic sum == +-p mod p^exp (proven to exp 4)",
    "c3": "half-range quartic quotient congruence mod p^exp",
    "j3": "half-range sextic quotient congruence mod p^exp",
    "cc": "full-range quartic quotient congruence mod p^exp",
    "jj": "full-range sextic quotient congruence mod p^exp",
    "m2": "half and full quartic sums == eta coefficient mod p^3",
    "dwork": "cross-multiplied truncation compatibility mod p^r",
    "lucas": "central-binomial vanishing windows at order 4",
}


@dataclass
class RunConfig:
    """Sweep configuration; JSON object with exactly these fields."""

    checks: list[str] = field(default_factory=list)
    n_values: list[int] = field(default_factory=list)
    r_max: int = 1
    d_values: list[int] = field(default_factory=lambda: [1, 2])
    primes: list[int] = field(default_factory=list)
    t_values: list[int] = field(default_factory=lambda: [3, 5, 7])
    exponent_policy: str = "proven"
    output_path: str = ""
    format: str = "json"
    parallelism: int = 1
    dwork_degree_cap: int = 50

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        known = set(RunConfig().__dict__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        cfg = RunConfig(**data)
        for name in cfg.checks:
            if name not in Q_KIND_VALUES and name not in CLASSICAL_KINDS:
                raise ValueError(f"unknown check {name!r}")
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
            low = [p for p in cfg.primes if p < MIN_PRIME.get(name, 0)]
            if low:
                raise ValueError(f"check {name!r} needs primes >= "
                                 f"{MIN_PRIME[name]}, got {low[0]}")
        if cfg.exponent_policy not in ("proven", "conjectural", "both"):
            raise ValueError("exponent_policy must be proven|conjectural|both")
        if cfg.format not in ("json", "csv", "text"):
            raise ValueError("format must be json|csv|text")
        if cfg.r_max < 1 or cfg.parallelism < 1:
            raise ValueError("r_max and parallelism must be >= 1")
        if any(d not in (1, 2) for d in cfg.d_values):
            raise ValueError("d values must be 1 or 2")
        if cfg.dwork_degree_cap < 0:
            raise ValueError(f"dwork_degree_cap must be >= 0, "
                             f"got {cfg.dwork_degree_cap}")
        return cfg

    def digest(self) -> str:
        blob = json.dumps(self.__dict__, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ReportSet:
    meta: dict
    entries: list[dict]

    def asserted_failures(self) -> int:
        return sum(1 for e in self.entries
                   if not e["conjectural"] and not e["pass"])


# ---------------------------------------------------------------------------
# case enumeration and execution


def _q_case_calls(name: str, cfg: RunConfig):
    kind = CheckKind(name)
    per_n_only = kind in (CheckKind.GW, CheckKind.QJ2,
                          CheckKind.LEMMA22_IDENTITY,
                          CheckKind.LEMMA31_IDENTITY)
    for n in cfg.n_values:
        if per_n_only:
            yield dict(kind=kind, n=n)
            continue
        for r in range(1, cfg.r_max + 1):
            if kind in (CheckKind.PARAM_ROOTS_C, CheckKind.PARAM_ROOTS_J):
                for d in cfg.d_values:
                    for j in admissible_root_indices(n, r, d):
                        yield dict(kind=kind, n=n, r=r, d=d, j=j)
            elif kind in (CheckKind.PARAM_SAMPLED_C,
                          CheckKind.PARAM_SAMPLED_J):
                for d in cfg.d_values:
                    for t in cfg.t_values:
                        yield dict(kind=kind, n=n, r=r, d=d, t=t)
            elif kind is CheckKind.CONJ43:
                for d in cfg.d_values:
                    yield dict(kind=kind, n=n, r=r, d=d)
            else:
                yield dict(kind=kind, n=n, r=r)


def _classical_case_calls(name: str, cfg: RunConfig):
    for p in cfg.primes:
        if name in ("c2", "j2"):
            yield lambda p=p: verify_van_hamme(name, p, 4)
        elif name == "m2":
            yield lambda p=p: verify_m2(p)
        else:
            for r in range(1, cfg.r_max + 1):
                if name == "dwork":
                    yield lambda p=p, r=r: dwork_quotient_check(
                        p, r, cfg.dwork_degree_cap)
                elif name == "lucas":
                    yield lambda p=p, r=r: verify_lucas(p, r)
                else:
                    if cfg.exponent_policy in ("proven", "both"):
                        yield lambda p=p, r=r: verify_swisher(name, p, r,
                                                              3 * r)
                    if cfg.exponent_policy in ("conjectural", "both"):
                        yield lambda p=p, r=r: verify_swisher(name, p, r,
                                                              4 * r)


def enumerate_cases(cfg: RunConfig) -> list:
    calls = []
    for name in cfg.checks:
        if name in CLASSICAL_KINDS:
            calls.extend(_classical_case_calls(name, cfg))
        else:
            for kwargs in _q_case_calls(name, cfg):
                calls.append(lambda kw=kwargs: verify_case(**kw))
    return calls


def sweep(cfg: RunConfig) -> ReportSet:
    """Execute the case grid with at most cfg.parallelism concurrent cases.

    Cases are pure; results are collected in any order and canonicalized
    by case label, so the report content is deterministic for a fixed
    config.  Individual case failures never abort a sweep.
    """
    calls = enumerate_cases(cfg)
    if cfg.parallelism > 1 and len(calls) > 1:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            reports = list(pool.map(lambda fn: fn(), calls))
    else:
        reports = [fn() for fn in calls]
    entries = sorted((rep.to_dict() for rep in reports),
                     key=lambda e: e["label"])
    report_set = ReportSet(
        meta={
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "engine_version": __version__,
            "config_digest": cfg.digest(),
            "case_count": len(entries),
        },
        entries=entries)
    report_set.meta["asserted_failures"] = report_set.asserted_failures()
    return report_set


def canonical_entries(report_set: ReportSet) -> list[dict]:
    """Entries with volatile fields removed; identical across reruns."""
    out = []
    for entry in report_set.entries:
        e = dict(entry)
        e.pop("elapsed_ms", None)
        out.append(e)
    return out


# ---------------------------------------------------------------------------
# serialization


def _flat_rows(report_set: ReportSet) -> list[dict]:
    rows = []
    for e in report_set.entries:
        base = {
            "label": e["label"],
            "kind": e["kind"],
            "conjectural": e["conjectural"],
            "pass": e["pass"],
            "elapsed_ms": e["elapsed_ms"],
        }
        if e["type"] == "classical":
            rows.append(dict(base, component="", d="",
                             required=e["exponent"],
                             found="inf" if e["valuation"] is None
                             else e["valuation"],
                             margin=""))
        elif e["parts"]:
            for p in e["parts"]:
                rows.append(dict(
                    base, component=p["component"], d=p["d"],
                    required=p["required"],
                    found="inf" if p["found"] is None else p["found"],
                    margin="inf" if p["margin"] is None else p["margin"]))
        else:
            rows.append(dict(base, component="identity", d="", required="",
                             found="", margin=""))
    return rows


_CSV_FIELDS = ["label", "kind", "conjectural", "pass", "component", "d",
               "required", "found", "margin", "elapsed_ms"]


def emit_report(report_set: ReportSet, fmt: str) -> bytes:
    """Serialize a report set; identical input gives identical bytes."""
    if fmt == "json":
        payload = {"meta": report_set.meta, "entries": report_set.entries}
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for row in _flat_rows(report_set):
            writer.writerow(row)
        return buf.getvalue().encode()
    if fmt == "text":
        rows = _flat_rows(report_set)
        headers = ["label", "part", "d", "req", "found", "margin", "pass"]
        table = [[r["label"], r["component"], str(r["d"]), str(r["required"]),
                  str(r["found"]), str(r["margin"]),
                  ("PASS" if r["pass"] else "FAIL")
                  + ("*" if r["conjectural"] else "")]
                 for r in rows]
        widths = [max(len(h), *(len(row[i]) for row in table)) if table
                  else len(h) for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for row in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        lines.append(f"asserted failures: {report_set.asserted_failures()}"
                     "  (* = conjectural)")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def parse_csv_report(data: bytes) -> list[dict]:
    """Round-trip reader for the CSV format; numeric fields recovered."""
    rows = []
    for row in csv.DictReader(io.StringIO(data.decode())):
        out = dict(row)
        for key in ("d", "required", "found", "margin"):
            v = row[key]
            out[key] = (float("inf") if v == "inf"
                        else int(v) if v not in ("", None) else "")
        out["pass"] = row["pass"] == "True"
        out["conjectural"] = row["conjectural"] == "True"
        out["elapsed_ms"] = float(row["elapsed_ms"])
        rows.append(out)
    return rows


def _write_output(report_set: ReportSet, fmt: str, path: str) -> int:
    blob = emit_report(report_set, fmt)
    if not path or path == "-":
        sys.stdout.write(blob.decode())
        return 0
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    try:
        kind = CheckKind(args.check)
    except ValueError:
        print(f"error: unknown check {args.check!r}", file=sys.stderr)
        return 2
    cfg = RunConfig(checks=[kind.value], n_values=[args.n],
                    r_max=args.r, d_values=[args.d],
                    t_values=args.t if args.t else [3, 5, 7])
    try:
        cases = []
        for kwargs in _q_case_calls(kind.value, cfg):
            if kwargs.get("r", args.r) != args.r:
                continue
            if args.j is not None and kwargs.get("j", args.j) != args.j:
                continue
            cases.append(kwargs)
        if not cases:
            raise ValueError("no admissible cases for these parameters")
        reports = [verify_case(**kw) for kw in cases]
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report_set = _wrap_reports(reports, cfg)
    rc = _write_output(report_set, args.format, args.output)
    if rc:
        return rc
    return 1 if report_set.asserted_failures() else 0


def _cmd_classical(args) -> int:
    p, r, exp = args.p, args.r, args.exp
    # an explicit --exp 0 must reach the validators, so test for None
    try:
        if args.check in ("c2", "j2"):
            rep = verify_van_hamme(args.check, p, 4 if exp is None else exp)
        elif args.check in ("c3", "j3", "cc", "jj"):
            rep = verify_swisher(args.check, p, r,
                                 3 * r if exp is None else exp)
        elif args.check == "m2":
            rep = verify_m2(p)
        elif args.check == "dwork":
            rep = dwork_quotient_check(p, r, args.kcap, exp)
        elif args.check == "lucas":
            rep = verify_lucas(p, r)
        else:
            print(f"error: unknown classical check {args.check!r}",
                  file=sys.stderr)
            return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report_set = _wrap_reports([rep], RunConfig(checks=[args.check],
                                                primes=[p], r_max=r))
    rc = _write_output(report_set, args.format, args.output)
    if rc:
        return rc
    return 1 if report_set.asserted_failures() else 0


def _wrap_reports(reports, cfg: RunConfig) -> ReportSet:
    entries = sorted((rep.to_dict() for rep in reports),
                     key=lambda e: e["label"])
    rs = ReportSet(
        meta={
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "engine_version": __version__,
            "config_digest": cfg.digest(),
            "case_count": len(entries),
        },
        entries=entries)
    rs.meta["asserted_failures"] = rs.asserted_failures()
    return rs


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_dict(json.load(fh))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2
    env_parallelism = os.environ.get("QCONGRUENCE_PARALLELISM")
    if env_parallelism:
        try:
            cfg.parallelism = max(1, int(env_parallelism))
        except ValueError:
            print("error: QCONGRUENCE_PARALLELISM must be an integer",
                  file=sys.stderr)
            return 2
    if args.parallelism:
        cfg.parallelism = args.parallelism
    if args.format:
        cfg.format = args.format
    if args.output:
        cfg.output_path = args.output
    report_set = sweep(cfg)
    rc = _write_output(report_set, cfg.format, cfg.output_path)
    if rc:
        return rc
    return 1 if report_set.asserted_failures() else 0


def _cmd_list(_args) -> int:
    print("q-side checks:")
    for kind in CheckKind:
        print(f"  {kind.value:<18} {_DESCRIPTIONS[kind.value]}")
    print("classical checks:")
    for name in CLASSICAL_KINDS:
        print(f"  {name:<18} {_DESCRIPTIONS[name]}")
    return 0


def _cmd_bench(args) -> int:
    rng = random.Random(7)
    print(f"{'kernel':<28}{'size':>8}{'ms':>12}")
    for size in args.sizes:
        # +-99 coefficients, then ~256-bit ones (wide Kronecker slots)
        for bound, tag in ((99, ""), (1 << 256, ", 256-bit")):
            a, b = (Poly([rng.randrange(-bound, bound + 1)
                          for _ in range(size)] + [1]) for _ in range(2))
            t0 = time.perf_counter()
            auto = a * b
            t1 = time.perf_counter()
            school = mul_schoolbook(a, b)
            t2 = time.perf_counter()
            if auto != school:
                print("error: strategy mismatch", file=sys.stderr)
                return 1
            divmod(auto, b)
            t3 = time.perf_counter()
            multiple = a * cyclotomic(7) ** 8
            t4 = time.perf_counter()
            found = valuation_at(multiple, 7)
            t5 = time.perf_counter()
            if found != 8 + valuation_at(a, 7):
                print("error: valuation mismatch", file=sys.stderr)
                return 1
            la = LaurentPoly(a)
            t6 = time.perf_counter()
            passes = la.times_one_minus([7] * 8)
            t7 = time.perf_counter()
            if passes != la * one_minus_q(7) ** 8:
                print("error: binomial mismatch", file=sys.stderr)
                return 1
            lb = LaurentPoly(b, -(size // 2))
            t8 = time.perf_counter()
            difference = la - lb
            t9 = time.perf_counter()
            if difference != la + (-lb):
                print("error: subtract mismatch", file=sys.stderr)
                return 1
            for label, seconds in ((f"mul (auto strategy{tag})", t1 - t0),
                                   (f"mul (schoolbook{tag})", t2 - t1),
                                   (f"divmod by monic{tag}", t3 - t2),
                                   (f"valuation at Phi_7{tag}", t5 - t4),
                                   (f"times (1-q^m)^k{tag}", t7 - t6),
                                   (f"subtract{tag}", t9 - t8)):
                print(f"{label:<28}{size:>8}{seconds * 1e3:>12.2f}")
    t0 = time.perf_counter()
    cyclotomic(105)
    t1 = time.perf_counter()
    print(f"{'cyclotomic(105)':<28}{'':>8}{(t1 - t0) * 1e3:>12.2f}")
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
    p_verify.add_argument("--check", required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--r", type=int, default=1)
    p_verify.add_argument("--d", type=int, default=2, choices=(1, 2))
    p_verify.add_argument("--j", type=int, default=None,
                          help="root index; default: all admissible")
    p_verify.add_argument("--t", type=int, action="append", default=None,
                          help="sampled specialization exponent(s)")
    p_verify.add_argument("--format", default="text",
                          choices=("json", "csv", "text"))
    p_verify.add_argument("--output", default="")

    p_classical = sub.add_parser("classical", help="run one classical check")
    p_classical.add_argument("--check", required=True)
    p_classical.add_argument("--p", type=int, required=True)
    p_classical.add_argument("--r", type=int, default=1)
    p_classical.add_argument("--exp", type=int, default=None)
    p_classical.add_argument("--kcap", type=int, default=50)
    p_classical.add_argument("--format", default="text",
                             choices=("json", "csv", "text"))
    p_classical.add_argument("--output", default="")

    p_sweep = sub.add_parser("sweep", help="run a config-file case grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--output", default="")
    p_sweep.add_argument("--format", default="",
                         choices=("", "json", "csv", "text"))
    p_sweep.add_argument("--parallelism", type=int, default=0)

    sub.add_parser("list", help="enumerate supported checks")

    p_bench = sub.add_parser("bench", help="time the polynomial kernels")
    p_bench.add_argument("--sizes", type=int, nargs="+",
                         default=[64, 256, 1024])
    return parser


_COMMANDS = {
    "verify": _cmd_verify,
    "classical": _cmd_classical,
    "sweep": _cmd_sweep,
    "list": _cmd_list,
    "bench": _cmd_bench,
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
