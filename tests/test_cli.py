import csv
import hashlib
import io
import json
import pickle
import time

import pytest

from qcongruence.cli import (
    CHECKS,
    ReportSet,
    RunConfig,
    canonical_entries,
    emit_report,
    enumerate_cases,
    main,
    run_case,
    sweep,
)


def parse_csv_report(data: bytes) -> list[dict]:
    # reads the CSV format back; numeric fields recovered
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


def write_config(tmp_path, **overrides):
    data = {
        "checks": ["thm1-half"],
        "n_values": [3, 5],
        "r_max": 2,
        "d_values": [2],
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_verify_exit_codes(capsys):
    assert main(["verify", "--check", "thm1-half", "--n", "3", "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "thm1-half n=3 r=2" in out
    assert main(["verify", "--check", "thm1-half", "--n", "4", "--r", "1"]) == 2
    assert main(["verify", "--check", "nope", "--n", "3"]) == 2
    assert main(["bogus-subcommand"]) == 2
    assert main([]) == 2


def test_verify_rejects_r_below_one(capsys):
    # r is validated before the range (n^r - 1) // div is formed
    assert main(["verify", "--check", "thm1-full", "--n", "3",
                 "--r", "0"]) == 2
    assert capsys.readouterr().err == "error: r must be >= 1\n"


def test_classical_exit_codes(capsys):
    assert main(["classical", "--check", "c3", "--p", "5", "--r", "1",
                 "--exp", "3"]) == 0
    capsys.readouterr()
    assert main(["classical", "--check", "c3", "--p", "9"]) == 2
    assert main(["classical", "--check", "nope", "--p", "5"]) == 2


@pytest.mark.parametrize("check", ["c2", "c3", "dwork"])
def test_classical_exp_zero_is_rejected(capsys, check):
    # 0 is an explicit exponent, not "use the default"
    assert main(["classical", "--check", check, "--p", "5",
                 "--exp", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_list_and_bench(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "thm1-half" in out and "dwork" in out
    # the kernel timing table is gone: perfbench/run.py is the benchmark
    assert main(["bench"]) == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_console_script_names_a_callable_main():
    # the installed qcongruence command is cli.main, by pyproject.toml
    import importlib
    import pathlib
    import tomllib

    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"][
        "qcongruence"]
    assert target == "qcongruence.cli:main"
    module, attr = target.split(":")
    entry = getattr(importlib.import_module(module), attr)
    assert callable(entry) and entry(["list"]) == 0


def test_asserted_failure_gives_exit_one(capsys, monkeypatch):
    import qcongruence.cli as cli

    def failing(kind, p, exponent):
        from qcongruence.padic import ResidueReport
        return ResidueReport(params={"p": p}, exponent=exponent,
                             valuation=0, passed=False)

    monkeypatch.setattr(cli, "verify_van_hamme", failing)
    assert main(["classical", "--check", "c2", "--p", "5"]) == 1


def test_conjectural_failure_keeps_exit_zero(capsys, monkeypatch):
    import qcongruence.cli as cli

    def failing(kind, p, r, exponent):
        from qcongruence.padic import ResidueReport
        return ResidueReport(params={"p": p, "r": r}, exponent=exponent,
                             valuation=3, passed=False, conjectural=True)

    monkeypatch.setattr(cli, "verify_swisher", failing)
    assert main(["classical", "--check", "jj", "--p", "5", "--exp", "4"]) == 0


def test_sweep_grid_and_entry_count(tmp_path):
    cfg = RunConfig.from_dict({"checks": ["thm1-half"], "n_values": [3, 5],
                               "r_max": 2, "d_values": [2]})
    assert len(enumerate_cases(cfg)) == 4
    rs = sweep(cfg)
    assert rs.meta["case_count"] == 4
    assert rs.asserted_failures() == 0
    labels = [e["label"] for e in rs.entries]
    assert labels == sorted(labels)


def test_sweep_conjectural_flagging():
    rs = sweep(RunConfig.from_dict({"checks": ["conj41"], "n_values": [3],
                                    "r_max": 1}))
    assert rs.meta["case_count"] == 1
    assert rs.entries[0]["conjectural"] is True


def test_sweep_empty_checks_is_empty_and_ok(tmp_path, capsys):
    path = write_config(tmp_path, checks=[])
    assert main(["sweep", "--config", path]) == 0
    rs = sweep(RunConfig.from_dict({"checks": []}))
    assert rs.entries == []


def test_sweep_determinism_across_parallelism():
    base = {"checks": ["thm1-half", "lemma22", "param-roots-c", "m2", "c3"],
            "n_values": [3, 5], "r_max": 2, "d_values": [1, 2],
            "primes": [5, 7]}
    one = sweep(RunConfig.from_dict(base))
    two = sweep(RunConfig.from_dict(base))
    assert canonical_entries(one) == canonical_entries(two)
    # byte-identical emission for identical report sets
    assert emit_report(one, "json") == emit_report(one, "json")


def test_sweep_cli_end_to_end(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "report.json"
    assert main(["sweep", "--config", path, "--output", str(out),
                 "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["case_count"] == 4
    assert len(payload["entries"]) == 4
    assert payload["meta"]["asserted_failures"] == 0
    for entry in payload["entries"]:
        assert entry["pass"] is True


def test_sweep_bad_config_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"checks": ["thm1-half"], "n_values": [4]}))
    assert main(["sweep", "--config", str(path)]) == 2
    path.write_text(json.dumps({"bogus_field": 1}))
    assert main(["sweep", "--config", str(path)]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
    # parallelism is neither a config field nor a sweep flag
    capsys.readouterr()
    path.write_text(json.dumps({"checks": ["lemma22"], "n_values": [3],
                                "parallelism": 2}))
    assert main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: bad config: unknown config fields: ['parallelism']\n")
    path.write_text(json.dumps({"checks": ["lemma22"], "n_values": [3]}))
    assert main(["sweep", "--config", str(path), "--parallelism", "2"]) == 2
    # a repeated axis value would run one case twice under one label
    for key, values in (("checks", ["lemma22", "lemma22"]),
                        ("n_values", [3, 3]), ("d_values", [1, 2, 1]),
                        ("t_values", [7, 9, 7]), ("primes", [5, 5])):
        path.write_text(json.dumps(dict(
            {"checks": ["lemma22"], "n_values": [3]}, **{key: values})))
        capsys.readouterr()
        assert main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad config: duplicate value {values[-1]!r} in {key}\n")


@pytest.mark.parametrize("config, check", [
    ({"checks": ["thm1-half"]}, "thm1-half"),
    ({"checks": ["c2"], "n_values": [3]}, "c2"),
    ({"checks": ["lemma22", "conj43"], "n_values": [3], "d_values": []},
     "conj43"),
    ({"checks": ["param-sampled-c"], "n_values": [3], "t_values": []},
     "param-sampled-c"),
    ({"n_values": [3]}, None),
], ids=["no-n", "no-primes", "no-d", "no-t", "no-checks"])
def test_sweep_named_check_without_cases_exit_two(tmp_path, capsys, config,
                                                  check):
    # a check that gets no case, or no checks field at all, would run
    # nothing and exit 0; both are config errors
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    message = f"check {check!r} gets no case" if check \
        else "checks is required"
    assert captured.out == ""
    assert captured.err == f"error: bad config: {message}\n"


@pytest.mark.parametrize("primes", [[3], [9]])
def test_sweep_bad_prime_exit_two(tmp_path, capsys, primes):
    # p = 3 is below the minimum of c2 and 9 is not prime: both are config
    # errors, reported on one line before any case runs.
    path = write_config(tmp_path, checks=["c2"], primes=primes)
    assert main(["sweep", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_sweep_even_t_exit_two(tmp_path, capsys):
    # an even specialization exponent is a config error, not a case failure
    path = write_config(tmp_path, checks=["param-sampled-c"], n_values=[3],
                        t_values=[4])
    assert main(["sweep", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: bad config: t values must be odd, got 4\n"


def test_sweep_negative_dwork_cap_exit_two(tmp_path, capsys):
    # a negative degree cap is a config error, not a traceback mid-sweep
    path = write_config(tmp_path, checks=["dwork"], primes=[5],
                        dwork_degree_cap=-3)
    assert main(["sweep", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: bad config: dwork_degree_cap must be >= 0, got -3\n"


def test_write_error_exit_three(tmp_path, capsys):
    path = write_config(tmp_path, checks=["lemma22"], n_values=[3])
    assert main(["sweep", "--config", path, "--output",
                 str(tmp_path / "no-such-dir" / "x.json")]) == 3


def test_csv_round_trip():
    rs = sweep(RunConfig.from_dict({
        "checks": ["thm1-half", "lemma22", "c3"], "n_values": [3],
        "r_max": 1, "primes": [5]}))
    rows = parse_csv_report(emit_report(rs, "csv"))
    assert len(rows) >= 3
    by_label = {}
    for row in rows:
        by_label.setdefault(row["label"], []).append(row)
    thm = by_label["thm1-half n=3 r=1"][0]
    assert thm["pass"] is True and thm["d"] == 3
    assert thm["required"] == 3 and thm["found"] == 3 and thm["margin"] == 0
    c3 = by_label["c3 p=5 r=1 exp=3"][0]
    assert c3["required"] == 3 and c3["found"] == 4
    lemma = by_label["lemma22 n=3"][0]
    assert lemma["component"] == "identity" and lemma["pass"] is True


def test_text_format_mentions_failures_line():
    rs = sweep(RunConfig.from_dict({"checks": ["lemma22"], "n_values": [3]}))
    text = emit_report(rs, "text").decode()
    assert "asserted failures: 0" in text


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"checks": ["thm1-half"], "exponent_policy": "x"})
    with pytest.raises(ValueError):
        RunConfig.from_dict({"checks": ["thm1-half"], "d_values": [3]})
    with pytest.raises(ValueError):
        RunConfig.from_dict({"format": "xml"})
    cfg = RunConfig.from_dict({"checks": ["c3"], "primes": [5],
                               "exponent_policy": "both", "r_max": 1})
    assert len(enumerate_cases(cfg)) == 2  # one proven + one conjectural


def test_both_policy_computes_one_valuation_per_quotient(monkeypatch):
    # exponent_policy both runs each quotient check at 3r and at 4r, next
    # to each other, and padic computes the valuation once for the two:
    # one Horner pass of _numerators each.  The entries are those each
    # case gives alone, from an empty memo, and the next sweep computes
    # every valuation again.
    from qcongruence import padic

    calls = []
    real = padic._numerators
    monkeypatch.setattr(padic, "_numerators",
                        lambda *args: calls.append(args) or real(*args))
    padic._companion_valuation.cache_clear()
    cfg = RunConfig.from_dict({"checks": ["c3", "j3", "cc", "jj"],
                               "primes": [5, 7], "r_max": 2,
                               "exponent_policy": "both"})
    entries = canonical_entries(sweep(cfg))
    assert len(entries) == 32 and len(calls) == len(set(calls)) == 16
    alone = [padic._companion_valuation.cache_clear() or run_case(spec)
             for spec in enumerate_cases(cfg)]
    assert entries == canonical_entries(ReportSet({}, sorted(
        alone, key=lambda e: e["label"])))
    assert {e["conjectural"] for e in entries} == {False, True}
    sweep(cfg)
    assert len(calls) == 16 + 32 + 16


@pytest.mark.parametrize("name", CHECKS)
def test_an_error_entry_is_labelled_as_its_report(monkeypatch, name):
    # one label rule names every report and every error entry, q-side and
    # classical, with exp= for the exponent and K= for the degree cap; and
    # every report carries the params of its case, as its error entry does
    cfg = RunConfig.from_dict({"checks": [name], "primes": [5],
                               "n_values": [3], "t_values": [7],
                               "exponent_policy": "both"})
    entries = sweep(cfg).entries
    labels = [e["label"] for e in entries]
    params = [e["params"] for e in entries]

    def raising(name, **params):
        raise RuntimeError("boom")

    monkeypatch.setattr(CHECKS[name], "run", raising)
    entries = sweep(cfg).entries
    assert {e["type"] for e in entries} == {"error"}
    assert [e["label"] for e in entries] == labels
    assert [e["params"] for e in entries] == params


def test_elapsed_ms_covers_the_whole_case(monkeypatch):
    # planning the sides of a q-side case and running a classical check
    # both count, not only the phases of the comparison
    import qcongruence.cli as cli
    import qcongruence.congruence as congruence

    def slowed(original):
        def slow(*args, **kwargs):
            time.sleep(0.02)
            return original(*args, **kwargs)
        return slow

    monkeypatch.setattr(congruence, "plan_sum", slowed(congruence.plan_sum))
    entry = congruence.verify_case("thm1-half", n=3, r=1).to_dict()
    assert entry["elapsed_ms"] >= 20
    monkeypatch.setattr(cli, "verify_lucas", slowed(cli.verify_lucas))
    entry = run_case(("lucas", {"p": 5, "r": 1}))
    assert entry["label"] == "lucas p=5 r=1" and entry["elapsed_ms"] >= 20


def test_mixed_results_serialize_and_count_asserted_only():
    rs = sweep(RunConfig.from_dict({"checks": ["thm1-half"],
                                    "n_values": [3]}))
    failing_asserted = dict(rs.entries[0], label="fake asserted",
                            conjectural=False)
    failing_asserted["pass"] = False
    failing_conjectural = dict(rs.entries[0], label="fake conjectural",
                               conjectural=True)
    failing_conjectural["pass"] = False
    mixed = ReportSet(meta=dict(rs.meta),
                      entries=rs.entries + [failing_asserted,
                                            failing_conjectural])
    assert mixed.asserted_failures() == 1
    payload = json.loads(emit_report(mixed, "json"))
    assert len(payload["entries"]) == 3
    assert {e["pass"] for e in payload["entries"]} == {True, False}


def test_config_digest_stable():
    a = RunConfig.from_dict({"checks": ["thm1-half"], "n_values": [3]})
    b = RunConfig.from_dict({"n_values": [3], "checks": ["thm1-half"]})
    assert a.digest() == b.digest()
    c = RunConfig.from_dict({"checks": ["thm1-half"], "n_values": [5]})
    assert a.digest() != c.digest()


@pytest.mark.parametrize("field, value", [
    ("n_values", [3.0]), ("primes", [5.0]), ("r_max", 1.5),
    ("d_values", [1.0]), ("output_path", 7), ("r_max", True),
    ("n_values", 3), ("checks", "thm1-half"), ("format", 1),
])
def test_sweep_non_integer_config_value_exit_two(tmp_path, capsys, field,
                                                 value):
    # a wrongly typed value is a config error, never a mid-sweep traceback
    good = {"checks": ["thm1-half", "c2"], "n_values": [3], "primes": [5],
            "r_max": 1}
    path = write_config(tmp_path, **dict(good, **{field: value}))
    assert main(["sweep", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad config: {field} must be ")
    assert captured.err.count("\n") == 1


def _raising_for_r2(monkeypatch):
    import qcongruence.cli as cli
    real = cli.verify_case

    def verify(name, **params):
        if params.get("r") == 2:
            raise RuntimeError("boom\nsecond line")
        return real(name, **params)

    monkeypatch.setattr(cli, "verify_case", verify)
    return {"checks": ["thm1-half"], "n_values": [3], "r_max": 2}


def test_sweep_records_a_raising_case_and_goes_on(tmp_path, capsys,
                                                  monkeypatch):
    data = _raising_for_r2(monkeypatch)
    rs = sweep(RunConfig.from_dict(data))
    assert rs.meta["case_count"] == 2
    assert rs.meta["errors"] == 1 and rs.meta["asserted_failures"] == 0
    ok, error = rs.entries
    assert ok["type"] == "q" and ok["pass"] is True
    assert error["type"] == "error" and error["kind"] == "thm1-half"
    assert error["params"] == {"n": 3, "r": 2}
    assert error["error"] == "RuntimeError: boom second line"
    rows = parse_csv_report(emit_report(rs, "csv"))
    assert rows[-1]["component"] == "error"
    assert rows[-1]["error"] == "RuntimeError: boom second line"
    text = emit_report(rs, "text").decode()
    assert "ERROR" in text and "errors: 1" in text
    assert "thm1-half n=3 r=2: RuntimeError: boom second line" in text
    path = write_config(tmp_path, **data)
    assert main(["sweep", "--config", path]) == 4
    capsys.readouterr()


def test_asserted_failure_outranks_a_raising_case(tmp_path, capsys,
                                                  monkeypatch):
    import qcongruence.cli as cli
    data = _raising_for_r2(monkeypatch)
    raising = cli.verify_case

    def failing(name, **params):
        rep = raising(name, **params)
        rep.passed = False
        return rep

    monkeypatch.setattr(cli, "verify_case", failing)
    path = write_config(tmp_path, **data)
    assert main(["sweep", "--config", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["asserted_failures"] == 1
    assert payload["meta"]["errors"] == 1


@pytest.mark.parametrize("argv, axis", [
    (["classical", "--check", "m2", "--p", "5", "--exp", "9"], "exponent"),
    (["classical", "--check", "lucas", "--p", "5", "--exp", "3"], "exponent"),
    (["classical", "--check", "c2", "--p", "5", "--r", "2"], "r"),
    (["verify", "--check", "gw", "--n", "3", "--r", "5"], "r"),
    (["verify", "--check", "thm1-half", "--n", "3", "--j", "1"], "j"),
    (["verify", "--check", "conj41", "--n", "3", "--t", "7"], "t"),
    (["verify", "--check", "thm1-full", "--n", "3", "--d", "1"], "d"),
    (["classical", "--check", "c2", "--p", "5", "--kcap", "7"], "kcap"),
    (["classical", "--check", "c2", "--p", "5", "--kcap", "-3"], "kcap"),
    (["classical", "--check", "lucas", "--p", "5", "--kcap", "50"], "kcap"),
])
def test_flag_the_check_does_not_take_exit_two(capsys, argv, axis):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: check {argv[2]!r} takes no {axis}\n"


def test_verify_repeated_t_exit_two(capsys):
    assert main(["verify", "--check", "param-sampled-c", "--n", "3",
                 "--t", "3", "--t", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duplicate value 3 in --t\n"


def test_fingerprint_grid_counts_and_specs_pickle():
    cfg = RunConfig.from_dict({
        "checks": list(CHECKS), "n_values": [3, 5], "r_max": 2,
        "d_values": [1, 2], "t_values": [7, 9], "primes": [5, 7],
        "exponent_policy": "both"})
    specs = enumerate_cases(cfg)
    counts = {name: sum(1 for spec in specs if spec[0] == name)
              for name in CHECKS}
    assert counts == {
        "thm1-half": 4, "thm1-full": 4, "thm2-half": 4, "thm2-full": 4,
        "gw": 2, "qj2": 2, "lemma22": 2, "lemma31": 2,
        "conj41": 4, "conj42": 4, "conj43": 8,
        "param-roots-c": 17, "param-roots-j": 17,
        "param-sampled-c": 16, "param-sampled-j": 16, "half-vs-full-m": 4,
        "c2": 2, "j2": 2, "c3": 8, "j3": 8, "cc": 8, "jj": 8,
        "m2": 2, "dwork": 4, "lucas": 4}
    assert len(specs) == 156
    assert pickle.loads(pickle.dumps(specs)) == specs


def test_canonical_entries_fingerprint():
    # one small case of every check; the reports must stay byte-identical
    # under any refactor of the engine
    cfg = RunConfig.from_dict({
        "checks": list(CHECKS), "n_values": [3], "r_max": 2,
        "d_values": [1, 2], "t_values": [7], "primes": [5],
        "exponent_policy": "both"})
    rs = sweep(cfg)
    blob = json.dumps(canonical_entries(rs), sort_keys=True).encode()
    assert (len(rs.entries), len(blob)) == (67, 20433)
    assert hashlib.sha256(blob).hexdigest() == (
        "b440ff7216d7a4dbf3c9b93cc9c1661ebeac0257f5bab49f51e8b876e9cb20ea")


@pytest.mark.parametrize("first, second", [
    (["classical", "--check", "c3", "--p", "5", "--exp", "3"],
     ["classical", "--check", "c3", "--p", "5", "--exp", "4"]),
    (["verify", "--check", "param-roots-c", "--n", "3", "--r", "2",
      "--d", "1", "--j", "0"],
     ["verify", "--check", "param-roots-c", "--n", "3", "--r", "2",
      "--d", "1", "--j", "1"]),
])
def test_single_case_digest_covers_pinned_axes(capsys, first, second):
    digests = []
    for argv in (first, second, first):
        assert main(argv + ["--format", "json"]) == 0
        digests.append(
            json.loads(capsys.readouterr().out)["meta"]["config_digest"])
    assert digests[0] != digests[1] and digests[0] == digests[2]


@pytest.mark.parametrize("argv, digest", [
    (["--check", "thm1-full", "--n", "3"], "5c31b27b03ca85cc"),
    (["--check", "conj43", "--n", "3"], "5ee6b8872794d45a"),
    (["--check", "conj43", "--n", "3", "--d", "2"], "5ee6b8872794d45a"),
    (["--check", "conj43", "--n", "3", "--d", "1"], "de4bec4803027216"),
    (["--check", "param-sampled-c", "--n", "3", "--d", "1", "--t", "7"],
     "9483f23003df0540"),
])
def test_verify_d_default_keeps_digests(capsys, argv, digest):
    # --d left out means d = 2 on a check with a d axis
    assert main(["verify"] + argv + ["--format", "json"]) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["config_digest"] == digest


@pytest.mark.parametrize("argv, digest", [
    (["--check", "c2", "--p", "5"], "2f200319f1d8d3e7"),
    (["--check", "dwork", "--p", "7", "--r", "2"], "c96ab7bd758edcfc"),
    (["--check", "dwork", "--p", "7", "--r", "2", "--kcap", "50"],
     "c96ab7bd758edcfc"),
    (["--check", "dwork", "--p", "7", "--r", "2", "--kcap", "20"],
     "25df380a07ec3d36"),
])
def test_classical_kcap_reaches_the_digest_as_the_degree_cap(capsys, argv,
                                                             digest):
    # --kcap left out means a degree cap of 50; it is not pinned as an axis
    assert main(["classical"] + argv + ["--format", "json"]) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["config_digest"] == digest


def test_sweep_digest_is_unchanged(tmp_path, capsys):
    # a sweep pins nothing beyond its config: the digest of the config
    # alone, pinned so that a change to the field set shows
    path = write_config(tmp_path, checks=["lemma22"], n_values=[3])
    assert main(["sweep", "--config", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    digest = payload["meta"]["config_digest"]
    assert digest == "2b513d1a8a2659eb"
    with open(path, encoding="utf-8") as fh:
        assert digest == RunConfig.from_dict(json.load(fh)).digest()
    # where the report goes is not part of the grid
    out = tmp_path / "report.json"
    assert main(["sweep", "--config", path, "--output", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["meta"]["config_digest"] == digest
    # nor where the config file itself sends it
    path = write_config(tmp_path, checks=["lemma22"], n_values=[3],
                        output_path=str(out))
    assert main(["sweep", "--config", path]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["meta"]["config_digest"] == digest
    path = write_config(tmp_path, checks=["lemma22"], n_values=[3],
                        format="csv")
    assert main(["sweep", "--config", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["config_digest"] == digest


def test_every_report_field_is_emitted():
    # a field that no entry carries is one that no report shows: every
    # dataclass field of both report kinds is a key of a real entry,
    # passed under the name pass
    from dataclasses import fields

    from qcongruence.congruence import CongruenceReport, verify_case
    from qcongruence.padic import ResidueReport

    for cls, entry in (
            (CongruenceReport, verify_case("thm1-full", n=3).to_dict()),
            (ResidueReport, run_case(("c3", {"p": 5, "r": 1,
                                             "exponent": 3})))):
        names = {"pass" if f.name == "passed" else f.name
                 for f in fields(cls)}
        assert names <= set(entry), (cls.__name__, names - set(entry))
