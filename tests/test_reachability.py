"""Every function in src is on a check's path, or is named here with why.

A sweep of every check at its smallest point, list, one verify, one
classical and one bad command run under sys.setprofile; the functions of
src that none of them enters must be exactly UNENTERED.  What only tests
or demos call belongs in tests/oracles.py or in its demo.
"""

import ast
import json
import sys
from pathlib import Path

from qcongruence import cli

SRC = Path(cli.__file__).resolve().parent
TRACER = "wrapped by perfbench/tracing.py"
BASIC = "a value-type basic"

#: (module, qualified name) -> why no check enters it.
UNENTERED = {
    ("polycore", "Poly.__mul__"): TRACER,
    ("polycore", "_kronecker"): "Poly.__mul__'s product",
    ("polycore", "_pack"): "packs Poly.__mul__'s operands and Poly sides",
    ("polycore", "Poly.high_degree"): "read by the tracer's expand observer",
    ("cyclotomic", "cyclotomic"): TRACER,
    ("qseries", "FactoredProduct.expand"): TRACER,
    ("qseries", "sum_truncated"): TRACER,
    ("qseries", "SeriesSum.series"): "sum_truncated's build",
    ("congruence", "jackson_6phi5_terminating"): "an identity, not a check",
    ("cli", "canonical_entries"): "README.md's sweep fingerprint",
    ("polycore", "Poly.zero"): BASIC,
    ("polycore", "Poly.one"): BASIC,
    ("polycore", "Poly.__str__"): BASIC,
}


def _defined() -> set:
    # (module, qualified name) of every def in src, as code objects name it
    found = set()

    def visit(node, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                found.add((module, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", module)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.stem)
    return found


def test_every_src_function_is_on_a_check_path(tmp_path, capsys):
    config = tmp_path / "smallest.json"      # 34 cases
    config.write_text(json.dumps({
        "checks": list(cli.CHECKS), "n_values": [3], "r_max": 1,
        "primes": [5], "t_values": [7], "exponent_policy": "both"}))
    commands = [["sweep", "--config", str(config)], ["list"],
                ["verify", "--check", "thm1-full", "--n", "3"],
                ["classical", "--check", "c3", "--p", "5", "--exp", "3"],
                ["verify", "--check", "c3", "--n", "3"]]
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(str(SRC)):
            entered.add((Path(code.co_filename).stem, code.co_qualname))

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0, 0, 0, 0, 2]
    assert _defined() - entered == set(UNENTERED)
