"""Command line interface: subcommands, report schema, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wmfock import cli
from wmfock.errors import InternalConsistencyError

RUNTIME = re.compile(rb'"runtimeMillis": \d+')


# the child process imports the same wmfock as this one
SRC = str(Path(cli.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "wmfock.cli", *args],
                          capture_output=True, env=ENV)
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args):
    code, out, err = run_cli(*args)
    assert code == 0, err.decode()
    return json.loads(out)


def test_rewrite_report():
    rep = run_json("rewrite", "--case", "z", "--expr", "c(1) a(1)")
    assert rep["case"] == "Z"
    assert rep["normalForm"] == "-a(0)c(0) + a(1)c(1)"
    assert rep["unit"] == 0
    assert rep["lambdaTerms"] == {}
    assert rep["pairTerms"] == {"0": -1, "1": 1}
    assert "runtimeMillis" in rep


def test_rewrite_show_steps():
    rep = run_json("rewrite", "--case", "n", "--expr", "c(2) a(1) c(1)",
                   "--show-steps")
    assert rep["normalForm"] == "c(2)c(0)a(0) + c(2)c(1)a(1)"
    assert rep["steps"][0]["rule"] == "N5"


def test_moments_json():
    rep = run_json("moments", "--expr", "x(1)", "--max-order", "10")
    assert rep["suite"] == "moments"
    assert rep["moments"] == [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42]


def test_moments_csv():
    code, out, _ = run_cli("moments", "--expr", "x(1)", "--max-order", "6",
                           "--csv")
    assert code == 0
    lines = out.decode().strip().splitlines()
    assert lines[0] == "order,moment"
    assert lines[1:] == ["0,1", "1,0", "2,1", "3,0", "4,2", "5,0", "6,5"]


def test_verify_exel_laca_schema():
    rep = run_json("verify", "--suite", "exel-laca", "--window", "-4..4",
                   "--particles", "3", "--max-size", "1")
    assert set(rep) == {"suite", "config", "instances", "summary",
                        "runtimeMillis"}
    assert rep["suite"] == "exel-laca"
    assert rep["summary"]["failed"] == 0
    assert rep["summary"]["total"] == len(rep["instances"])
    for inst in rep["instances"]:
        assert set(inst) >= {"id", "pass"}
        assert inst["pass"] is True


def test_verify_negative_window_token():
    # "-6..6" after a space must not be read as an option flag
    code, out, _ = run_cli("verify", "--suite", "relations-z", "--window",
                           "-3..3", "--particles", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["window"] == [-3, 3]


def test_verify_anti_suite():
    rep = run_json("verify", "--suite", "anti", "--window", "1..4",
                   "--particles", "3")
    kinds = {i["id"].split("[")[0] for i in rep["instances"]}
    assert "annihilate-create" in kinds
    assert rep["summary"]["failed"] == 0


def test_verify_rep_n_suite():
    rep = run_json("verify", "--suite", "rep-n", "--window", "1..4",
                   "--particles", "3", "--max-index", "2")
    assert rep["summary"]["failed"] == 0
    kinds = {i["id"].split("[")[0].split(":")[1] for i in rep["instances"]}
    assert "vacuum-projection" in kinds and "gauge-degree" in kinds


def test_cesaro_bound():
    rep = run_json("cesaro", "--word", "c(0)", "--n", "4")
    inst = rep["instances"][0]
    assert inst["id"] == "bound[n=4]"
    assert inst["pass"] is True
    assert inst["discrepancy"] <= inst["details"]["bound"]


def test_limit_vacuum():
    rep = run_json("limit", "--N", "12", "--vector", "")
    inst = rep["instances"][0]
    assert inst["id"] == "residual[N=12]"
    assert inst["details"]["residual"] == pytest.approx(0.2, abs=1e-12)
    assert inst["details"]["closedForm"] == pytest.approx(0.2, abs=1e-12)


def test_limit_multiple_sizes():
    rep = run_json("limit", "--N", "10,20,40", "--vector", "2,1")
    vals = [i["details"]["residual"] for i in rep["instances"]]
    assert len(vals) == 3
    assert vals[0] > vals[1] > vals[2]


def test_states_value_and_fixed_point():
    rep = run_json("states", "--expr", "q(1) + 2 p(3)", "--t", "1/3")
    by_id = {i["id"]: i for i in rep["instances"]}
    assert by_id["omega-t"]["details"]["value"] == "1/3"
    assert by_id["fixed-point"]["details"]["fixed"] is False


def test_certificate_projection():
    rep = run_json("certificate", "--expr", "a(0) c(0)")
    inst = rep["instances"][0]
    assert inst["discrepancy"] == 1.0
    assert inst["pass"] is True


def test_nonconvergence():
    rep = run_json("nonconvergence", "--n", "4")
    inst = rep["instances"][0]
    assert inst["discrepancy"] == "exact-0"
    assert inst["details"]["witnessEntry"] == -1
    assert inst["details"]["strongResidual"] == "1/4"


def test_commutant_inline_json():
    spec = json.dumps({"case": "N", "window": [1, 1], "particles": 1,
                       "exprs": ["x(1)"], "expect": 2})
    rep = run_json("commutant", "--gens", spec)
    assert rep["instances"][0]["details"]["dim"] == 2


def test_commutant_spec_file(tmp_path):
    spec = {"case": "N", "window": [1, 2], "particles": 2,
            "exprs": ["a(1)", "c(1)", "a(2)", "c(2)"], "expect": 1}
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(spec))
    rep = run_json("commutant", "--gens", str(path))
    assert rep["instances"][0]["pass"] is True


def test_reps_decompose():
    spec = json.dumps({
        "d": 3, "particles": 3, "zeroDim": 0,
        "components": [{"level": 0, "phase": {"re": 0, "im": 1}, "mult": 1},
                       {"level": 1, "phase": {"re": -1, "im": 0}, "mult": 2}]})
    rep = run_json("reps", "decompose", "--spec", spec)
    by_id = {i["id"]: i for i in rep["instances"]}
    found = by_id["components"]["details"]["found"]
    assert [(c["level"], c["mult"]) for c in found] == [(0, 1), (1, 2)]
    assert by_id["residual"]["details"]["residualDim"] == 0


def test_exit_failed_check():
    spec = json.dumps({"case": "N", "window": [1, 1], "particles": 1,
                       "exprs": ["x(1)"], "expect": 5})
    code, out, _ = run_cli("commutant", "--gens", spec)
    assert code == 1
    rep = json.loads(out)
    assert rep["summary"]["failed"] == 1


def test_exit_usage_errors():
    code, _, _ = run_cli("no-such-command")
    assert code == 2
    code, _, _ = run_cli("verify", "--suite", "bogus", "--window", "1..2",
                         "--particles", "1")
    assert code == 2
    code, _, err = run_cli("commutant", "--gens", "/nonexistent/path.json")
    assert code == 2
    assert b"error" in err


def test_exit_parse_error():
    code, _, err = run_cli("rewrite", "--case", "z", "--expr", "c(")
    assert code == 2
    assert b"error" in err


def test_exit_internal_error(monkeypatch, capsys):
    def boom(args):
        raise InternalConsistencyError("dual-route mismatch")
    monkeypatch.setattr(cli, "_cmd_nonconvergence", boom)
    code = cli.main(["nonconvergence", "--n", "4"])
    assert code == 3
    assert "internal consistency" in capsys.readouterr().err


def test_reports_deterministic():
    mask = lambda b: RUNTIME.sub(b'"runtimeMillis": X', b)
    for args in (("rewrite", "--case", "z", "--expr", "q(2) p(1)"),
                 ("moments", "--expr", "x(1)", "--max-order", "8"),
                 ("nonconvergence", "--n", "8")):
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert mask(first) == mask(second)


@pytest.mark.parametrize("args, digest", [
    (("verify", "--suite", "exel-laca", "--window", "-4..4", "--particles", "3",
      "--max-size", "1"),
     "29a0802c83d21027570acf09ab19be002f3bfa5701d5f28c9dbd35eb836c451b"),
    (("verify", "--suite", "relations-z", "--window", "-3..3", "--particles", "3"),
     "2a4a55e079d748e1232e3804b68d02ca7d215da1b0c62bdb57575ad9a6cbdcf5"),
    (("verify", "--suite", "anti", "--window", "1..4", "--particles", "3"),
     "86a87ae70ca6c3a8e0b869b85d21f9301645ece3c1615b61d63eb13ea7242e70"),
])
def test_verify_reports_byte_identical(args, digest):
    # sha256 of the report with runtimeMillis masked, as first recorded
    code, out, err = run_cli(*args)
    assert code == 0, err.decode()
    masked = RUNTIME.sub(b'"runtimeMillis": X', out)
    assert hashlib.sha256(masked).hexdigest() == digest


def test_commutant_report_byte_identical():
    spec = json.dumps({"case": "N", "window": [1, 2], "particles": 4,
                       "exprs": ["x(1)", "x(2)"]}, separators=(",", ":"))
    code, out, err = run_cli("commutant", "--gens", spec)
    assert code == 0, err.decode()
    masked = RUNTIME.sub(b'"runtimeMillis": X', out)
    assert hashlib.sha256(masked).hexdigest() == \
        "4429c96bb26f1245c2d782ac45071cf6c3eb855d45de9fc40c1e6d6c820ba5ac"


@pytest.mark.parametrize("spec, expected", [
    ({"case": "N", "window": [1, 1], "particles": 1, "exprs": ["0.5*x(1)"]}, b"'exprs'"),
    ({"case": "N", "window": [1, 1], "particles": 1, "exprs": "x(1)"}, b"'exprs'"),
    ({"case": "N", "window": [1, 1], "exprs": ["x(1)"]}, b"missing field 'particles'"),
    ({"case": "N", "window": [1, 1], "particles": 1, "exprs": ["x(1)"], "expect": "2"},
     b"'expect'"),
])
def test_commutant_spec_faults_exit_2(spec, expected):
    code, out, err = run_cli("commutant", "--gens", json.dumps(spec))
    assert code == 2
    assert out == b""
    assert err.count(b"\n") == 1 and err.startswith(b"error:") and expected in err
    assert b"Traceback" not in err


def test_certificate_float_coefficient():
    rep = run_json("certificate", "--expr", "0.5*a(1)c(1)")
    inst = rep["instances"][0]
    assert inst["pass"] is True and inst["discrepancy"] == 0.5


@pytest.mark.parametrize("args, expected", [
    (("states", "--expr", "c(1)", "--t", "1/0"), b"--t"),
    (("states", "--expr", "c(1)", "--t", "nan"), b"--t"),
    (("moments", "--expr", "x(1)", "--max-order", "-1"), b"--max-order"),
    (("reps", "decompose", "--spec", '{"d":3,"particles":3,"components":"x"}'),
     b"'components'"),
    (("reps", "decompose", "--spec", '{"d":3,"components":[]}'),
     b"missing field 'particles'"),
    (("reps", "decompose", "--spec",
      '{"d":3,"particles":3,"components":[{"level":"0","phase":1}]}'), b"'level'"),
    (("reps", "decompose", "--spec",
      '{"d":3,"particles":3,"components":[{"level":0,"phase":[1]}]}'), b"'phase'"),
    (("rewrite", "--case", "z", "--expr", "(" * 2000 + "c(1)" + ")" * 2000), b"nested deeper"),
    (("cesaro", "--word", "(" * 2000 + "c(1)" + ")" * 2000, "--n", "4"), b"nested deeper"),
    (("cesaro", "--word", "c(1)", "--n", "100000"), b"exceeds cap"),
    (("nonconvergence", "--n", "100000"), b"word evaluations"),
])
def test_numeric_and_spec_faults_exit_2(args, expected):
    code, out, err = run_cli(*args)
    assert code == 2
    assert out == b""
    assert err.count(b"\n") == 1 and err.startswith(b"error:") and expected in err


def test_nested_expr_report():
    nested = "(" * 50 + "c(1)" + ")" * 50
    assert run_json("rewrite", "--case", "z", "--expr", nested)["normalForm"] == "c(1)"


# one argv per subcommand, among an argparse rejection, --help and a bad spec
REUSE_ARGVS = [
    ("rewrite", "--case", "z", "--expr", "c(1) a(1)"),
    ("no-such-command",),
    ("verify", "--suite", "relations-z", "--window", "-2..2", "--particles", "2"),
    ("--help",),
    ("moments", "--expr", "x(1)", "--max-order", "4", "--csv"),
    ("commutant", "--gens", "{not json"),
    ("cesaro", "--word", "c(0)", "--n", "4"),
    ("limit", "--N", "2,3"),
    ("rewrite", "--help"),
    ("states", "--expr", "a(1)c(1)", "--t", "1/3"),
    ("verify", "--suite", "anti", "--window", "1..3", "--max-size"),
    ("certificate", "--expr", "a(0)c(0)"),
    ("nonconvergence", "--n", "3"),
    ("commutant", "--gens", '{"case":"N","window":[1,1],"particles":1,"exprs":["x(1)"]}'),
    ("reps", "decompose", "--spec",
     '{"d":3,"particles":3,"components":[{"level":1,"phase":-1}]}'),
]


def test_parser_reused_across_calls(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    # help text wraps at the terminal width; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    env = {**ENV, "COLUMNS": "80"}
    mask = lambda b: RUNTIME.sub(b'"runtimeMillis": X', b)
    fresh = {}
    for argv in REUSE_ARGVS:
        proc = subprocess.run([sys.executable, "-m", "wmfock.cli", *argv],
                              capture_output=True, env=env)
        fresh[argv] = (proc.returncode, mask(proc.stdout), proc.stderr)
    assert {code for code, _, _ in fresh.values()} == {0, 2}
    capsys.readouterr()
    for argv in REUSE_ARGVS * 2:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejection or --help
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, mask(out.encode()), err.encode()) == fresh[argv], argv
