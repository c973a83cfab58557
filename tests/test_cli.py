"""Command line interface: subcommands, report schema, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wmfock import cli
from wmfock.errors import InternalConsistencyError

RUNTIME = re.compile(rb'"runtimeMillis": \d+')


def mask(report: bytes) -> bytes:
    return RUNTIME.sub(b'"runtimeMillis": X', report)


def run_cli(*args):
    """Exit code, stdout and stderr of one cli.main call in this process.

    An argparse rejection or --help leaves main through SystemExit, read as
    the exit code; main turns any other exception into exit 3 with its
    traceback on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


@dataclass(frozen=True)
class SpecFile:
    """A JSON spec argument that the test writes to a file and passes by path."""
    text: str


def write_specs(argv, folder):
    """argv with each SpecFile written to a file in folder and given by its path."""
    out = []
    for k, arg in enumerate(argv):
        if isinstance(arg, SpecFile):
            path = Path(folder, f"spec{k}.json")
            path.write_text(arg.text)
            arg = str(path)
        out.append(arg)
    return out


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


@pytest.mark.parametrize("expr, base", [("c(0)", 1), ("x(0)", 2), ("p(0)", 1)])
def test_moments_of_the_n_bottom_letter(expr, base):
    rep = run_json("moments", "--case", "n", "--expr", expr, "--max-order", "4")
    assert rep["moments"] == [base ** k for k in range(5)]


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


def test_verify_rep_n_max_index_zero():
    # 0 is an index, not "unset": only the index-0 instances and the vacuum projection
    rep = run_json("verify", "--suite", "rep-n", "--window", "1..3",
                   "--particles", "2", "--max-index", "0")
    assert rep["config"]["maxIndex"] == 0 and rep["summary"]["failed"] == 0
    ids = {i["id"].split(":")[1] for i in rep["instances"]}
    assert ids == {"sum-relation[0]", "partial-isometry[0]", "vacuum-projection",
                   "gauge-degree[0]"}


def test_verify_rep_n_high_level_builds_only_the_checked_generators():
    # generators below the level are zero and unchecked: none of them is built
    rep = run_json("verify", "--suite", "rep-n", "--window", "1..2", "--particles", "1",
                   "--levels", "10000000", "--max-index", "0")
    assert rep["summary"]["failed"] == 0
    assert rep["runtimeMillis"] < 5000


def test_cesaro_bound():
    rep = run_json("cesaro", "--word", "c(0)", "--n", "4")
    inst = rep["instances"][0]
    assert inst["id"] == "bound[n=4]"
    assert inst["pass"] is True
    assert inst["discrepancy"] <= inst["details"]["bound"]
    # the discrepancy is the exact norm of the average, 1/sqrt(n)
    assert inst["discrepancy"] == 0.5


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


def test_rep_n_refuses_a_bad_level_before_verifying_any(monkeypatch, capsys):
    def no_verify(*args):
        raise AssertionError("a level was verified before every level was checked")
    monkeypatch.setattr(cli, "verify_rep", no_verify)
    code = cli.main(["verify", "--suite", "rep-n", "--window", "1..40", "--particles", "2",
                     "--levels", "0,1,2,-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and "level must be nonnegative" in err


@pytest.mark.parametrize("levels, message", [
    (("0,0",), "level 0 given twice"),
    (("1,01",), "level 1 given twice"),
    # a negative level is still named first, and a repeat before the window
    (("0,0,-1",), "level must be nonnegative"),
    (("2,2", "--max-index", "61"), "level 2 given twice"),
])
def test_rep_n_refuses_a_repeated_level_before_verifying_any(monkeypatch, capsys, levels, message):
    def no_verify(*args):
        raise AssertionError("a level was verified before every level was checked")
    monkeypatch.setattr(cli, "verify_rep", no_verify)
    code = cli.main(["verify", "--suite", "rep-n", "--window", "1..60", "--particles", "2",
                     "--levels", *levels])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and message in err


def test_rep_n_refuses_a_high_max_index_before_verifying_any(monkeypatch, capsys):
    def no_verify(*args):
        raise AssertionError("a level was verified before every level was checked")
    monkeypatch.setattr(cli, "verify_rep", no_verify)
    # level 2 reaches generator 61 inside the window 1..60; level 0 does not
    code = cli.main(["verify", "--suite", "rep-n", "--window", "1..60", "--particles", "2",
                     "--levels", "2,0", "--max-index", "61"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and "needs window top 61" in err


def test_rep_n_refuses_a_bad_level_before_a_high_max_index(monkeypatch, capsys):
    def no_verify(*args):
        raise AssertionError("a level was verified before every level was checked")
    monkeypatch.setattr(cli, "verify_rep", no_verify)
    # two faults: every level is checked before any window
    code = cli.main(["verify", "--suite", "rep-n", "--window", "1..60", "--particles", "2",
                     "--levels", "0,-1", "--max-index", "61"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and "level must be nonnegative" in err


@pytest.mark.parametrize("suite, window, least", [
    ("relations-z", "-3..3", 2), ("anti", "1..3", 2), ("anti", "1..1", 1),
    ("exel-laca", "-3..3", 1), ("rep-n", "1..3", 1)])
def test_suites_refuse_particles_below_their_largest_surplus(capsys, suite, window, least):
    # one particle fewer leaves some identity no interior column to be checked on
    argv = ["verify", "--suite", suite, "--window", window, "--max-size", "1", "--particles"]
    assert cli.main(argv + [str(least - 1)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and f"must be at least {least}," in err
    assert cli.main(argv + [str(least)]) == 0
    checked = [i for i in json.loads(capsys.readouterr().out)["instances"]
               if "columns" in i.get("details", {})]
    assert checked and all(i["details"]["columns"] >= 1 for i in checked)


def test_reports_deterministic():
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
    (("verify", "--suite", "rep-n", "--window", "1..5", "--particles", "3", "--levels", "0,1,2,3"),
     "5db408f8b9db79c88b24346a8b923e351afdd0e1788829b6f3880b1a4ba8df0e"),
])
def test_verify_reports_byte_identical(args, digest):
    # sha256 of the report with runtimeMillis masked, as first recorded
    code, out, err = run_cli(*args)
    assert code == 0, err.decode()
    assert hashlib.sha256(mask(out)).hexdigest() == digest


def test_commutant_report_byte_identical():
    spec = json.dumps({"case": "N", "window": [1, 2], "particles": 4,
                       "exprs": ["x(1)", "x(2)"]}, separators=(",", ":"))
    code, out, err = run_cli("commutant", "--gens", spec)
    assert code == 0, err.decode()
    assert hashlib.sha256(mask(out)).hexdigest() == \
        "4429c96bb26f1245c2d782ac45071cf6c3eb855d45de9fc40c1e6d6c820ba5ac"


@pytest.mark.parametrize("args, digest", [
    (("cesaro", "--word", "c(1)", "--n", "64"),
     "ea6551751b4483ee31f9924341fd2f1755f9859e6fe88e88a24465628b82110b"),
    (("cesaro", "--word", "c(2)a(1)", "--n", "16"),
     "17e6bb466f9bb5d817a3560f78aea7db0d0338dd7b8a7bb3bffbb4cc694c3bf2"),
    (("cesaro", "--word", "c(3)c(2)", "--n", "20"),
     "774305a0c8a652c11acd10eca62f9e11450cdf420b4673ce91dc858f7acaa378"),
    (("cesaro", "--word", "a(2)", "--n", "9"),
     "7990a080b14eae739f1e6f4aeff2ffd0632ee96ee086cc07d2ebdd109341826d"),
    (("limit", "--N", "10,20,40", "--vector", "2,1"),
     "d45ec0d4f9b4cf954e6a668a54a08b26a225b76919b73a68f6e0a57608ddccb3"),
    (("limit", "--N", "10,20,40", "--vector", ""),
     "bc4d8a291919ab0f417e8ba9cf3638441eeac761b5b625e38f619a25ebeae912"),
    (("limit", "--N", "10,20,40", "--vector", "2,1", "--csv"),
     "de71d7aed5d638017190f6a747d41554db5e4b321bb75165bd0917a2747c6608"),
    (("limit", "--N", "10,20,40", "--vector", "", "--csv"),
     "b2ab0e0026eb734823adf53b31bc7e415b8fca27d59e3f2b82acf25de26fdede"),
    (("nonconvergence", "--n", "1"),
     "1b97d26cf9504149b1086cec6a0b6aede8b4f549eca40abdc3256677c6c7bb24"),
    (("nonconvergence", "--n", "2"),
     "cf6fcdcd677109e964c69ac59234d7124dc23858dadcd2c764cd9d71448d3ba3"),
    (("nonconvergence", "--n", "8"),
     "2c12529651b3c915fe76a0910e571d37dbe1f7723df43771d879658078246254"),
    (("nonconvergence", "--n", "157"),
     "823c19379b3389fca3ff0220a4692253288adb6d02eaaf705ef8276e250e674c"),
    # one generator that is not self-adjoint, so its adjoint's equations stay
    (("commutant", "--gens",
      '{"case":"N","window":[1,2],"particles":3,"exprs":["c(1)","x(1)"]}'),
     "438db52b2d36d1b3e3641269ae814b5bb17c70331c5c041f71476a8ed8c5035a"),
])
def test_shift_average_and_commutant_reports_byte_identical(args, digest):
    # sha256 of the output with runtimeMillis masked, as first recorded
    code, out, err = run_cli(*args)
    assert code == 0, err.decode()
    assert hashlib.sha256(mask(out)).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    (("rewrite", "--case", "z", "--expr", "(1-1i) c(1) a(1) + 1/2 q(2)'"),
     "3c5d745287b939da38d3dc7978d67076a5b65b08036e2df8ffce8d2f535eb5fb"),
    (("rewrite", "--case", "n", "--expr", "(-1/2+3i)*c(2) a(1) c(1)", "--show-steps"),
     "7bcdcc82832b00247b636acf2b4b9b66a2308a7f6ee0a6427a900feda3395d4a"),
    (("states", "--expr", "2/3 a(1)c(1) + (0.5+1i) I", "--t", "1/3"),
     "fccff458728040b5acbf648964b2383ecce00599be8312c6a8c2ee1509f8a34c"),
    (("certificate", "--case", "anti", "--expr", "(1+1i) a(2)c(2)"),
     "a5bf4b12d0b97ce5e85c361a9d0140509e9e54fa438959dcf36b3ef4d173824b"),
    (("moments", "--expr", "(1/2+1/2i) x(1)", "--max-order", "4"),
     "4a7e84ff9e541ff6f9520cfface4d7891e93b881069834e03cf1b0508c243cdf"),
])
def test_scalar_literal_reports_byte_identical(args, digest):
    # sha256 of the report with runtimeMillis masked, as first recorded
    code, out, err = run_cli(*args)
    assert code == 0, err.decode()
    assert hashlib.sha256(mask(out)).hexdigest() == digest


@pytest.mark.parametrize("text, pos", [("c(²)", 2), ("(1+2i", 4), ("(1/2-3i", 6),
                                       ("1e400*c(1)", 0), ("(1e400+1i)*c(1)", 1),
                                       ("c(1) -", 6)])
def test_malformed_expression_is_one_positioned_line(text, pos):
    code, out, err = run_cli("rewrite", "--case", "z", "--expr", text)
    assert code == 2 and out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "None" not in lines[0]
    assert lines[0].endswith(f"(at position {pos})")


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


BIG = str(10 ** 300)


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
    (("moments", "--expr", "x(1)", "--max-order", "100000"), b"above the bound"),
    (("moments", "--expr", "x(1) + x(2) + x(3)", "--max-order", "40"), b"above the bound"),
    (("reps", "decompose", "--spec",
      '{"d":3,"particles":100000,"components":[{"level":0,"phase":1}]}'), b"decompose bound"),
    (("reps", "decompose", "--spec", '{"d":100000,"particles":0,"components":[]}'),
     b"above the bound"),
    (("commutant", "--gens", '{"window":[1,2],"particles":14,"exprs":["x(1)","x(2)"]}'),
     b"commutant bound"),
    (("commutant", "--gens", '{"window":[1,1000000],"particles":1000000,"exprs":["x(1)"]}'),
     b"commutant bound"),
    (("limit", "--N", "10,100000"), b"above the bound of 20,001"),
    (("verify", "--suite", "relations-z", "--window", "-3..3", "--particles", "100000"),
     b"relations-z suite"),
    (("verify", "--suite", "anti", "--window", "1..4", "--particles", "100000"), b"anti suite"),
    (("verify", "--suite", "anti", "--window", "1..1000000", "--particles", "1"), b"anti suite"),
    (("verify", "--suite", "exel-laca", "--window", "-10..10", "--particles", "2",
      "--max-size", "3"), b"(X, Y) pairs"),
    (("verify", "--suite", "exel-laca", "--window", "-30..30", "--particles", "2",
      "--max-size", "100000"), b"(X, Y) pairs"),
    (("verify", "--suite", "exel-laca", "--window", "-3..3", "--particles", "100000"),
     b"could check more than 20,000,000 columns"),
    (("verify", "--suite", "exel-laca", "--window", "-300..300", "--particles", "1",
      "--max-size", "0"), b"890,724 identities"),
    (("verify", "--suite", "rep-n", "--window", "1..3", "--particles", "2",
      "--max-index", "-1"), b"--max-index must be >= 0"),
    (("verify", "--suite", "exel-laca", "--window", "1..6", "--particles", "2",
      "--max-size", "-1"), b"--max-size must be >= 0"),
    (("limit", "--N", "-1"), b"--N must be >= 0"),
    (("verify", "--suite", "relations-z", "--window", "-3..3", "--particles", "2",
      "--depth", "-1"), b"--depth must be >= 0"),
    # refused by a measure that never sums the space, however large it is
    (("verify", "--suite", "rep-n", "--window", "1..3", "--particles", "20000000"),
     b"rep-n suite"),
    (("verify", "--suite", "rep-n", "--window", "1..1000", "--particles", "5000"),
     b"rep-n suite"),
    (("verify", "--suite", "rep-n", "--window", "1..120", "--particles", "2"), b"rep-n suite"),
    (("verify", "--suite", "rep-n", "--window", "1..2", "--particles", "1", "--levels", "3000",
      "--max-index", "3000"), b"rep-n suite"),
    (("verify", "--suite", "rep-n", "--window", "1..2", "--particles", "1",
      "--levels", ",".join(["0"] * 20_000)), b"rep-n suite"),
    (("moments", "--expr", "".join(f"c({i % 200 + 1})" for i in range(1000)),
      "--max-order", "447"), b"above the bound"),
    (("reps", "decompose", "--spec",
      '{"d":3,"particles":%d,"components":[{"level":0,"phase":1}]}' % 10 ** 100),
     b"decompose bound"),
    # |phase|**2 - 1 of a 200-digit phase is past float range
    (("reps", "decompose", "--spec",
      '{"d":2,"particles":1,"components":[{"level":0,"phase":%d}]}' % 10 ** 200),
     b"phase must be unimodular"),
    (("reps", "decompose", "--spec",
      '{"d":2,"particles":1,"components":[{"level":0,"phase":"%d/3"}]}' % 10 ** 200),
     b"phase must be unimodular"),
    (("reps", "decompose", "--spec", '{"d":%d,"particles":0,"components":[]}' % 10 ** 100),
     b"above the bound"),
    (("cesaro", "--word", "c(1)", "--n", "-3"), b"--n must be >= 1"),
    (("nonconvergence", "--n", "-5"), b"--n must be >= 1"),
    (("limit", "--N", "10", "--vector", "1e308,1e308"), b"--vector takes integers, got '1e308'"),
    (("limit", "--N", "abc"), b"--N takes integers, got 'abc'"),
    (("verify", "--suite", "rep-n", "--window", "1..x", "--particles", "2"),
     b"--window takes integers, got 'x'"),
    (("verify", "--suite", "rep-n", "--window", "1..3", "--particles", "2", "--levels", "0,a"),
     b"--levels takes integers, got 'a'"),
    (("verify", "--suite", "exel-laca", "--window", "-3..3", "--particles", "2",
      "--family", '{"pairs":[{"X":[99],"Y":[]}]}'), b"pair index 99 outside the universe"),
    (("verify", "--suite", "exel-laca", "--window", "1..4", "--particles", "2", "--depth", "3"),
     b"window too small for the requested depth"),
    (("reps", "decompose", "--spec",
      '{"d":3,"particles":2,"components":[{"level":0,"phase":1}],"zeroDim":-1}'),
     b"'zeroDim' must be >= 0"),
    (("verify", "--suite", "exel-laca", "--window", "-3..3", "--particles", "2",
      "--family", SpecFile('{"pairs":[{"X":1,"Y":[2]}]}')), b"'pairs' must be a list"),
    # a bad level is refused before any good one is verified, and before a bad window
    (("verify", "--suite", "rep-n", "--window", "1..60", "--particles", "2", "--levels", "0,-1"),
     b"level must be nonnegative"),
    (("verify", "--suite", "rep-n", "--window", "1..60", "--particles", "2", "--levels", "2,0",
      "--max-index", "61"), b"needs window top 61"),
    (("verify", "--suite", "rep-n", "--window", "1..60", "--particles", "2", "--levels", "0,-1",
      "--max-index", "61"), b"level must be nonnegative"),
    (("verify", "--suite", "rep-n", "--window", "1..3", "--particles", "2", "--levels", "0,0"),
     b"level 0 given twice"),
    (("verify", "--suite", "rep-n", "--window", "1..3", "--particles", "2", "--levels", "1,01"),
     b"level 1 given twice"),
    # too few particles would leave some identity no interior column
    (("verify", "--suite", "anti", "--window", "1..3", "--particles", "1"),
     b"must be at least 2,"),
    (("verify", "--suite", "relations-z", "--window", "-3..3", "--particles", "1"),
     b"must be at least 2,"),
    (("verify", "--suite", "rep-n", "--window", "1..3", "--particles", "0"),
     b"must be at least 1,"),
    # 1e200 is a finite literal, but its square is inf, which no report holds
    (("moments", "--expr", "1e200*x(1)", "--max-order", "4"), b"--max-order"),
    (("moments", "--expr", "1e200*x(1)", "--max-order", "4", "--csv"), b"--max-order"),
    # a universe too large to list, sized from its two ends
    (("verify", "--suite", "exel-laca", "--window", "1..99999999999999999999",
      "--particles", "1"), b"(X, Y) pairs"),
    # numbers of more than 20 digits are shortened in the error line
    (("verify", "--suite", "exel-laca", "--window", f"1..{BIG}", "--particles", "1",
      "--max-size", "0"), b"249999...(601 digits) identities"),
    (("verify", "--suite", "rep-n", "--window", f"1..{BIG}", "--particles", "2"),
     b"rep-n suite"),
    (("limit", "--N", BIG), b"above the bound of 20,001"),
    (("moments", "--expr", "x(1)", "--max-order", BIG), b"above the bound"),
    (("verify", "--suite", "rep-n", "--window", "1..3", "--particles", "2",
      "--max-index", BIG), b"rep-n suite"),
    (("nonconvergence", "--n", BIG), b"word evaluations"),
    (("verify", "--suite", "exel-laca", "--window", "-3..3", "--particles", BIG),
     b"100000...(301 digits) particles"),
    (("verify", "--suite", "relations-z", "--window", "-3..3", "--particles", BIG),
     b"relations-z suite"),
    (("verify", "--suite", "exel-laca", "--window", f"1..{BIG}", "--particles", "1"),
     b"(X, Y) pairs"),
    (("verify", "--suite", "anti", "--window", f"1..{BIG}", "--particles", "2"), b"anti suite"),
    (("cesaro", "--word", "c(1)", "--n", BIG), b"exceeds cap"),
    # 2**20 words of 20 letters, refused at the 15th factor before it expands
    (("rewrite", "--case", "z", "--expr", "(c(1)+a(1))" * 20),
     b"product could expand past 500,000 terms times letters (at position 154)"),
])
def test_numeric_and_spec_faults_exit_2(args, expected, tmp_path):
    started = time.monotonic()
    code, out, err = run_cli(*write_specs(args, tmp_path))
    assert time.monotonic() - started < 10
    assert code == 2
    assert out == b""
    assert err.count(b"\n") == 1 and err.startswith(b"error:") and expected in err
    assert len(err) < 200


@pytest.mark.parametrize("args", [
    ("verify", "--suite", "anti", "--window", "1..1", "--particles", "1500"),
    ("nonconvergence", "--n", "157"),
    ("verify", "--suite", "rep-n", "--window", "1..60", "--particles", "2"),
    # the largest product of (c(1)+a(1)) factors, in the slowest subcommand per letter
    ("states", "--expr", "(c(1)+a(1))" * 14, "--t", "1/3"),
])
def test_largest_admitted_inputs_run_in_time(args):
    started = time.monotonic()
    code, out, err = run_cli(*args)
    assert time.monotonic() - started < 10
    assert code == 0, err.decode()
    assert json.loads(out)["summary"]["failed"] == 0


@pytest.mark.parametrize("word, code", [
    ("c(2)", 0),  # norm 1/8, exactly the bound
    ("1000000001/1000000000 c(2)", 1),  # norm 0.125000000125, inside the float slack
    ("1.000000001 c(2)", 0),  # a float coefficient keeps the slack
])
def test_cesaro_verdict_is_exact_on_exact_coefficients(word, code):
    got, out, err = run_cli("cesaro", "--word", word, "--n", "64")
    assert got == code, err.decode()
    inst = json.loads(out)["instances"][0]
    assert inst["pass"] is (code == 0)
    assert inst["details"]["bound"] == 0.125 + 1e-9


def test_report_unchanged_by_large_calls_between():
    # state shared by every call in the process: the cached parser and the fold memo
    argvs = [("verify", "--suite", "exel-laca", "--window", "-4..4", "--particles", "3",
              "--max-size", "1"),
             ("states", "--expr", "2/3 a(1)c(1) + q(2) c(1)", "--t", "1/3")]
    runs = lambda: [(code, mask(out), err) for code, out, err in (run_cli(*a) for a in argvs)]
    before = runs()
    assert [code for code, _, _ in before] == [0, 0]
    # 2**14 words fold past the memo's bound, so it is cleared and filled again
    assert run_cli("rewrite", "--case", "z", "--expr", "(c(1) + a(2))" * 14)[0] == 0
    assert run_cli("verify", "--suite", "rep-n", "--window", "1..8", "--particles", "3")[0] == 0
    assert runs() == before


def test_many_particles_enumerate_without_recursion():
    # 1,500 particles once nested one generator per level, past the recursion limit
    rep = run_json("verify", "--suite", "anti", "--window", "1..1", "--particles", "1500")
    assert rep["summary"] == {"total": 2, "passed": 2, "failed": 0}


def test_nested_expr_report():
    nested = "(" * 50 + "c(1)" + ")" * 50
    assert run_json("rewrite", "--case", "z", "--expr", nested)["normalForm"] == "c(1)"


# --- the subprocess set: what only a fresh process shows ---------------------------
# Every other test calls cli.main in this process through run_cli.  These start
# a new interpreter: the `python -m wmfock.cli` entry point and the exit codes it
# hands to the shell, against calls reused in one process; the exit code of an
# exception that escapes a command; and a memory bound, which a child process
# can take without risk to this one.

# the child process imports the same wmfock as this one
SRC = str(Path(cli.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_process(*args, env=ENV):
    """Exit code, stdout and stderr of `python -m wmfock.cli` in a new process."""
    proc = subprocess.run([sys.executable, "-m", "wmfock.cli", *args],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_an_escaped_exception_exits_3_with_a_traceback():
    # exit 1 would read as a failed check
    child = ("import runpy, sys, wmfock.rewrite\n"
             "def boom(*args, **kwargs): raise RuntimeError('boom')\n"
             "wmfock.rewrite.normalize_z = boom\n"
             "sys.argv = ['wmfock', 'rewrite', '--case', 'z', '--expr', 'c(1)']\n"
             "runpy.run_module('wmfock.cli', run_name='__main__', alter_sys=True)\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, env=ENV)
    assert proc.returncode == 3 and proc.stdout == b""
    assert b"Traceback" in proc.stderr and proc.stderr.endswith(b"RuntimeError: boom\n")


@pytest.mark.skipif(sys.platform != "linux", reason="reads the address space from /proc")
def test_a_huge_exel_laca_window_is_refused_before_it_is_listed():
    # the universe of 1..30000000 once became a list first, about 1.4 GB; the
    # child may map at most 256 MB more than it holds after import
    child = ("import re, resource, sys\n"
             "from wmfock import cli\n"
             "held = re.search(r'VmSize:\\s+(\\d+) kB', open('/proc/self/status').read())\n"
             "limit = int(held.group(1)) * 1024 + (256 << 20)\n"
             "resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit("
             "resource.RLIMIT_AS)[1]))\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", child, "verify", "--suite", "exel-laca",
                           "--window", "1..30000000", "--particles", "1"],
                          capture_output=True, env=ENV)
    assert time.monotonic() - started < 10
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error:") and b"(X, Y) pairs" in proc.stderr


# one argv per subcommand, among an argparse rejection, --help, a bad spec and a
# failed check; the second pass in-process reads each rewrite fold from the memo
REUSE_ARGVS = [
    ("rewrite", "--case", "z", "--expr", "c(1) a(1)"),
    ("rewrite", "--case", "n", "--expr", "a(2)c(2)c(1)"),
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
    ("commutant", "--gens",
     '{"case":"N","window":[1,1],"particles":1,"exprs":["x(1)"],"expect":5}'),
    ("reps", "decompose", "--spec",
     '{"d":3,"particles":3,"components":[{"level":1,"phase":-1}]}'),
    # the first entry's word again: a logged fold runs every step past the memo
    ("rewrite", "--case", "z", "--expr", "c(1) a(1)", "--show-steps"),
]


def test_parser_reused_across_calls(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    # help text wraps at the terminal width; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    env = {**ENV, "COLUMNS": "80"}
    fresh = {}
    for argv in REUSE_ARGVS:
        code, out, err = run_process(*argv, env=env)
        fresh[argv] = (code, mask(out), err)
    assert {code for code, _, _ in fresh.values()} == {0, 1, 2}
    for argv in REUSE_ARGVS * 2:
        code, out, err = run_cli(*argv)
        assert (code, mask(out), err) == fresh[argv], argv


# --- main() on generated argv ------------------------------------------------------

EXPRS = ["c(1)", "a(1) c(1)", "x(1)", "x(1) + x(2)", "q(1) + 2 p(2)", "c(2)a(1)c(1)",
         "a(0)c(0)", "0.5*a(1)c(1)", "1/3 I + c(1)'", "I", "c(", "",
         "(1-1i) c(1)", "(1/2+3/4i)*a(1)c(1)", "c(²)", "(1+2i", "2/0 c(1)", "c(1/2)"]


def number(lo, hi, *oversized):
    """An int argument in [lo, hi], or one of the oversized values."""
    values = st.integers(lo, hi)
    if oversized:
        values |= st.sampled_from(oversized)
    return values.map(str)


def option(name, values, optional=False):
    """`name` with one of the values, or (when optional) no option at all."""
    given = values.map(lambda v: [name, v])
    return st.just([]) | given if optional else given


def json_arg(fields, required):
    """A JSON object, inline or in a file: the required fields and any of the
    others, or any subset of all of them."""
    whole = st.fixed_dictionaries({k: fields[k] for k in required},
                                  optional={k: v for k, v in fields.items() if k not in required})
    text = (whole | st.fixed_dictionaries({}, optional=fields)).map(json.dumps)
    return text | text.map(SpecFile) | st.just(SpecFile("[1]"))


def command(*parts):
    """argv of one subcommand: its name, then each part's list of arguments."""
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


expr = st.sampled_from(EXPRS)
ints = st.lists(st.integers(-3, 4), max_size=2)
pair = st.fixed_dictionaries({"X": ints, "Y": ints}) | st.fixed_dictionaries(
    {}, optional={"X": ints | st.just(1), "Y": ints})
family = json_arg({"pairs": st.lists(pair, max_size=2) | st.just("x")}, ["pairs"])
gens = json_arg({
    "case": st.sampled_from(["N", "z", "anti", "q", 5]),
    "window": st.sampled_from([[1, 1], [1, 2], "1..2", "-1..1", [1], "1-2", [1, 1000]]),
    "particles": st.integers(0, 3) | st.sampled_from([-1, "1", None, 1000000]),
    "exprs": st.lists(expr, min_size=1, max_size=3) | st.sampled_from([[], "x(1)"]),
    "expect": st.none() | st.integers(0, 4) | st.just("2"),
}, ["window", "particles", "exprs"])
component = st.fixed_dictionaries({"level": st.integers(0, 2), "phase": st.just(1)}) | \
    st.fixed_dictionaries({}, optional={
        "level": st.integers(-1, 3) | st.just("0"),
        "phase": st.sampled_from([1, -1, 0.5, "3/5", "1/0", {"re": 0, "im": 1}, [1]]),
        "mult": st.integers(-1, 2) | st.just("2"),
    })
reps_spec = json_arg({
    "d": st.integers(-1, 3) | st.sampled_from(["3", 100000]),
    "particles": st.integers(0, 3) | st.sampled_from([-1, None, 100000]),
    "zeroDim": st.integers(-2, 2) | st.none(),
    "components": st.lists(component, max_size=3) | st.just("x"),
}, ["d", "particles", "components"])
window = st.builds(lambda lo, width: f"{lo}..{lo + width}", st.integers(-3, 3),
                   st.integers(-1, 4)) | st.sampled_from(["-3..3", "1..4", "1-3", "x..2"])
csv = st.sampled_from([[], ["--csv"]])

ARGV = st.one_of(
    command(st.just(["rewrite"]), option("--case", st.sampled_from(["z", "n"])),
            option("--expr", expr), st.sampled_from([[], ["--show-steps"]])),
    command(st.just(["verify"]),
            option("--suite", st.sampled_from(["relations-z", "exel-laca", "rep-n", "anti"])),
            option("--window", window), option("--particles", number(-1, 3)),
            option("--depth", number(-1, 3), optional=True),
            option("--max-size", number(0, 1), optional=True),
            option("--family", family, optional=True),
            option("--levels", st.sampled_from(["0", "0,1", "2", "-1", "x"]), optional=True),
            option("--max-index", number(-1, 3), optional=True)),
    command(st.just(["moments"]), option("--expr", expr),
            option("--case", st.sampled_from(["z", "n", "anti"])),
            option("--max-order", number(-2, 8, 100000)), csv),
    command(st.just(["cesaro"]),
            option("--word", expr | st.sampled_from(["c(0)", "a(1)", "2 a(1)", "a(1)a(2)",
                                                     "c(1)c(2)"])),
            option("--n", number(-1, 6, 100000))),
    command(st.just(["limit"]),
            option("--N", st.lists(st.integers(-1, 12), min_size=1, max_size=3).map(
                lambda ns: ",".join(map(str, ns))) | st.just("x")),
            option("--vector", st.sampled_from(["", "1", "2,1", "(1,2)", "x"])), csv),
    command(st.just(["states"]), option("--expr", expr),
            option("--t", st.sampled_from(["1/3", "0", "2", "0.25", "-1", "nan", "1/0", "x"]))),
    command(st.just(["certificate"]), option("--expr", expr),
            option("--case", st.sampled_from(["z", "anti"]))),
    command(st.just(["nonconvergence"]), option("--n", number(-1, 8, 100000))),
    command(st.just(["commutant"]), option("--gens", gens)),
    command(st.just(["reps", "decompose"]), option("--spec", reps_spec)),
)

EL_WINDOW = ["verify", "--suite", "exel-laca", "--window", "-3..3", "--particles", "2"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ARGV)
@example(["verify", "--suite", "exel-laca", "--window", "1..4", "--particles", "2",
          "--depth", "3"])
@example(["reps", "decompose", "--spec",
          '{"d":3,"particles":2,"components":[{"level":0,"phase":1}],"zeroDim":-1}'])
@example(EL_WINDOW + ["--family", SpecFile('{"pairs":[{"X":1,"Y":[2]}]}')])
@example(EL_WINDOW + ["--family", SpecFile("[1]")])
def test_main_exit_contract(argv):
    # no exception but argparse's SystemExit leaves main, and exit 2 is one error line
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = write_specs(argv, tmp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                assert exc.code == 2 and out.getvalue() == ""
                return
    assert code in (0, 1, 2, 3), argv
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error:") and lines[0].endswith("\n"), argv
    else:
        assert out.getvalue(), argv
