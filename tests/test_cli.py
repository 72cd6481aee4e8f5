import contextlib
import errno
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import cli_oracle
import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcalc.cli import _parse, run
from hopfcalc.crossed import Measure
from hopfcalc.examples import EXAMPLES, radford_injected_calculus
from hopfcalc.report import render_json
from hopfcalc.scalars import CycScalar

C4_HOPF = pathlib.Path(__file__).resolve().parents[1] / "sample-data" / "c4.hopf"


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_examples_contains_registry(capsys):
    code, out, err = invoke(capsys, ["list-examples"])
    assert code == 0
    payload = json.loads(out)
    names = [e["name"] for e in payload["examples"]]
    for name in ("radford", "torus", "group-c2", "smash-demo"):
        assert name in names
    assert payload["schema"] == 1


def test_advertised_defaults_are_the_cli_defaults(capsys):
    # list-examples shows "(default N)"; the flag table is what fills params
    code, out, err = invoke(capsys, ["list-examples"])
    assert code == 0
    shown = 0
    for example in json.loads(out)["examples"]:
        # cohomology offers only the examples with a graded calculus
        command = "cohomology" if "graded" in EXAMPLES[example["name"]] else "verify"
        _, _, defaults, _ = _parse([command, example["name"]])
        for key, text in example["params"].items():
            for value in re.findall(r"\(default (\S+)\)", text):
                assert value == str(defaults[key.replace("-", "_")]), (example["name"], key)
                shown += 1
    assert shown >= 6


def test_unknown_example_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, ["verify", "moebius"])
    assert code == 2


def test_unknown_flag_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, ["verify", "group-c2", "--frobenius", "1"])
    assert code == 2


def test_unknown_suite_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, ["verify", "group-c2", "--suite", "nope"])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: params: unknown suite 'nope' for example 'group-c2'"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "command: missing (choose from list-examples, verify, cohomology)"),
        (["frobnicate"], "command: invalid choice 'frobnicate' (choose from list-examples, verify, cohomology)"),
        (["verify"], "example: missing (choose from group-c2, radford, smash-demo, torus, user-hopf)"),
        (["verify", "moebius"], "example: invalid choice 'moebius' (choose from group-c2, radford, smash-demo, torus, user-hopf)"),
        (["cohomology", "smash-demo"], "example: invalid choice 'smash-demo' (choose from group-c2, radford, torus)"),
        (["verify", "group-c2", "--frobenius", "1"], "--frobenius: unknown flag for verify"),
        (["verify", "torus", "--win", "4"], "--win: unknown flag for verify"),
        (["verify", "group-c2", "--max-degree", "1"], "--max-degree: unknown flag for verify"),
        (["cohomology", "group-c2", "--suite=fodc"], "--suite: unknown flag for cohomology"),
        (["list-examples", "--r", "3"], "--r: unknown flag for list-examples"),
        (["verify", "group-c2", "--r"], "--r: expected a value"),
        (["verify", "user-hopf", "--file", "--ideal", "zero"], "--file: expected a value"),
        (["verify", "radford", "--r", "two"], "--r: invalid int value 'two'"),
        (["verify", "radford", "--r=1.5"], "--r: invalid int value '1.5'"),
        (["verify", "group-c2", "--ideal", "half"], "--ideal: invalid choice 'half' (choose from zero, full)"),
        (["verify", "group-c2", "radford"], "unexpected argument 'radford'"),
        (["list-examples", "radford"], "unexpected argument 'radford'"),
    ],
)
def test_a_refused_command_line_names_the_params_stage(capsys, argv, message):
    assert invoke(capsys, argv) == (2, "", f"error: params: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "radford", "--r", "3", "--n", "2"],
        ["verify", "--n=2", "radford", "--r=3"],
        ["verify", "--r", "1", "radford", "--r", "3"],
    ],
)
def test_flags_go_before_or_after_the_example_and_the_last_repeat_wins(argv):
    params = {"r": 3, "n": 2, "q_power": 1, "M": 8, "ideal": "zero", "window": 4, "seed": 0}
    assert _parse(argv) == ("verify", "radford", params, None)


@pytest.mark.parametrize("argv", [["--help"], ["-h", "verify"], ["verify", "radford", "--r", "3", "-h"], ["cohomology", "moebius", "--help"]])
def test_help_anywhere_prints_the_usage(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: hopf-calc list-examples\n")
    for flag in ("--suite STR", "--max-degree INT", "--ideal zero|full", "--ideal-file STR"):
        assert flag in out


def test_group_c2_verify_passes_and_emits_json(capsys):
    code, out, err = invoke(capsys, ["verify", "group-c2", "--ideal", "zero"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["summary"].get("fail", 0) == 0
    suites = [r["suite"] for r in payload["reports"]]
    assert "hopf-axioms" in suites and "fodc" in suites


def test_group_c2_full_ideal(capsys):
    code, out, err = invoke(capsys, ["verify", "group-c2", "--ideal", "full"])
    assert code == 0


def test_suite_filter(capsys):
    code, out, err = invoke(capsys, ["verify", "group-c2", "--suite", "hopf-axioms"])
    assert code == 0
    payload = json.loads(out)
    assert [r["suite"] for r in payload["reports"]] == ["hopf-axioms"]


def test_cohomology_group_c2(capsys):
    code, out, err = invoke(capsys, ["cohomology", "group-c2", "--ideal", "zero", "--max-degree", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == {"H0": 1, "H1": 1}


def test_cohomology_radford(capsys):
    code, out, err = invoke(capsys, ["cohomology", "radford", "--max-degree", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == {"H0": 2, "H1": 4, "H2": 2, "H3": 0}


def test_cohomology_without_a_prolongation_reports_the_obstruction(capsys):
    # radford --r 3 has no degree-two-trivial prolongation: a mathematical
    # outcome, reported with the witness that verify records, not a usage error
    code, out, err = invoke(capsys, ["verify", "radford", "--r", "3", "--suite", "higher-forms"])
    assert code == 0
    (check,) = json.loads(out)["reports"][0]["checks"]
    assert (check["identity"], check["status"]) == ("truncation-obstruction", "pass")
    code, out, err = invoke(capsys, ["cohomology", "radford", "--r", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["obstruction"] == check["witness"]
    assert payload["obstruction"].startswith("no degree-two-trivial prolongation: cross terms at ")
    assert "dims" not in payload and "window" not in payload
    assert out == render_json(payload)
    assert "error" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "smash-demo"],
        ["cohomology", "user-hopf", "--file", str(C4_HOPF)],
    ],
)
def test_cohomology_without_a_graded_calculus_is_refused(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert "invalid choice" in err


def test_user_hopf_roundtrip(tmp_path, capsys):
    text = C4_HOPF.read_text()
    path = tmp_path / "c4.hopf"
    path.write_text(text)
    code, out, err = invoke(capsys, ["verify", "user-hopf", "--file", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_user_hopf_broken_antipode_fails(tmp_path, capsys):
    text = C4_HOPF.read_text()
    # corrupt the antipode: send generator 1 to itself instead of its inverse
    text = text.replace("ANTIPODE 1 -> 3 : 1", "ANTIPODE 1 -> 1 : 1")
    text = text.replace("ANTIPODE 3 -> 1 : 1", "ANTIPODE 3 -> 3 : 1")
    path = tmp_path / "bad.hopf"
    path.write_text(text)
    code, out, err = invoke(capsys, ["verify", "user-hopf", "--file", str(path)])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["summary"]["fail"] >= 1


def test_user_hopf_missing_file_is_usage_error(capsys):
    code, out, err = invoke(capsys, ["verify", "user-hopf"])
    assert code == 2


def test_radford_single_suite_deterministic(capsys):
    argv = ["verify", "radford", "--r", "2", "--n", "2", "--ideal", "zero", "--seed", "7", "--suite", "hopf-galois"]
    code1, out1, _ = invoke(capsys, argv)
    code2, out2, _ = invoke(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_torus_single_suite_through_cli(capsys):
    code, out, err = invoke(
        capsys, ["verify", "torus", "--M", "8", "--window", "2", "--suite", "cleft-derivation"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    identities = [c["identity"] for c in payload["reports"][0]["checks"]]
    assert "cleft.sigma-closed-form" in identities


def test_torus_order_two_angle_uses_fallback_deformation(capsys):
    code, out, err = invoke(
        capsys, ["verify", "torus", "--M", "2", "--window", "2", "--suite", "cleft-derivation"]
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_radford_r3_runs_with_truncation_obstruction_reported(capsys):
    code, out, err = invoke(capsys, ["verify", "radford", "--r", "3", "--suite", "higher-forms"])
    assert code == 0
    payload = json.loads(out)
    checks = payload["reports"][0]["checks"]
    assert checks[0]["identity"] == "truncation-obstruction"
    assert "no degree-two-trivial prolongation" in checks[0]["witness"]


def test_user_hopf_with_ideal_file_builds_the_quotient_calculus(tmp_path, capsys):
    text = C4_HOPF.read_text()
    hopf_path = tmp_path / "c4.hopf"
    hopf_path.write_text(text)
    ideal_path = tmp_path / "ideal.txt"
    # the ideal generated by (g^2 - 1): a proper quotient remains
    ideal_path.write_text("# span of the squared generator shifted by the unit\n1*2 - 1*0\n")
    code, out, err = invoke(
        capsys,
        ["verify", "user-hopf", "--file", str(hopf_path), "--ideal-file", str(ideal_path)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    suites = [r["suite"] for r in payload["reports"]]
    assert "ideal-calculus" in suites


def test_shipped_sample_data_verifies(capsys):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    code, out, err = invoke(
        capsys,
        [
            "verify",
            "user-hopf",
            "--file",
            str(root / "sample-data" / "c4.hopf"),
            "--ideal-file",
            str(root / "sample-data" / "c4-ideal.txt"),
        ],
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_cohomology_torus_windowed(capsys):
    code, out, err = invoke(capsys, ["cohomology", "torus", "--M", "8", "--window", "3", "--max-degree", "2"])
    assert code == 0
    payload = json.loads(out)
    # window semantics: the kernel in degree zero is the zero-grade column
    # (the q-integer [n] vanishes only at n = 0 on this window)
    assert payload["dims"] == {"H0": 7, "H1": 7, "H2": 0}
    assert payload["window"] == 3


def test_zero_denominator_in_hopf_file_is_a_usage_error(tmp_path, capsys):
    text = C4_HOPF.read_text()
    text = text.replace("MUL 3 3 -> 2 : 1", "MUL 3 3 -> 2 : 1/0")
    assert "1/0" in text
    path = tmp_path / "zero-denominator.hopf"
    path.write_text(text)
    code, out, err = invoke(capsys, ["verify", "user-hopf", "--file", str(path)])
    assert code == 2
    assert "'1/0'" in err
    assert "Traceback" not in err


def test_negative_max_degree_is_a_usage_error(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("an instance was built for an invalid --max-degree")

    monkeypatch.setitem(EXAMPLES["radford"], "build", no_build)
    code, out, err = invoke(capsys, ["cohomology", "radford", "--max-degree", "-1"])
    assert code == 2
    assert out == ""
    assert "--max-degree" in err


@pytest.mark.parametrize(
    "line, text, message",
    [
        (2, "DIM -3", "DIM must be at least 1"),
        (3, "SCALAR_ORDER 0", "SCALAR_ORDER must be at least 1"),
        (5, "MUL 0 9 -> 7 : 1", "basis index 9 outside 0..3"),
        (30, "ANTIPODE 3 -> -1 : 1", "basis index -1 outside 0..3"),
        (6, "MUL 0 1 -> 1 : 2", "repeated MUL entry 0 1 1"),
        (32, "COMUL 3 -> 3 3 : 1", "repeated COMUL entry 3 3 3"),
        (32, "COUNIT 0 : 1", "repeated COUNIT entry 0"),
        (32, "ANTIPODE 1 -> 3 : 1", "repeated ANTIPODE entry 1 3"),
        (26, "COUNIT 2 : z3", "not in Q(zeta_1)"),
        (2, "DIM four", "malformed DIM line"),
        (20, "COMUL 0 -> 0 0 0 : 1", "malformed COMUL line"),
        (2, "DIM 4 5", "malformed DIM line 'DIM 4 5': expected 'DIM <d>'"),
        (21, "COMUL 1 -> 1 : 1", "malformed COMUL line 'COMUL 1 -> 1 : 1': expected 'COMUL i -> j k : c'"),
        (5, "MUL 0 1 x 1 : 1", "malformed MUL line 'MUL 0 1 x 1 : 1': expected 'MUL i j -> k : c'"),
        (3, "SCALAR_ORDER", "malformed SCALAR_ORDER line 'SCALAR_ORDER': expected 'SCALAR_ORDER <M>'"),
        (26, "COUNIT 2 1", "malformed COUNIT line 'COUNIT 2 1': expected 'COUNIT i : c'"),
        (1, "HOPF", "malformed HOPF line 'HOPF': expected 'HOPF <name>'"),
        (30, "ANTIPODE 3 : 1", "malformed ANTIPODE line 'ANTIPODE 3 : 1': expected 'ANTIPODE i -> j : c'"),
    ],
)
def test_malformed_hopf_file_is_a_usage_error_naming_the_line(tmp_path, capsys, line, text, message):
    # the sample file (31 lines) with one line replaced, or with line 32 appended
    lines = C4_HOPF.read_text().splitlines()
    lines[line - 1 : line] = [text]
    path = tmp_path / "bad.hopf"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = invoke(capsys, ["verify", "user-hopf", "--file", str(path)])
    assert code == 2
    assert out == ""
    assert f"line {line}: " in err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "line, text, message",
    [
        (1, "1*0 - 1*9", "basis index 9 outside 0..3"),
        (2, "1*-1", "bad vector term"),
        (3, "(z3)*1 - 1*0", "not in Q(zeta_1)"),
        (1, "1*2 - 1*0 +", "bad vector term"),
    ],
)
def test_malformed_ideal_file_is_a_usage_error_naming_the_line(tmp_path, capsys, monkeypatch, line, text, message):
    import hopfcalc.hopf

    def no_suite(*args):
        raise AssertionError("a suite ran on an invalid ideal file")

    monkeypatch.setattr(hopfcalc.hopf, "check_hopf_axioms", no_suite)
    lines = ["# generators", "1*2 - 1*0", "1*3 - 1*1"]
    lines[line - 1] = text
    path = tmp_path / "bad-ideal.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = invoke(capsys, ["verify", "user-hopf", "--file", str(C4_HOPF), "--ideal-file", str(path)])
    assert code == 2
    assert out == ""
    assert f"line {line}: " in err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "radford", "--n", "3"], "--n"),
        (["verify", "radford", "--q-power", "2"], "--q-power"),
        (["verify", "radford", "--r", "0"], "--r"),
        # a negative value is a value, not a flag, and reaches the validator
        (["verify", "radford", "--r", "-1"], "--r"),
        (["verify", "radford", "--r=-1"], "--r"),
        (["verify", "torus", "--window", "0"], "--window"),
        (["verify", "torus", "--window", "-1"], "--window"),
        (["verify", "torus", "--M", "0"], "--M"),
        (["verify", "smash-demo", "--window", "0"], "--window"),
        (["verify", "smash-demo", "--M", "2"], "--M"),
        (["verify", "user-hopf"], "--file"),
        # an empty path used to drop the ideal-calculus suite without a word
        (["verify", "user-hopf", "--file", str(C4_HOPF), "--ideal-file", ""], "--ideal-file"),
        (["cohomology", "radford", "--n", "3"], "--n"),
        (["cohomology", "torus", "--window", "1"], "--window"),
    ],
)
def test_invalid_parameters_are_refused_before_any_instance(capsys, monkeypatch, argv, flag):
    def no_build(*args):
        raise AssertionError("an instance was built for invalid parameters")

    monkeypatch.setitem(EXAMPLES[argv[1]], "build", no_build)
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: params: ")
    assert flag in err
    assert "suite" not in err and f"{argv[1]}:" not in err


@pytest.mark.parametrize(
    "argv",
    [["verify", name, "--suite", "nope"] for name in sorted(EXAMPLES) if name != "user-hopf"]
    + [["verify", "user-hopf", "--file", "/nonexistent", "--suite", "nope"]],
)
def test_an_unknown_suite_is_refused_before_any_build(capsys, monkeypatch, argv):
    def no_build(*args):
        raise AssertionError("an instance was built for an unknown suite")

    monkeypatch.setitem(EXAMPLES[argv[1]], "build", no_build)
    code, out, err = invoke(capsys, argv)
    assert (code, out, err) == (2, "", f"error: params: unknown suite 'nope' for example {argv[1]!r}\n")


def test_a_user_file_that_cannot_be_built_names_the_build_stage(tmp_path, capsys):
    lines = C4_HOPF.read_text().splitlines()
    lines[25] = "COUNIT 2 : z3"
    path = tmp_path / "bad.hopf"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = invoke(capsys, ["verify", "user-hopf", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: build: line 26: ")


def test_a_graded_calculus_that_cannot_be_built_names_the_build_stage(capsys, monkeypatch):
    def refuse(instance):
        raise ValueError("no graded calculus here")

    monkeypatch.setitem(EXAMPLES["group-c2"], "graded", refuse)
    code, out, err = invoke(capsys, ["cohomology", "group-c2"])
    assert (code, out, err) == (2, "", "error: build: no graded calculus here\n")


def test_a_suite_that_raises_names_its_suite(capsys, monkeypatch):
    from hopfcalc.report import CheckReport

    def cannot_run(instance):
        raise ValueError("no solution for the section")

    suites = [("fine", lambda instance: CheckReport()), ("broken", cannot_run)]
    monkeypatch.setitem(EXAMPLES["group-c2"], "suites", lambda params: suites)
    code, out, err = invoke(capsys, ["verify", "group-c2"])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["group-c2:fine: ok (0 checks)", "error: suite:broken: no solution for the section"]


def _doubled_measure(act):
    return Measure(act=lambda g, b: act(g, b).scale(CycScalar.from_rational(2)))


def _injected_base_calculus(inst):
    calc, _ = radford_injected_calculus(inst)
    return calc


@pytest.mark.parametrize(
    "name, corrupt, refusal",
    [
        ("Measure", _doubled_measure, "crossed product hypothesis failed: measure.unit at g(0)"),
        (
            "radford_base_calculus",
            _injected_base_calculus,
            "hypothesis failed: twisted module calculus check dsigma at g(1) ; g(1) ; (1)*omx(0,0)",
        ),
    ],
)
def test_radford_hypothesis_suites_fail_through_the_builders_refusal(capsys, monkeypatch, name, corrupt, refusal):
    """The twisted-module and twisted-calculus suites return the reports the
    builders kept, so a failed hypothesis refuses the instance: the build
    stage names the refusal, whichever suite is asked for, and no report is
    written."""
    import hopfcalc.examples

    monkeypatch.setattr(hopfcalc.examples, name, corrupt)
    for argv in (["verify", "radford"], ["verify", "radford", "--suite", "twisted-calculus"]):
        code, out, err = invoke(capsys, argv)
        assert (code, out, err) == (2, "", f"error: build: {refusal}\n")


def test_a_torus_structure_calculus_without_left_coaction_is_refused_by_the_build(capsys, monkeypatch):
    import hopfcalc.fodc

    laurent = hopfcalc.fodc.build_laurent_q_calculus

    def right_covariant_only(q, hopf):
        calc = laurent(q, hopf=hopf)
        calc.left_coaction = None
        return calc

    monkeypatch.setattr(hopfcalc.fodc, "build_laurent_q_calculus", right_covariant_only)
    refusal = "error: build: hypothesis failed: the structure calculus must be bicovariant\n"
    for argv in (
        ["verify", "torus", "--window", "2"],
        ["verify", "torus", "--window", "2", "--suite", "section"],
        ["cohomology", "torus", "--window", "2"],
    ):
        assert invoke(capsys, argv) == (2, "", refusal)


def _fresh(*args, stdout=subprocess.PIPE, **env) -> subprocess.CompletedProcess:
    """`python *args` run to its exit in a fresh interpreter with src/ on
    the path and the environment variables env, its stderr (and, by
    default, its stdout) captured as bytes.  Stdout is block-buffered, as
    in a plain shell, unless env sets PYTHONUNBUFFERED."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"} | env
    env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120)


def _loaded_after(argv, names):
    """Exit status of `cli.run(argv)` in a fresh interpreter, and which of
    the named modules are in its sys.modules afterwards."""
    code = (
        "import io, json, sys, contextlib\n"
        "import hopfcalc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    status = hopfcalc.cli.run({list(argv)!r})\n"
        f"print(json.dumps([status, sorted({set(names)!r} & set(sys.modules))]))\n"
    )
    done = _fresh("-c", code)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout))


# dataclasses would bring inspect, ast, dis and tokenize with it
_RECORD_MACHINERY = ("dataclasses", "inspect")
# the flag table parses the command line; argparse would bring gettext,
# and building its parser brings locale
_ARGPARSE = ("argparse", "gettext", "locale")


def test_a_run_loads_neither_fractions_nor_decimal():
    names = ("fractions", "decimal", "_decimal", "_pydecimal", "hopfcalc.qpb") + _RECORD_MACHINERY + _ARGPARSE
    assert _loaded_after(["verify", "group-c2"], names) == (0, [])


def test_listing_examples_loads_no_calculus_module():
    names = ("hopfcalc.fodc", "hopfcalc.crossed_calc", "hopfcalc.qpb") + _RECORD_MACHINERY + _ARGPARSE
    assert _loaded_after(["list-examples"], names) == (0, [])


def test_cohomology_loads_no_argparse():
    assert _loaded_after(["cohomology", "radford"], _ARGPARSE) == (0, [])


def test_help_loads_no_argparse():
    assert _loaded_after(["verify", "--help"], _ARGPARSE) == (0, [])


def test_a_run_that_loads_qpb_loads_no_dataclass_machinery():
    names = ("hopfcalc.qpb",) + _RECORD_MACHINERY
    assert _loaded_after(["verify", "radford", "--suite", "connection"], names) == (0, ["hopfcalc.qpb"])


def test_importing_the_cli_freezes_the_heap_and_a_run_does_not():
    # what the import leaves alive lives until exit, so shut-down need not
    # collect it; each run's instances stay collectable
    code = (
        "import contextlib, gc, io, hopfcalc.cli\n"
        "frozen = gc.get_freeze_count()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    hopfcalc.cli.run(['verify', 'group-c2'])\n"
        "print(frozen, gc.get_freeze_count() - frozen)\n"
    )
    frozen, grown = map(int, _fresh("-c", code).stdout.split())
    assert frozen > 0 and grown == 0


def test_importing_the_library_leaves_the_callers_heap_unfrozen():
    code = "import gc, hopfcalc, hopfcalc.linalg, hopfcalc.examples, hopfcalc.qpb\nprint(gc.get_freeze_count())\n"
    assert _fresh("-c", code).stdout == b"0\n"


@pytest.mark.parametrize(
    "golden, argv", [("verify-radford", "verify radford"), ("cohomology-radford", "cohomology radford --max-degree 3")]
)
def test_the_console_entry_point_writes_the_whole_document(golden, argv):
    # through main() and the interpreter's shut-down, with the frozen heap
    want = (pathlib.Path(__file__).resolve().parent / "golden" / f"{golden}.json").read_bytes()
    done = _fresh("-m", "hopfcalc.cli", *argv.split())
    assert (done.returncode, done.stdout) == (0, want)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}])
@pytest.mark.parametrize(
    "argv", [["list-examples"], ["verify", "group-c2"], ["cohomology", "radford"], ["verify", "radford", "--help"]]
)
def test_an_unwritable_stdout_names_the_output_stage(argv, unbuffered):
    # a buffered stdout still holds the document after the failed flush,
    # and interpreter shut-down would fail to flush it again, with status 120
    with open("/dev/full", "wb") as full:
        done = _fresh("-m", "hopfcalc.cli", *argv, stdout=full, **unbuffered)
    lines = done.stderr.decode().splitlines()
    assert done.returncode == 2
    assert [line for line in lines if not re.fullmatch(r"group-c2:[\w-]+: ok \(\d+ checks\)", line)] == [
        f"error: output: {os.strerror(errno.ENOSPC)}"
    ]


def test_a_refused_write_names_the_output_stage(capsys, monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr("sys.stdout", Closed())
    assert run(["list-examples"]) == 2
    assert capsys.readouterr().err == f"error: output: {os.strerror(errno.EPIPE)}\n"


def test_every_registered_example_has_a_parameter_validator():
    from hopfcalc.examples import EXAMPLES

    assert all(callable(spec.get("validate")) for spec in EXAMPLES.values())


def test_radford_validator_refuses_exactly_what_the_builder_refuses():
    from hopfcalc.examples import validate_radford
    from hopfcalc.hopf import build_radford
    from hopfcalc.scalars import root_of_unity

    for r in range(1, 4):
        for k in range(-2, 7):
            params = {"r": r, "n": 2, "q_power": k}
            try:
                build_radford(r, 2, root_of_unity(2 * r, k))
                built = True
            except ValueError:
                built = False
            try:
                validate_radford(params)
                accepted = True
            except ValueError as err:
                accepted = False
                assert str(err).startswith("--q-power: ")
            assert accepted == built, params


def test_smash_demo_validator_refuses_exactly_what_the_builder_refuses():
    from hopfcalc.examples import validate_smash_demo
    from hopfcalc.fodc import build_laurent_q_calculus
    from hopfcalc.scalars import root_of_unity

    for m in range(1, 7):
        try:
            build_laurent_q_calculus(root_of_unity(m))
            built = True
        except ValueError:
            built = False
        try:
            validate_smash_demo({"M": m, "window": 2})
            accepted = True
        except ValueError as err:
            accepted = False
            assert str(err).startswith("--M: ")
        assert accepted == built, m


def test_cohomology_builds_radford_with_the_given_q_power(capsys, monkeypatch):
    import hopfcalc.examples
    from hopfcalc.scalars import root_of_unity

    seen = []
    build = hopfcalc.examples.radford_calculus_instance

    def recording(r, n, q=None, ideal="zero"):
        seen.append(q)
        return build(r, n, q, ideal)

    monkeypatch.setattr(hopfcalc.examples, "radford_calculus_instance", recording)
    code, out, err = invoke(capsys, ["cohomology", "radford", "--q-power", "3"])
    assert code == 0
    assert seen == [root_of_unity(4, 3)]
    assert '"q_power":3' in out


@pytest.mark.parametrize(
    "argv, builder",
    [
        (["verify", "radford"], "radford_calculus_instance"),
        (["cohomology", "radford"], "radford_calculus_instance"),
        (["verify", "group-c2", "--ideal", "full"], "group_c2_instance"),
        (["cohomology", "group-c2"], "group_c2_instance"),
        (["verify", "torus", "--window", "2"], "torus_calculus_instance"),
        (["cohomology", "torus", "--window", "2"], "torus_calculus_instance"),
    ],
)
def test_each_run_builds_its_instance_once(capsys, monkeypatch, argv, builder):
    import hopfcalc.examples

    calls = []
    build = getattr(hopfcalc.examples, builder)

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(hopfcalc.examples, builder, counting)
    code, out, err = invoke(capsys, argv)
    assert code == 0
    assert len(calls) == 1


# -- fuzzing the command line ------------------------------------------------

C4_IDEAL = C4_HOPF.with_name("c4-ideal.txt")
# words a mutation writes over a word of a sample line: positions in and out
# of range, scalars in and out of Q(zeta_4), malformed terms and separators
_WORDS = ["0", "1", "2", "3", "4", "-1", "1/2", "1/0", "z4^1", "z8^1", "1*1", "1*4", "(1/2)*3", "-", "+", "->", ":", "x", ""]
# suites of several examples, and one that no example has; None runs them all
_SUITES = [None, "hopf-axioms", "comodule", "fodc", "graded", "higher-forms", "section", "ideal-calculus", "no-such-suite"]


@st.composite
def _mutated(draw, text):
    """text with up to three of its lines dropped, repeated, given a new word
    or given a new coefficient after its colon."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "repeat", "word", "coefficient"]))
        if kind == "drop":
            del lines[k]
        elif kind == "repeat":
            lines.insert(k, lines[k])
        elif kind == "coefficient" and ":" in lines[k]:
            lines[k] = lines[k].rpartition(":")[0] + ": " + draw(st.sampled_from(["0", "-1", "2", "1/2"]))
        else:
            words = lines[k].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(_WORDS))
            lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


@st.composite
def _flag_invocations(draw):
    """verify or cohomology argv over the flags of every example.  The
    window is always at most 1, which validation refuses for torus and
    smash-demo before anything is built, and radford has r <= 3."""
    command = draw(st.sampled_from(["verify", "cohomology"]))
    example = draw(st.sampled_from(sorted(EXAMPLES) + ["no-such-example"]))
    argv = [command, example, "--window", str(draw(st.integers(-1, 1)))]
    for flag, values in (
        ("--r", st.integers(0, 3)),
        ("--n", st.integers(0, 3)),
        ("--q-power", st.integers(-4, 8)),
        ("--M", st.integers(-2, 9)),
        ("--seed", st.integers(0, 3)),
        ("--ideal", st.sampled_from(["zero", "full"])),
    ):
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    if command == "cohomology" and draw(st.booleans()):
        argv += ["--max-degree", str(draw(st.integers(-1, 3)))]
    if command == "verify":
        suite = draw(st.sampled_from(_SUITES))
        if suite is not None:
            argv += ["--suite", suite]
    return argv


def _run_and_check(argv, files=None):
    """Run the CLI on argv with each of files written to a temporary path
    after its flag, and check the exit contract: 0, 1 or 2 with no
    exception; only a usage error leaves stdout empty, and only a failed
    check exits 1.  Returns stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        for flag, text in (files or {}).items():
            path = pathlib.Path(tmp) / flag.strip("-")
            path.write_text(text)
            argv = argv + [flag, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2)
    assert (out.getvalue() == "") == (code == 2)
    if code != 2:
        payload = json.loads(out.getvalue())
        failed = [c for r in payload.get("reports", []) for c in r["checks"] if c["status"] == "fail"]
        assert bool(failed) == (code == 1)
    return err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_flag_invocations())
def test_fuzzed_flags_exit_with_a_defined_status(argv):
    _run_and_check(argv)


# why a `.hopf` line is malformed: the shape of its directive, a header
# value below 1, a repeated entry or a coefficient that is not a scalar
_MALFORMED_LINE = re.compile(
    r"error: build: line \d+: malformed (\w+) line '.*': (expected '\1 [^']*'|\1 must be at least 1, got -?\d+"
    r"|repeated \1 entry [\d -]+|empty scalar|bad scalar term .*|order must be a positive integer)\n"
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    _mutated(C4_HOPF.read_text()),
    st.none() | _mutated(C4_IDEAL.read_text()),
    st.sampled_from([None, "hopf-axioms", "ideal-calculus", "fodc"]),
)
def test_fuzzed_hopf_files_exit_with_a_defined_status(hopf_text, ideal_text, suite):
    files = {"--file": hopf_text}
    if ideal_text is not None:
        files["--ideal-file"] = ideal_text
    err = _run_and_check(["verify", "user-hopf"] + (["--suite", suite] if suite else []), files)
    if "malformed" in err:
        assert _MALFORMED_LINE.fullmatch(err), err


# -- the flag table against the argparse parser it replaced -------------------

# flag -> values that parse, and values that do not (or parse as a flag):
# negative ints are values, "-x" reads as a flag, "-1.5", "-.5" and "-a b" as values
_INTS = (["0", "1", "2", "3", "8", "-1", "-12", " 3"], ["x", "1.5", "-1.5", "", "-x"])
_STRS = (["fodc", "graded", "no-such-suite", "c4.hopf", "-1", "-1.5", "-.5", "a b", "-a b", ""], ["-x"])
_ORACLE_FLAGS = {
    "--r": _INTS,
    "--n": _INTS,
    "--q-power": _INTS,
    "--M": _INTS,
    "--window": _INTS,
    "--seed": _INTS,
    "--max-degree": _INTS,
    "--ideal": (["zero", "full"], ["half", "", "-x"]),
    "--file": _STRS,
    "--ideal-file": _STRS,
    "--suite": _STRS,
    # a flag that no command declares
    "--frobenius": (["1"], ["1"]),
}


@st.composite
def _command_lines(draw):
    """argv of any command with any example or none, and flags before and
    after it in either form, repeated, with good and bad values; sometimes
    a flag with no value, or an extra positional.  No abbreviation, no
    `-h` and no `--`."""
    command = draw(st.sampled_from(["verify", "cohomology"] * 3 + ["list-examples", "frobnicate"]))
    own = [flag for flag in _ORACLE_FLAGS if flag not in ("--suite", "--max-degree", "--frobenius")]
    own += {"verify": ["--suite"], "cohomology": ["--max-degree"]}.get(command, [])
    groups = []
    for _ in range(draw(st.integers(0, 5))):
        # mostly flags of the command, sometimes one of another command or none
        flag = draw(st.sampled_from(sorted(_ORACLE_FLAGS) if draw(st.integers(0, 5)) == 0 else own))
        good, bad = _ORACLE_FLAGS[flag]
        value = draw(st.sampled_from(bad if draw(st.integers(0, 5)) == 0 else good))
        groups.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    for word, chance in ((draw(st.sampled_from(sorted(_ORACLE_FLAGS))), 6), ("extra", 8)):
        if draw(st.integers(0, chance - 1)) == 0:
            groups.insert(draw(st.integers(0, len(groups))), [word])
    example = draw(st.sampled_from(sorted(EXAMPLES) + ["no-such-example", None]))
    if example is not None:
        groups.insert(draw(st.integers(0, len(groups))), [example])
    return [command] + [word for group in groups for word in group]


def _oracle_parse(argv):
    """(command, example, params, suite) as the argparse parser gave them,
    or None where it refused."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = cli_oracle._parser().parse_args(argv)
    except SystemExit:
        return None
    if args.command == "list-examples":
        return "list-examples", None, {}, None
    return args.command, args.example, cli_oracle._params_of(args), getattr(args, "suite", None)


def _table_parse(argv):
    try:
        return _parse(argv)
    except ValueError:
        return None


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(_command_lines())
@hypothesis.example(["list-examples"])
@hypothesis.example([])
def test_the_flag_table_parses_as_argparse_did(argv):
    assert _table_parse(argv) == _oracle_parse(argv), argv


@pytest.mark.parametrize("word", ["-1", "-1.5", "-.5", "-1.", "-1e3", "-", "-a b", "-x", "--x", "--r", "=", ""])
def test_a_dash_word_after_a_flag_is_its_value_as_argparse_read_it(word):
    for argv in (["verify", "user-hopf", "--file", word], ["verify", "--suite", word, "radford"]):
        assert _table_parse(argv) == _oracle_parse(argv), argv
