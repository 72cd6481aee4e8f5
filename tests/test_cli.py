import json
import pathlib

import pytest

from hopfcalc.cli import run
from hopfcalc.hopf import build_cyclic_group_algebra, render_structure_constants

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
    # list-examples shows "(default N)"; the parser is what fills params
    import re

    from hopfcalc.cli import _parser

    code, out, err = invoke(capsys, ["list-examples"])
    assert code == 0
    shown = 0
    for example in json.loads(out)["examples"]:
        defaults = vars(_parser().parse_args(["cohomology", example["name"]]))
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
    assert code == 2
    assert "unknown suite" in err


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
    assert "no cohomology runner for example" in err


def test_user_hopf_roundtrip(tmp_path, capsys):
    text = render_structure_constants(build_cyclic_group_algebra(4))
    path = tmp_path / "c4.hopf"
    path.write_text(text)
    code, out, err = invoke(capsys, ["verify", "user-hopf", "--file", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_user_hopf_broken_antipode_fails(tmp_path, capsys):
    text = render_structure_constants(build_cyclic_group_algebra(4))
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
    text = render_structure_constants(build_cyclic_group_algebra(4))
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
    text = render_structure_constants(build_cyclic_group_algebra(4))
    text = text.replace("MUL 3 3 -> 2 : 1", "MUL 3 3 -> 2 : 1/0")
    assert "1/0" in text
    path = tmp_path / "zero-denominator.hopf"
    path.write_text(text)
    code, out, err = invoke(capsys, ["verify", "user-hopf", "--file", str(path)])
    assert code == 2
    assert "'1/0'" in err
    assert "Traceback" not in err


def test_negative_max_degree_is_a_usage_error(capsys, monkeypatch):
    import hopfcalc.cli

    def no_build(*args):
        raise AssertionError("an instance was built for an invalid --max-degree")

    monkeypatch.setattr(hopfcalc.cli, "cohomology_dims", no_build)
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
        (["verify", "torus", "--window", "0"], "--window"),
        (["verify", "torus", "--window", "-1"], "--window"),
        (["verify", "torus", "--M", "0"], "--M"),
        (["verify", "smash-demo", "--window", "0"], "--window"),
        (["verify", "smash-demo", "--M", "2"], "--M"),
        (["verify", "user-hopf"], "--file"),
        (["cohomology", "radford", "--n", "3"], "--n"),
        (["cohomology", "torus", "--window", "1"], "--window"),
    ],
)
def test_invalid_parameters_are_refused_before_any_instance(capsys, monkeypatch, argv, flag):
    import hopfcalc.cli
    from hopfcalc.examples import EXAMPLES

    def no_build(*args):
        raise AssertionError("an instance was built for invalid parameters")

    monkeypatch.setattr(hopfcalc.cli, "cohomology_dims", no_build)
    monkeypatch.setitem(EXAMPLES[argv[1]], "suites", no_build)
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: params: ")
    assert flag in err
    assert "suite" not in err and f"{argv[1]}:" not in err


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
