"""Command-line interface: commands, exit codes, report determinism."""

import gc
import json
import re
from pathlib import Path

import pytest

from deqcert import cli
from deqcert.cli import main, parse_field
from deqcert.category import HomSpace
from deqcert.errors import InputError, InternalConsistencyError
from deqcert.exactla import FieldSpec

# byte-exact --json reports committed with the benchmark; read, never written
ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_parse_field():
    assert parse_field("q").char == 0
    assert parse_field("fp:7").char == 7
    for text in ("gf:4", "fp:0"):
        with pytest.raises(InputError):
            parse_field(text)


def test_parse_scalar():
    # document scalars are read by FieldSpec.coerce
    q = FieldSpec(0)
    f5 = FieldSpec(5)
    assert q.coerce("2/3") == q.div(q.coerce(2), q.coerce(3))
    assert f5.coerce("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    for bad in ("x", "1/0", "0.5", "1e-3", "1/"):
        for field in (q, f5):
            with pytest.raises(InputError):
                field.coerce(bad)
    with pytest.raises(InputError):
        f5.coerce("2/5")


def test_check_admissible_pass_and_fail(capsys):
    code, rep = run_json(capsys, "check-admissible", "--set", "0,1,2,3")
    assert code == 0 and rep["admissible"] is True
    code, rep = run_json(capsys, "check-admissible", "--set", "0,1,2,4")
    assert code == 1 and rep["admissible"] is False
    i, j, k = rep["witness"]
    degrees = set(rep["set"])
    assert i + j + k in degrees and ((i + j in degrees) != (j + k in degrees))
    assert rep["witness"] == [1, 1, 2]  # the first failing triple in set order
    code, rep = run_json(capsys, "check-admissible", "--set", "1,2")
    assert code == 1 and rep["witness"] is None  # 0 is missing: no triple is named


def test_check_admissible_bad_input(capsys):
    assert main(["check-admissible", "--set", "0,x"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check-admissible", "--set", "0,1"],
        ["verify-thm2"],
        ["orbit-verify"],
        ["example", "nakayama"],
    ],
    ids=lambda argv: argv[0],
)
def test_built_in_instance_commands_reject_input_and_algebra(capsys, argv):
    # these commands read no scenario, so a document or preset is a usage error
    for option in ("--input", "--algebra"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, "/nonexistent.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_hom_command(capsys):
    code, rep = run_json(capsys, "hom", "--algebra", "a2", "--m", "P1", "--n", "S2")
    assert code == 0 and rep["dim"] == 0
    code, rep = run_json(capsys, "hom", "--algebra", "a2", "--m", "P2", "--n", "P1")
    assert code == 0 and rep["dim"] == 1


def test_ideal_command(capsys):
    code, rep = run_json(
        capsys, "ideal", "--algebra", "a2", "--m", "P1", "--x", "S2", "--y", "S2",
        "--kind", "R",
    )
    assert code == 0
    assert rep["hom_dim"] == 1 and rep["ideal"]["dim"] == 1


def test_approx_command(capsys):
    code, rep = run_json(
        capsys, "approx", "--algebra", "a2", "--m", "P1", "--x", "S1"
    )
    assert code == 0 and rep["summands"] >= 1 and rep["target_dim"] == 1


def test_end_ring_command_with_and_without_quotient(capsys):
    code, rep = run_json(capsys, "end-ring", "--algebra", "a2", "--obj", "P1")
    assert code == 0 and rep["dim"] == 1
    code, rep = run_json(
        capsys, "end-ring", "--algebra", "a2", "--obj", "P1", "--quotient", "I",
        "--m", "P1",
    )
    assert code == 0 and rep["dim"] == 1
    # --quotient without --m is an input error
    assert main(["end-ring", "--algebra", "a2", "--obj", "P1", "--quotient", "I"]) == 2


def test_unknown_preset_is_input_error(capsys):
    assert main(["hom", "--algebra", "zzz", "--m", "P1", "--n", "P1"]) == 2


def test_example_a2_triangle(capsys):
    code, rep = run_json(capsys, "example", "a2-triangle")
    assert code == 0 and rep["passed"] is True
    assert rep["ring_left_dim"] == 3 and rep["ring_right_dim"] == 3


def test_orbit_verify_command(capsys):
    code, rep = run_json(capsys, "orbit-verify")
    assert code == 0
    assert rep["hypotheses_ok"] and rep["I_equal"] and rep["J_equal"]
    assert rep["passed"] is True


def test_document_scenario_round_trip(tmp_path, capsys):
    doc = {
        "schema": 1,
        "field": "q",
        "quiver": {
            "vertices": ["1", "2"],
            "arrows": [["a1", "1", "2"], ["a2", "2", "1"]],
        },
        "relations": [["a1", "a2"], ["a2", "a1"]],
        "modules": {
            "X": {
                "dims": {"1": 1, "2": 2},
                "mats": {"a1": [[0], [0]], "a2": [[0, 1]]},
            },
            "Q": {
                "dims": {"1": 2, "2": 2},
                "mats": {"a1": [[1, 0], [0, 0]], "a2": [[0, 0], [0, 1]]},
            },
        },
        "complexes": {
            "seq": {
                "lo": 0,
                "objects": ["X", "Q", "S1"],
                "diffs": [
                    {"1": [[0], [1]], "2": [[1, 0], [0, 1]]},
                    {"1": [[1, 0]]},
                ],
            },
        },
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(
        capsys, "check-thm1", "--input", str(path), "--complex", "seq", "--m", "Q"
    )
    assert code == 0 and rep["ok"] is True
    code, rep = run_json(
        capsys, "verify-thm1", "--input", str(path), "--complex", "seq", "--m", "Q"
    )
    assert code == 0 and rep["passed"] is True


def test_document_functor_yoneda(tmp_path, capsys):
    doc = {
        "schema": 1,
        "field": "q",
        "quiver": {
            "vertices": ["1", "2"],
            "arrows": [["a1", "1", "2"], ["a2", "2", "1"]],
        },
        "relations": [["a1", "a2"], ["a2", "a1"]],
        "functors": {
            "rot": {
                "type": "quiver-twist",
                "vertices": {"1": "2", "2": "1"},
                "arrows": {"a1": "a2", "a2": "a1"},
                "order": 2,
            },
        },
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(
        capsys, "orbit-yoneda", "--input", str(path), "--x", "P1",
        "--functor", "rot", "--phi", "0,1",
    )
    assert code == 0
    # Hom(P1, P1) + Hom(P1, F P1) = Hom(P1, P1) + Hom(P1, P2)
    assert rep["dim"] == 2


def test_bad_document_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["hom", "--input", str(path), "--m", "P1", "--n", "P1"]) == 2
    path2 = tmp_path / "noquiver.json"
    path2.write_text(json.dumps({"schema": 1, "field": "q"}))
    assert main(["hom", "--input", str(path2), "--m", "P1", "--n", "P1"]) == 2


def _one_module_document(entry):
    return {
        "schema": 1,
        "field": "q",
        "quiver": {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]]},
        "modules": {"M": {"dims": {"1": 1, "2": 1}, "mats": {"a": [[entry]]}}},
    }


def _assert_input_error(capsys, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["hom", "--input", str(path), "--m", "P1", "--n", "P1"]) == 2
    assert "input error:" in capsys.readouterr().err


def _hom_on_document(tmp_path, doc, *flags):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main(["hom", "--input", str(path), "--m", "M", "--n", "M", *flags])


def test_document_without_field_takes_the_field_flag(tmp_path, capsys):
    # 1/2 has a value over Q but none in F_2
    doc = _one_module_document("1/2")
    del doc["field"]
    assert _hom_on_document(tmp_path, doc) == 0
    capsys.readouterr()
    assert _hom_on_document(tmp_path, doc, "--field", "fp:2") == 2
    assert "input error:" in capsys.readouterr().err


def test_field_flag_must_match_the_documents_field(tmp_path, capsys):
    doc = _one_module_document("1/2")
    doc["field"] = "fp:3"
    assert _hom_on_document(tmp_path, doc, "--field", "fp:3") == 0
    capsys.readouterr()
    assert _hom_on_document(tmp_path, doc, "--field", "q") == 2
    assert "input error: --field q differs" in capsys.readouterr().err


def test_non_numeric_matrix_entry_is_input_error(tmp_path, capsys):
    _assert_input_error(capsys, tmp_path, _one_module_document("x"))


@pytest.mark.parametrize("field", ["q", "fp:5"])
def test_boolean_matrix_entry_is_input_error(tmp_path, capsys, field):
    # bool is a subclass of int, so a JSON true must not read as the scalar 1
    doc = _one_module_document(True)
    doc["field"] = field
    _assert_input_error(capsys, tmp_path, doc)


def test_zero_denominator_entry_is_input_error(tmp_path, capsys):
    _assert_input_error(capsys, tmp_path, _one_module_document("1/0"))


def test_non_numeric_characteristic_is_input_error(capsys):
    assert main(["hom", "--algebra", "a2", "--m", "P1", "--n", "P1", "--field", "fp:abc"]) == 2
    assert "input error:" in capsys.readouterr().err


def test_characteristic_zero_is_input_error(tmp_path, capsys):
    # fp:0 names no prime field; it must not run silently over Q
    assert main(["hom", "--algebra", "a2", "--m", "P1", "--n", "P1", "--field", "fp:0"]) == 2
    assert "input error: unknown field spec 'fp:0'" in capsys.readouterr().err
    doc = _one_module_document(1)
    doc["field"] = "fp:0"
    assert _hom_on_document(tmp_path, doc) == 2
    assert "input error: unknown field spec 'fp:0'" in capsys.readouterr().err


def test_quiver_without_arrows_is_input_error(tmp_path, capsys):
    doc = _one_module_document(1)
    del doc["quiver"]["arrows"]
    _assert_input_error(capsys, tmp_path, doc)


def test_non_integer_dimension_is_input_error(tmp_path, capsys):
    doc = _one_module_document(1)
    doc["modules"]["M"]["dims"]["1"] = "x"
    _assert_input_error(capsys, tmp_path, doc)


def test_arrow_without_target_is_input_error(tmp_path, capsys):
    doc = _one_module_document(1)
    doc["quiver"]["arrows"] = [["a", "1"]]
    _assert_input_error(capsys, tmp_path, doc)


def _malformed(**sections):
    doc = _one_module_document(1)
    doc.update(sections)
    return doc


MALFORMED = {
    "document-array": [],
    "modules-array": _malformed(modules=["x"]),
    "module-number": _malformed(modules={"X": 5}),
    "module-dims-array": _malformed(modules={"X": {"dims": [1]}}),
    "module-dims-float": _malformed(modules={"X": {"dims": {"1": 1.9}}}),
    "module-dims-bool": _malformed(modules={"X": {"dims": {"2": True}}}),
    "module-matrix-number": _malformed(modules={"X": {"mats": {"a": 5}}}),
    "module-matrix-row-number": _malformed(modules={"X": {"mats": {"a": [5]}}}),
    "relations-number": _malformed(relations=5),
    "relation-number": _malformed(relations=[5]),
    "complexes-array": _malformed(complexes=["C"]),
    "complex-objects-string": _malformed(complexes={"C": {"objects": "P1"}}),
    "complex-object-array": _malformed(complexes={"C": {"objects": [["P1"]]}}),
    "complex-extra-differential": _malformed(
        complexes={"C": {"objects": ["P1"], "diffs": [{}]}}
    ),
    "complex-differential-number": _malformed(
        complexes={"C": {"objects": ["P1", "P2"], "diffs": [5]}}
    ),
    "complex-lo-float": _malformed(complexes={"C": {"objects": ["P1"], "lo": 2.7}}),
    "functor-number": _malformed(functors={"F": 5}),
    "functor-vertices-array": _malformed(
        functors={"F": {"type": "quiver-twist", "vertices": [], "arrows": {}, "order": 1}}
    ),
}


@pytest.mark.parametrize("doc", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_document_is_input_error(tmp_path, capsys, doc):
    # a section or entry of the wrong JSON shape is bad input (exit 2),
    # not a failed check (exit 1) with a traceback
    _assert_input_error(capsys, tmp_path, doc)


def test_machine_report_is_deterministic(capsys):
    _, first = run(capsys, "verify-thm2", "--json")
    _, second = run(capsys, "verify-thm2", "--json")
    assert first == second
    _, first = run(capsys, "check-admissible", "--set", "0,1,2", "--json")
    _, second = run(capsys, "check-admissible", "--set", "0,1,2", "--json")
    assert first == second


def test_human_report_prints_elapsed(capsys):
    code, out = run(capsys, "check-admissible", "--set", "0,1")
    assert code == 0 and "elapsed:" in out


def test_main_frees_its_categories_without_automatic_collection(capsys):
    # category -> Hom cache -> HomSpace -> basis Mor -> category is a cycle,
    # so without a collection in main the Hom spaces outlive the command
    def live_hom_spaces():
        return sum(isinstance(o, HomSpace) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live_hom_spaces()
        code, _ = run(capsys, "verify-thm2", "--json")
        after = live_hom_spaces()
    finally:
        gc.enable()
    assert code == 0
    assert after == before


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def broken(args):
        raise InternalConsistencyError("invariant broken")

    monkeypatch.setattr(cli, "cmd_check_admissible", broken)
    assert main(["check-admissible", "--set", "0,1"]) == 3
    assert "internal error: invariant broken" in capsys.readouterr().err


ORACLE_RUNS = [
    (command, field)
    for command in ("verify-thm2", "orbit-verify")
    for field in ("q", "fp:101", "fp:32771", "fp:65521")
] + [("example nakayama", "fp:101")]


def oracle_name(command, field):
    return "%s.%s" % (command.replace(" ", "-"), field.replace(":", ""))


@pytest.mark.parametrize(
    "command, field", ORACLE_RUNS, ids=[oracle_name(c, f) for c, f in ORACLE_RUNS]
)
def test_json_report_matches_oracle(capsys, command, field):
    code, out = run(capsys, *command.split(), "--field", field, "--json")
    assert code == 0
    assert out == (ORACLE / (oracle_name(command, field) + ".json")).read_text()


def test_default_nu_pipeline_report_is_pinned(capsys):
    # the default-step pipeline has no benchmark oracle; its report is
    # pinned here until its stopping rule is changed on purpose
    argv = ["nu-pipeline", "--algebra", "nakayama4", "--p", "P", "--y", "Y", "--json"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (DATA / "nu-pipeline.nakayama4.q.json").read_text()


@pytest.mark.parametrize("flags", [("--steps", "-1"), ("--max-steps", "-2")])
def test_negative_nu_pipeline_step_counts_are_input_errors(capsys, flags):
    argv = ["nu-pipeline", "--algebra", "nakayama4", "--p", "P", "--y", "Y"]
    assert main([*argv, *flags]) == 2
    assert "input error: steps and max_steps must not be negative" in capsys.readouterr().err
    assert main([*argv, flags[0], "0"]) == 0  # no steps is a count the pipeline runs


@pytest.mark.parametrize(
    "argv",
    [("example", "nakayama"), ("nu-pipeline", "--algebra", "nakayama4", "--p", "P", "--y", "Y")],
    ids=["example-nakayama", "nu-pipeline"],
)
def test_seed_is_only_echoed(capsys, argv):
    # no computation draws at random: the reports differ in the echoed seed alone
    outs = {}
    for seed in (0, 1, 6, 17):
        code, out = run(capsys, *argv, "--seed", str(seed), "--json")
        assert code == 0 and json.loads(out)["seed"] == seed
        outs[seed], count = re.subn(r'"seed": \d+', '"seed": 0', out)
        assert count == 1
    assert len(set(outs.values())) == 1
