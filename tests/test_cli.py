"""End-to-end CLI behavior: reports, exit codes, and error envelopes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import cstree
from cstree import cli
from cstree.bases import canonical_binomial
from cstree.cli import main

from conftest import fixture_path

FIG1 = str(fixture_path("fig1.json"))
FIG3 = str(fixture_path("fig3.json"))
FIG4 = str(fixture_path("fig4.json"))
FIG5 = str(fixture_path("fig5_dags.json"))
CHAIN = str(fixture_path("chain123.json"))


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(capsys, *argv):
    code, out, _ = _run(capsys, *argv)
    return code, json.loads(out)


def test_validate_report(capsys):
    code, report = _report(capsys, "validate", FIG1)
    assert code == 0
    assert report["tool"] == "cstree"
    assert report["valid"] and report["p"] == 3
    assert report["cards"] == [2, 2, 2]
    with open(FIG1, "rb") as fh:
        assert report["fixture"]["sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert "3 _||_ 1 | 2 [X2=0]" in report["statements"]


def test_validate_rejects_bad_fixture(capsys):
    code, out, err = _run(capsys, "validate", str(fixture_path("fig2_invalid.json")))
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "NotACylinder"
    assert "members" in error["message"] or "cylinder" in error["message"]


def _validate_error(capsys, tmp_path, fixture):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fixture))
    code, out, err = _run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    return json.loads(err)["error"]


def test_level_entry_without_level_key_is_rejected(capsys, tmp_path):
    fixture = {"p": 2, "cards": [2, 2], "levels": [{"stages": [{"context": {}}]}]}
    error = _validate_error(capsys, tmp_path, fixture)
    assert error["type"] == "BadIndex"
    assert "'level'" in error["message"]


def test_cards_given_as_a_string_are_rejected(capsys, tmp_path):
    for fixture in ({"p": 2, "cards": "22"}, [2, 2]):
        error = _validate_error(capsys, tmp_path, fixture)
        assert error["type"] == "BadCardinality"
        assert "'cards'" in error["message"]


def _fixture_with(**changes):
    stage = changes.pop("stage", {"context": {"2": 0}})
    level = {"level": 3, "stages": [stage]}
    level.update(changes.pop("level", {}))
    fixture = {"p": 3, "cards": [2, 2, 2], "levels": [level]}
    fixture.update(changes)
    return fixture


TYPED_ERRORS = {
    name[: -len("Error")]
    for name, value in vars(cstree).items()
    if isinstance(value, type) and issubclass(value, cstree.CStreeError)
}


@pytest.mark.parametrize(
    "fixture,expected",
    [
        (_fixture_with(stage={"context": {"2": "x"}}), "BadIndex"),
        (_fixture_with(stage={"context": [1, 0]}), "BadIndex"),
        (_fixture_with(stage={"members": [1]}), "BadCardinality"),
        (_fixture_with(levels=[3]), "BadIndex"),
        (_fixture_with(levels={"level": 3}), "BadIndex"),
        (_fixture_with(level={"stages": [5]}), "BadIndex"),
        (_fixture_with(cards=[2, None, 2]), "BadCardinality"),
        (_fixture_with(cards=[2, 2.5, 2]), "BadCardinality"),
        ({"p": 2, "cards": [2, 2], "variables": "12"}, "BadIndex"),
        (_fixture_with(stage={"members": ["01", "01"]}), "Overlap"),
        (_fixture_with(stage={"members": ["0"]}), "BadCardinality"),
        (_fixture_with(stage={"members": ["02"]}), "BadIndex"),
        (_fixture_with(stage={"members": ["0a"]}), "BadCardinality"),
        (_fixture_with(stage={"members": []}), "BadIndex"),
        ({"p": 2, "cards": [2, 2], "variables": [1]}, "BadCardinality"),
        (_fixture_with(stage={"context": {"a": 0}}), "BadIndex"),
        (_fixture_with(stage={}), "BadIndex"),
    ],
    ids=[
        "context-value-string",
        "context-list",
        "member-int",
        "level-entry-int",
        "levels-object",
        "stage-entry-int",
        "card-null",
        "card-float",
        "variables-string",
        "member-repeated",
        "member-short",
        "member-digit-out-of-range",
        "member-not-decimal",
        "members-empty",
        "variables-short",
        "context-key-not-decimal",
        "stage-entry-empty",
    ],
)
def test_malformed_fixture_shapes_are_typed_errors(capsys, tmp_path, fixture, expected):
    # An uncaught exception (a traceback) fails the test inside main().
    error = _validate_error(capsys, tmp_path, fixture)
    assert error["type"] == expected
    assert error["type"] in TYPED_ERRORS


@pytest.mark.parametrize(
    "argv,fixture,expected",
    [
        (["moralize", FIG1], None, "BadGraph"),
        (["moralize", "--index", "7", FIG5], None, "BadIndex"),
        (["moralize", "--index", "-1", FIG5], None, "BadIndex"),
        (["moralize"], {"dags": 5}, "BadGraph"),
        (["moralize"], [1, 2], "BadGraph"),
        (["moralize"], {"vertices": "12"}, "BadGraph"),
        (["moralize"], {"vertices": [1, 2.5]}, "BadGraph"),
        (["moralize"], {"vertices": [1, 2], "edges": [[1]]}, "BadGraph"),
        (["moralize"], {"vertices": [1, 2], "context": {"3": "x"}}, "BadIndex"),
        (["enumerate", "--cards", "2,x"], None, "BadCardinality"),
        (["enumerate", "--cards", "2,2", "--budget", "-1"], None, "Precondition"),
        (["subtree", FIG1, "--context", "a=1"], None, "BadIndex"),
        (["subtree", FIG1, "--context", "2=0,2=1"], None, "BadIndex"),
    ],
    ids=[
        "tree-fixture-as-dag",
        "index-past-end",
        "index-negative",
        "dags-int",
        "dag-list",
        "vertices-string",
        "vertex-float",
        "edge-single",
        "dag-context-value-string",
        "cards-letter",
        "budget-negative",
        "context-variable-letter",
        "context-variable-repeated",
    ],
)
def test_malformed_dags_and_arguments_are_typed_errors(
    capsys, tmp_path, argv, fixture, expected
):
    if fixture is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(fixture))
        argv = argv + [str(path)]
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["type"] == expected


FIXTURES = sorted(path.name for path in fixture_path("fig1.json").parent.glob("*.json"))

COMMANDS = {
    "validate": [],
    "contexts": ["--check-oracle"],
    "balance": ["--witness"],
    "basis": [],
    "verify": ["--symbolic", "--random", "--fiber-bound", "1"],
    "moralize": [],
    "subtree": ["--context", "1=0"],
    "classify": [],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", FIXTURES)
def test_every_command_on_every_fixture_ends_cleanly(capsys, command, name):
    # An uncaught exception (a traceback) fails the test inside main().
    argv = [command, str(fixture_path(name))] + COMMANDS[command]
    code, out, err = _run(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert set(json.loads(err)) == {"error"}
    else:
        json.loads(out)


def test_members_given_with_a_context_must_be_its_cylinder(capsys, tmp_path):
    # X1=0 is the cylinder {00, 01}; {00, 11} is not.
    fixture = _fixture_with(stage={"context": {"1": 0}, "members": ["00", "11"]})
    error = _validate_error(capsys, tmp_path, fixture)
    assert error["type"] == "NotACylinder"
    path = tmp_path / "agreeing.json"
    for members in (["00", "01"], ["01", "00"]):
        stage = {"context": {"1": 0}, "members": members}
        path.write_text(json.dumps(_fixture_with(stage=stage)))
        code, report = _report(capsys, "validate", str(path))
        assert code == 0
        assert "3 _||_ 2 | 1 [X1=0]" in report["statements"]


def test_the_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_a_usage_error_leaves_the_parser_usable(capsys):
    argv = ["verify", "--method", "sat", "--fiber-bound", "1", CHAIN]
    before = _run(capsys, *argv)
    for bad in (
        ["verify", "--method", "nope", CHAIN],
        ["no-such-command"],
        [],
        ["validate"],
        ["enumerate", "--cards", "-2,2"],
        ["verify", CHAIN, "--trials", "x"],
    ):
        code, out, err = _run(capsys, *bad)
        assert (code, out) == (1, ""), bad
        assert json.loads(err)["error"]["type"] == "Usage", bad
    assert _run(capsys, *argv) == before
    assert before[0] == 0


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cstree")


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = _run(capsys, "validate", "no-such-file.json")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "FileNotFound"


def test_contexts_report_and_dot_files(capsys, tmp_path):
    out_dir = tmp_path / "dots"
    code, report = _report(capsys, "contexts", FIG1, "--dot", str(out_dir))
    assert code == 0
    got = {
        entry["context"]: (entry["edges"], entry["perfect"])
        for entry in report["contexts"]
    }
    assert got == {"": ([[1, 3], [2, 3]], False), "X2=0": ([], True)}
    names = sorted(os.path.basename(p) for p in report["dot_files"])
    assert names == ["g_X2=0.dot", "g_empty.dot"]
    text = (out_dir / "g_empty.dot").read_text()
    assert text.startswith("digraph G {")


def test_contexts_oracle_clean_on_fig1(capsys):
    code, report = _report(capsys, "contexts", FIG1, "--check-oracle")
    assert code == 0
    assert report["oracle_disagreements"] == []


# Staging 313 of the p=4 binary census: the graph of X3 = 0 claims two
# saturated statements that the model refutes.
CENSUS_313 = {
    "p": 4,
    "cards": [2, 2, 2, 2],
    "levels": [
        {"level": 2, "stages": [{"context": {}}]},
        {"level": 3, "stages": [{"context": {"1": 0}}]},
        {"level": 4, "stages": [{"context": {"1": 0}}, {"context": {"1": 1, "3": 0}}]},
    ],
}


def test_contexts_oracle_disagreement_exits_2(capsys, tmp_path):
    path = tmp_path / "census_313.json"
    path.write_text(json.dumps(CENSUS_313))
    code, report = _report(capsys, "contexts", str(path), "--check-oracle")
    assert code == 2
    assert report["oracle_disagreements"] == [
        {"context": "X3=0", "statement": "1,4 _||_ 2 | 3 [X3=0]"},
        {"context": "X3=0", "statement": "1 _||_ 2 | 3,4 [X3=0]"},
    ]


def test_verify_symbolic_reports_the_first_nonvanishing_binomial(capsys, tmp_path):
    # The graph of X3 = 0 claims false statements, so the saturated and the
    # perfected bases each hold binomials off the model.
    path = tmp_path / "census_313.json"
    path.write_text(json.dumps(CENSUS_313))
    for method in ("sat", "perfect"):
        code, report = _report(
            capsys, "verify", str(path), "--symbolic", "--method", method
        )
        assert code == 2
        assert report["ok"] is False
        entry = report["methods"][method]
        assert entry["count"] == 17
        assert entry["symbolic_vanishing"] is False
        assert entry["symbolic_failure"] == "p0000*p1100 - p0100*p1000"


def test_balance_exit_codes_and_witness(capsys):
    code, report = _report(capsys, "balance", FIG1, "--witness")
    assert code == 2
    assert report["balanced"] is False
    assert report["witness"] == {
        "level": 1,
        "stage": "",
        "vertices": ["0", "1"],
        "outcomes": [0, 1],
    }
    code, report = _report(capsys, "balance", FIG3, "--audit-all-pairs")
    assert code == 0 and report["balanced"] is True


def test_basis_text_format(capsys):
    code, out, _ = _run(capsys, "basis", CHAIN, "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "p000*p101 - p001*p100",
        "p010*p111 - p011*p110",
    ]


def test_basis_json_counts(capsys):
    code, report = _report(capsys, "basis", FIG4, "--method", "quad-lift")
    assert code == 0
    assert report["count"] == 24
    assert report["count_by_source"] == {"lift": 16, "quad": 8}
    assert report["method"] == "quad-lift"
    pairs = {(tuple(b["plus"]), tuple(b["minus"])) for b in report["binomials"]}
    assert (("00000", "00011"), ("00001", "00010")) in pairs
    assert (("00000", "00110"), ("00010", "00100")) in pairs
    assert len(pairs) == 24


def test_basis_warns_on_unbalanced(capsys):
    code, report = _report(capsys, "basis", FIG1)
    assert code == 0
    assert report["warnings"]


def test_quad_lift_refuses_unbalanced(capsys):
    code, _, err = _run(capsys, "basis", FIG1, "--method", "quad-lift")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "Unbalanced"


def test_verify_all_methods_on_chain(capsys):
    code, report = _report(capsys, "verify", CHAIN, "--random", "--symbolic")
    assert code == 0 and report["ok"]
    for name in ("sat", "quad-lift", "perfect"):
        entry = report["methods"][name]
        assert entry["random_vanishing"] and entry["symbolic_vanishing"]
        assert entry["fibers"]["connected"]
        assert entry["fibers"]["tables"] == 45
        assert entry["fibers"]["count"] == 43


def test_verify_fiber_counts_on_fig4(capsys):
    code, report = _report(capsys, "verify", FIG4, "--method", "quad-lift")
    assert code == 0
    fibers = report["methods"]["quad-lift"]["fibers"]
    assert fibers == {
        "connected": True,
        "bound": 2,
        "tables": 561,
        "count": 537,
    }


def test_fiber_bound_cap(capsys, monkeypatch):
    monkeypatch.setenv("CSTREE_MAX_FIBER", "1")
    code, report = _report(
        capsys, "verify", CHAIN, "--method", "sat", "--fiber-bound", "2"
    )
    assert code == 0
    fibers = report["methods"]["sat"]["fibers"]
    assert fibers["bound"] == 1
    assert fibers["fiber_bound_capped"] is True


@pytest.mark.parametrize(
    "argv,cap",
    [
        (["--fiber-bound", "-1"], None),
        ([], "x"),
        ([], "-2"),
        (["--trials", "0"], None),
        (["--trials", "-1"], None),
    ],
    ids=[
        "fiber-bound-negative",
        "cap-letter",
        "cap-negative",
        "trials-zero",
        "trials-negative",
    ],
)
def test_verify_bounds_are_typed_errors(capsys, monkeypatch, argv, cap):
    if cap is None:
        monkeypatch.delenv("CSTREE_MAX_FIBER", raising=False)
    else:
        monkeypatch.setenv("CSTREE_MAX_FIBER", cap)
    code, out, err = _run(capsys, "verify", CHAIN, "--method", "sat", *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["type"] == "Precondition"


@pytest.mark.parametrize(
    "argv,cap,kind",
    [
        (["--fiber-bound", "40"], None, "BoundTooLarge"),
        (["--fiber-bound", "-1"], None, "Precondition"),
        ([], "-2", "Precondition"),
    ],
    ids=["fiber-bound-40", "fiber-bound-negative", "cap-negative"],
)
def test_verify_checks_the_bound_before_any_basis(capsys, monkeypatch, argv, cap, kind):
    def refuse(tree):
        raise AssertionError("a basis was built before the bound was checked")

    monkeypatch.setattr(cli, "_METHODS", dict.fromkeys(cli._METHODS, refuse))
    if cap is None:
        monkeypatch.delenv("CSTREE_MAX_FIBER", raising=False)
    else:
        monkeypatch.setenv("CSTREE_MAX_FIBER", cap)
    fixture = str(fixture_path("fig5_tree.json"))
    code, out, err = _run(capsys, "verify", fixture, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["type"] == kind



def test_a_negative_cap_is_named_in_its_error(capsys, monkeypatch):
    monkeypatch.setenv("CSTREE_MAX_FIBER", "-1")
    code, out, err = _run(capsys, "verify", CHAIN, "--fiber-bound", "3")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "Precondition"
    assert error["message"] == "CSTREE_MAX_FIBER must be non-negative, got -1"

# sha256 of verify's stdout with the version replaced by VERSION, run from
# the repository root on fixtures/<name>.json, recorded when random
# vanishing still went through SparsePoly; one stdout for every seed.
RANDOM_VERIFY = {
    "fig3": "e09ebcec012265db7ae74ff77d530734abb9acd62f78a8cfec29864d82d1a71e",
    "fig4": "cc1a511ec4ad507365859db25de70251f0000ec8dda6ed1b5cea8d1b0a3630c4",
    "fig4_textreading": "59191dbdedb9756d1003f4a9d228039fadcfc06c611604b7f0ec3c8dcf5ceaff",
    "fig5_tree": "98de47f45c67f95987d53158949da1cdd66aaf762100db9955ff9fbbfd892892",
    "chain123": "15a96399d95d0eca299a106df0d4905e39e95b8ed3310041a04e7d5e6e217659",
}
# The sat basis of chain123 plus p000*p111 - p001*p110, which does not
# vanish, under --random --symbolic.
RANDOM_FAILURE = "311eba5c9ec8144ae1893e75c5029842392a48b4ff5e0ce68a84b5e36d4953d9"


def _stdout_sha(capsys, *argv):
    code, out, _ = _run(capsys, *argv)
    out = out.replace(cstree.__version__, "VERSION")
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("seed", range(4))
def test_random_vanishing_reports_are_unchanged(capsys, monkeypatch, seed):
    monkeypatch.chdir(fixture_path("fig1.json").parent.parent)
    for name, expected in RANDOM_VERIFY.items():
        argv = ["--seed", str(seed), "verify", "--trials", "3", f"fixtures/{name}.json"]
        assert _stdout_sha(capsys, *argv) == (0, expected), name
    sat = cli._METHODS["sat"]
    off_kernel = canonical_binomial(((0, 0, 0), (1, 1, 1)), ((0, 0, 1), (1, 1, 0)))
    monkeypatch.setitem(cli._METHODS, "sat", lambda tree: sat(tree) + (off_kernel,))
    argv = ["--seed", str(seed), "verify", "--method", "sat", "--random", "--symbolic"]
    assert _stdout_sha(capsys, *argv, "fixtures/chain123.json") == (2, RANDOM_FAILURE)


def test_verify_reports_a_disconnected_fiber(capsys, tmp_path):
    # The fourth binary staging of four variables in enumeration order: its
    # saturated basis leaves a fiber of two tables apart at bound 2.
    fixture = {
        "cards": [2, 2, 2, 2],
        "levels": [
            {"level": 2, "stages": [{"context": {}}]},
            {"level": 3, "stages": [{"context": {}}]},
            {
                "level": 4,
                "stages": [{"context": {"1": 0}}, {"context": {"1": 1, "2": 0}}],
            },
        ],
    }
    path = tmp_path / "staging.json"
    path.write_text(json.dumps(fixture))
    argv = ["verify", "--method", "sat", "--fiber-bound", "2", str(path)]
    code, report = _report(capsys, *argv)
    assert code == 2 and report["ok"] is False
    fibers = report["methods"]["sat"]["fibers"]
    assert fibers["connected"] is False
    assert fibers["witness_tables"] == [
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    ]


def test_moralize_reads_a_single_dag(capsys, tmp_path):
    path = tmp_path / "dag.json"
    dag = {"vertices": [1, 2, 3], "edges": [[1, 3], [2, 3]]}
    for extra in ({}, {"context": {"4": 0}}):
        path.write_text(json.dumps({**dag, **extra}))
        code, report = _report(capsys, "moralize", str(path))
        assert code == 0
        assert report["added"] == [[1, 2]]
        assert report["edges"] == [[1, 2], [1, 3], [2, 3]]


def test_moralize_single_pass_and_iterate(capsys):
    code, report = _report(capsys, "moralize", FIG5)
    assert code == 0
    assert report["added"] == [[3, 4]]
    assert report["perfect"] is False
    code, report = _report(capsys, "moralize", FIG5, "--iterate")
    assert code == 0
    assert report["passes"] == [[[3, 4]], [[2, 3]]]
    assert report["perfect"] is True


def test_subtree_pipes_into_validate(capsys, tmp_path):
    code, out, _ = _run(capsys, "subtree", FIG3, "--context", "1=1")
    assert code == 0
    data = json.loads(out)
    assert data["variables"] == [2, 3, 4]
    path = tmp_path / "sub.json"
    path.write_text(out)
    code, report = _report(capsys, "validate", str(path))
    assert code == 0 and report["valid"]


# sha256 of the stdout of ``enumerate --cards C --census`` and ``--classify``.
ENUMERATE_REPORTS = {
    ("2,2,2", "--census"): "b7f9d63b31ace3dc2bc69a5f468875f172aa060103fa8391d321d622e56a03b9",
    ("2,2,2", "--classify"): "507ea911bd72c97f7752c901fb446b58d77b329bf0ad8afe82905a3d2dd1232d",
    ("2,3,2", "--census"): "4b393925c82c58022f65aede1479bfbe6cfa170346858df92e7ba4448a5c886c",
    ("2,3,2", "--classify"): "911340a1f9b6b1a1c2d0b4b1826a875119928f51c30c8cfef5f29d7e439533bb",
}


def test_enumerate_counts_and_census(capsys):
    code, report = _report(capsys, "enumerate", "--cards", "2,2,2")
    assert code == 0 and report["total"] == 16
    code, report = _report(capsys, "enumerate", "--cards", "2,2,2", "--census")
    assert code == 0
    assert report["balanced"] == report["perfect_contexts"] == 11
    assert report["violations"] == []
    code, report = _report(capsys, "enumerate", "--cards", "2,2,2", "--classify")
    assert code == 0
    assert report["histogram"]["dag_tree"] == 8
    for (cards, flag), expected in ENUMERATE_REPORTS.items():
        code, out, _ = _run(capsys, "enumerate", "--cards", cards, flag)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, (cards, flag)


def test_enumerate_census_needs_three_variables(capsys):
    code, _, err = _run(capsys, "enumerate", "--cards", "2,2", "--census")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "NotP3"


HUGE = 100000000000000000000000


@pytest.mark.parametrize("cards", [[2, HUGE], [HUGE, 2]], ids=["wide-last", "wide-first"])
def test_oversized_tree_is_refused_before_it_is_compiled(capsys, tmp_path, cards):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"cards": cards}))
    code, out, err = _run(capsys, "contexts", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "BudgetExceeded"
    # Reading the tree without compiling it still works.
    code, report = _report(capsys, "validate", str(path))
    assert code == 0 and report["valid"]
    code, report = _report(capsys, "subtree", str(path), "--context", "1=0")
    assert code == 0 and report["p"] == 1


def test_enumerate_refuses_a_layer_wider_than_the_budget(capsys):
    code, out, err = _run(capsys, "enumerate", "--cards", f"2,{HUGE},2")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "BudgetExceeded"


def test_classify_examples(capsys):
    code, report = _report(capsys, "classify", FIG1)
    assert code == 0
    assert report["kind"] == "family_3"
    assert report["variable"] == 2 and report["outcomes"] == [0]
    code, report = _report(capsys, "classify", CHAIN)
    assert code == 0
    assert report["kind"] == "dag_tree"
    assert report["dag"]["edges"] == [[1, 2], [2, 3]]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cstree", "validate", FIG1],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True
