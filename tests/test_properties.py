"""Property tests: JSON round trips, canonical forms, context graphs, and CLI
error envelopes.

Examples are derandomized, so every run draws the same ones.
"""

import contextlib
import copy
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from cstree import (
    Context,
    VariableSystem,
    all_contexts,
    context_dag,
    context_subtree,
    random_cstree,
    spec_from_json,
    spec_to_json,
    validate,
)
from cstree.cli import main

from conftest import FIXTURES

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def trees(draw):
    cards = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    names = draw(st.sets(st.integers(1, 9), min_size=len(cards), max_size=len(cards)))
    system = VariableSystem(tuple(cards), tuple(sorted(names)))
    return random_cstree(system, draw(st.randoms(use_true_random=False)))


@PROPERTY
@given(trees())
def test_json_round_trip_is_a_fixed_point(tree):
    data = spec_to_json(tree)
    again = spec_from_json(json.loads(json.dumps(data)))
    assert again == tree
    assert spec_to_json(again) == data


@PROPERTY
@given(trees())
def test_validate_is_idempotent(tree):
    once = validate(tree)
    assert validate(once) == once == tree


@PROPERTY
@given(trees())
def test_empty_context_subtree_is_the_tree(tree):
    assert context_subtree(tree, Context()) == tree


@PROPERTY
@given(trees())
def test_context_dag_is_the_empty_context_graph_of_its_subtree(tree):
    for ctx in all_contexts(tree.system)[1:]:
        got = context_dag(tree, ctx)
        assert got.context == ctx
        assert got.dag == context_dag(context_subtree(tree, ctx)).dag, ctx


FIXTURE_BYTES = [path.read_bytes() for path in sorted(FIXTURES.glob("*.json"))]
JSONISH = st.text(alphabet='0123456789-[]{}":, .aelnrstu', max_size=8)


@st.composite
def fuzzed_fixtures(draw):
    """A fixture with a few spans replaced by short JSON-like text."""
    data = draw(st.sampled_from(FIXTURE_BYTES))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 6)))
        data = data[:i] + draw(JSONISH).encode() + data[j:]
    return data


@settings(PROPERTY, max_examples=150)
@given(fuzzed_fixtures())
def test_fuzzed_fixtures_fail_with_one_json_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzzed.json"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error"}


FIXTURE_DATA = [json.loads(data) for data in FIXTURE_BYTES]
HOSTILE = (None, True, -1, 0, 3, 1.5, "x", "", [], {})
DELETE = object()
TREE_COMMANDS = (
    ("validate",),
    ("contexts", "--check-oracle"),
    ("balance", "--witness"),
    ("basis", "--method", "sat"),
    ("basis", "--method", "quad-lift"),
    ("basis", "--method", "perfect"),
    ("verify", "--symbolic", "--fiber-bound", "1"),
    ("subtree", "--context", "1=0"),
    ("classify",),
)


def _node_paths(node, path=()):
    """The key paths of every node below the root of a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


@st.composite
def mutated_fixtures(draw):
    """A shipped fixture with one JSON node deleted or replaced by a
    hostile value, and whether it holds DAGs."""
    data = copy.deepcopy(draw(st.sampled_from(FIXTURE_DATA)))
    dags = "dags" in data
    *path, last = draw(st.sampled_from(list(_node_paths(data))))
    parent = data
    for key in path:
        parent = parent[key]
    value = draw(st.sampled_from(HOSTILE + (DELETE,)))
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return data, dags


@settings(PROPERTY, max_examples=600)
@given(mutated_fixtures())
def test_mutated_fixtures_fail_with_one_json_error_in_every_subcommand(drawn):
    data, dags = drawn
    commands = TREE_COMMANDS + ((("moralize",),) if dags else ())
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mutated.json"
        path.write_text(json.dumps(data))
        for command in commands:
            argv = [command[0], str(path), *command[1:]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert out.getvalue() == "", argv
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, argv
                assert set(json.loads(lines[0])) == {"error"}, argv
