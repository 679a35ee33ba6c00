"""Tree construction, validation, subtrees, and the fixture format."""

import json
import random

import pytest

from cstree import (
    BadCardinalityError,
    BadIndexError,
    Context,
    CStreeSpec,
    NotACylinderError,
    OverlapError,
    Stage,
    VariableSystem,
    context_subtree,
    level_stage_map,
    random_cstree,
    spec_from_json,
    spec_to_json,
    stage_members,
    stage_statement,
    tree_of_dag,
    tree_statements,
    validate,
)
from cstree.graphs import Dag

from conftest import fixture_path, load


def test_context_normalizes_and_orders():
    ctx = Context.of({3: 1, 1: 0})
    assert ctx.items == ((1, 0), (3, 1))
    assert str(ctx) == "X1=0,X3=1"
    assert Context.of([(3, 1), (1, 0)]) == ctx
    assert not Context()
    assert Context() < ctx


def test_context_merge_and_drop():
    ctx = Context.of({1: 0, 2: 1})
    assert ctx.merge({3: 0}).keys == (1, 2, 3)
    assert ctx.drop([1]).items == ((2, 1),)
    assert ctx.restrict([2, 5]).items == ((2, 1),)
    with pytest.raises(BadIndexError):
        ctx.merge({1: 1})


def test_context_agreement():
    a = Context.of({1: 0, 2: 1})
    assert a.agrees_with(Context.of({2: 1, 3: 0}))
    assert not a.agrees_with(Context.of({2: 0}))
    assert a.agrees_with(Context())


def test_system_rejects_bad_cards():
    with pytest.raises(BadCardinalityError):
        VariableSystem((2, 1, 2))
    with pytest.raises(BadCardinalityError):
        VariableSystem(())
    with pytest.raises(BadIndexError):
        VariableSystem((2, 2), variables=(2, 1))


def test_member_stage_resolves_to_context():
    system = VariableSystem((2, 2, 2))
    raw = CStreeSpec(
        system, ((), (), (Stage(3, members=((0, 0), (0, 1))),))
    )
    tree = validate(raw)
    (stage,) = tree.listed_stages(3)
    assert stage.context == Context.of({1: 0})


def test_members_parse_as_digit_lists_or_strings():
    def fixture(members):
        level = {"level": 3, "stages": [{"members": members}]}
        return {"cards": [2, 2, 2], "levels": [level]}

    listed = spec_from_json(fixture([[0, 0], [0, 1]]))
    assert listed == spec_from_json(fixture(["00", "01"]))
    assert listed.listed_stages(3)[0].context == Context.of({1: 0})


def test_non_cylinder_members_rejected():
    with pytest.raises(NotACylinderError):
        load("fig2_invalid.json")


def test_overlapping_stages_rejected():
    system = VariableSystem((2, 2, 2))
    raw = CStreeSpec(
        system,
        ((), (), (Stage(3, Context.of({1: 0})), Stage(3, Context.of({2: 0})))),
    )
    with pytest.raises(OverlapError):
        validate(raw)


def test_context_key_must_precede_level():
    system = VariableSystem((2, 2, 2))
    raw = CStreeSpec(system, ((), (Stage(2, Context.of({3: 0})),), ()))
    with pytest.raises(BadIndexError):
        validate(raw)


def test_levels_past_the_last_variable_rejected():
    system = VariableSystem((2, 2))
    raw = CStreeSpec(system, ((), (), (Stage(3, Context()),)))
    with pytest.raises(BadIndexError, match="3 levels listed for 2 variables"):
        validate(raw)
    assert validate(CStreeSpec(system, ((),))) == CStreeSpec(system, ((), ()))


def test_full_context_stages_are_dropped():
    system = VariableSystem((2, 2))
    raw = CStreeSpec(system, ((), (Stage(2, Context.of({1: 0})),)))
    tree = validate(raw)
    assert tree.listed_stages(2) == ()


def test_stage_of_falls_back_to_singleton(fig1):
    smap = level_stage_map(fig1, 3)
    assert smap[(0, 1)].context == Context.of({1: 0, 2: 1})
    assert smap[(1, 0)].context == Context.of({2: 0})
    assert (0, 0, 0) not in smap
    with pytest.raises(BadIndexError):
        level_stage_map(fig1, 4)


def test_level_maps_cover_layer(fig3):
    for var in fig3.system.variables:
        pos = fig3.system.position(var)
        smap = level_stage_map(fig3, var)
        assert list(smap) == list(fig3.system.level_vertices(pos))
        for stage in set(smap.values()):
            for v in stage_members(fig3.system, stage):
                assert smap[v] == stage


def test_stage_statement_content(fig1):
    (stage,) = fig1.listed_stages(3)
    st = stage_statement(fig1, stage)
    assert (st.a, st.b, st.s) == ({3}, {1}, frozenset())
    assert st.context == Context.of({2: 0})
    singleton = level_stage_map(fig1, 3)[(0, 1)]
    assert stage_statement(fig1, singleton) is None


def test_tree_statements(fig3):
    texts = {str(s) for s in tree_statements(fig3)}
    assert "3 _||_ 2 | 1 [X1=0]" in texts
    assert "4 _||_ 3 | 1,2 [X1=0,X2=0]" in texts
    assert "4 _||_ 2 | 1,3 [X1=1,X3=0]" in texts


def test_tree_of_dag_round_trip():
    dag = Dag.of((1, 2, 3), [(1, 2), (2, 3)])
    tree = tree_of_dag(dag, (2, 2, 2))
    assert tree == load("chain123.json")
    full = Dag.of((1, 2, 3), [(1, 2), (1, 3), (2, 3)])
    assert tree_of_dag(full, (2, 2, 2)).levels == ((), (), ())


def test_subtree_of_empty_context_is_identity(fig3):
    assert context_subtree(fig3, Context()) == fig3


def test_subtree_restricts_stages(fig3):
    sub = context_subtree(fig3, Context.of({1: 1}))
    assert sub.system.variables == (2, 3, 4)
    assert sub.listed_stages(3) == (Stage(3, Context()),)
    assert sub.listed_stages(4) == (
        Stage(4, Context.of({3: 0})),
        Stage(4, Context.of({3: 1})),
    )


def test_subtree_rejects_pinning_everything(fig1):
    with pytest.raises(BadIndexError):
        context_subtree(fig1, Context.of({1: 0, 2: 0, 3: 0}))


def test_json_round_trip():
    for name in ("fig1.json", "fig3.json", "fig4.json", "fig5_tree.json"):
        tree = load(name)
        again = spec_from_json(spec_to_json(tree))
        assert again == tree


def test_subtree_json_round_trip(fig4):
    sub = context_subtree(fig4, Context.of({2: 0}))
    data = json.loads(json.dumps(spec_to_json(sub)))
    assert spec_from_json(data) == sub
    assert data["variables"] == [1, 3, 4, 5]


def test_fixture_p_mismatch_rejected():
    with pytest.raises(BadCardinalityError):
        spec_from_json({"p": 2, "cards": [2, 2, 2]})


def test_random_trees_validate_canonically():
    rng = random.Random(3)
    for _ in range(50):
        cards = tuple(rng.choice((2, 3)) for _ in range(rng.randint(2, 4)))
        tree = random_cstree(VariableSystem(cards), rng)
        assert validate(tree) == tree
        assert spec_from_json(spec_to_json(tree)) == tree
