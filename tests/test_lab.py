"""Enumeration, random generation, classification, and the p=3 census."""

import hashlib
import json
import random
import sys

import pytest

import cstree.lab as lab
from cstree import (
    BadIndexError,
    BudgetExceededError,
    Context,
    Dag,
    GapError,
    NotP3Error,
    OverlapError,
    PreconditionError,
    Stage,
    VariableSystem,
    check_theorem_p3,
    classify_p3,
    count_cstrees,
    enumerate_cstrees,
    find_nonperfect_balanced,
    random_cstree,
    random_dag,
    spec_to_json,
    tree_of_dag,
    validate_level_partition,
)

from conftest import fastest


def test_staging_counts():
    assert count_cstrees(VariableSystem((2, 2, 2))) == 16
    assert count_cstrees(VariableSystem((2, 3, 2))) == 24
    assert count_cstrees(VariableSystem((3, 2, 2))) == 24
    assert count_cstrees(VariableSystem((2, 2, 3))) == 16
    assert count_cstrees(VariableSystem((2, 2, 2, 2))) == 2464


def test_a_layer_of_singletons_does_not_recurse():
    # The second layer has more vertices than the recursion limit allows
    # frames; its partitions are the whole layer and the singletons.
    assert count_cstrees(VariableSystem((sys.getrecursionlimit() + 100, 2))) == 2


def test_a_wide_layer_is_walked_in_linear_time():
    # Each partition of a layer costs time linear in its width, so the
    # 20,000 singletons of a second layer take about ten to twenty times
    # as long as 2,000 do; a walk that rescans the layer for each stage
    # takes a hundred times as long.
    narrow, narrow_s = fastest(lambda: count_cstrees(VariableSystem((2_000, 2))))
    wide, wide_s = fastest(lambda: count_cstrees(VariableSystem((20_000, 2))))
    assert narrow == wide == 2
    assert wide_s < 40 * narrow_s, f"{wide_s:.3f}s against {narrow_s:.3f}s"


def test_square_layer_has_eight_partitions():
    system = VariableSystem((2, 2, 2))
    counts = [sum(1 for _ in lab._level_partitions(system, pos)) for pos in range(3)]
    assert counts == [1, 2, 8]


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        count_cstrees(VariableSystem((2, 2, 2, 2)), max_trees=100)
    assert count_cstrees(VariableSystem((2, 2, 2, 2)), max_trees=2464) == 2464
    with pytest.raises(BudgetExceededError, match="at least 2464 stagings, budget is 2463"):
        count_cstrees(VariableSystem((2, 2, 2, 2)), max_trees=2463)


def test_budget_stops_drawing_a_layer(monkeypatch):
    # The first four binary layers give 2,464 stagings, so the default
    # budget of 200,000 admits 81 partitions of the fifth layer; the 82nd
    # is the last one drawn.
    draws = {}
    partitions = lab._level_partitions

    def counted(system, pos):
        for part in partitions(system, pos):
            draws[pos] = draws.get(pos, 0) + 1
            yield part

    monkeypatch.setattr(lab, "_level_partitions", counted)
    budget = 200_000
    with pytest.raises(BudgetExceededError, match="at least 202048 stagings, budget is 200000"):
        count_cstrees(VariableSystem((2,) * 5), max_trees=budget)
    assert draws == {0: 1, 1: 2, 2: 8, 3: 154, 4: budget // 2464 + 1}


def test_negative_budget_is_refused_before_any_layer(monkeypatch):
    drawn = []
    monkeypatch.setattr(lab, "_level_partitions", lambda system, pos: drawn.append(pos) or ())
    with pytest.raises(PreconditionError, match="budget must be non-negative, got -1"):
        count_cstrees(VariableSystem((2, 2)), max_trees=-1)
    assert drawn == []


def test_enumeration_is_exhaustive_and_distinct():
    system = VariableSystem((2, 2, 2))
    seen = {json.dumps(spec_to_json(t), sort_keys=True) for t in enumerate_cstrees(system)}
    assert len(seen) == 16


def test_enumeration_order_is_pinned():
    digest = hashlib.sha256()
    total = 0
    for tree in enumerate_cstrees(VariableSystem((2, 2, 2, 2))):
        digest.update((json.dumps(spec_to_json(tree), sort_keys=True) + "\n").encode())
        total += 1
    assert total == 2464
    assert digest.hexdigest() == (
        "acf53f2cbbc4b9e0131f827c9532015e53688d75bb2f68b143ea62a26ef0adde"
    )


def test_validate_level_partition():
    system = VariableSystem((2, 2, 2))
    good = validate_level_partition(
        system, 3, [Stage(3, Context.of({1: 0})), Stage(3, Context.of({1: 1}))]
    )
    assert len(good) == 2
    with pytest.raises(OverlapError):
        validate_level_partition(
            system, 3, [Stage(3, Context()), Stage(3, Context.of({1: 0}))]
        )
    with pytest.raises(GapError):
        validate_level_partition(system, 3, [Stage(3, Context.of({1: 0}))])
    for stages in ([Stage(2, Context()), Stage(3, Context())], [Stage(2, Context())]):
        with pytest.raises(BadIndexError, match="stage for level 2 listed under level 3"):
            validate_level_partition(system, 3, stages)


def test_random_cstree_varies_and_validates():
    rng = random.Random(1)
    system = VariableSystem((2, 2, 2))
    texts = {
        json.dumps(spec_to_json(random_cstree(system, rng)), sort_keys=True)
        for _ in range(40)
    }
    assert len(texts) > 3


def test_random_dag_extremes():
    rng = random.Random(2)
    assert random_dag(4, rng, edge_prob=0).edges == frozenset()
    assert len(random_dag(4, rng, edge_prob=1).edges) == 6
    named = random_dag((2, 5, 9), rng)
    assert named.vertices == (2, 5, 9)


def test_classification_examples(fig1, chain):
    got = classify_p3(fig1)
    assert (got.kind, got.variable, got.outcomes) == ("family_3", 2, (0,))
    chained = classify_p3(chain)
    assert chained.kind == "dag_tree"
    assert chained.dag == Dag.of((1, 2, 3), [(1, 2), (2, 3)])
    complete = tree_of_dag(Dag.of((1, 2, 3), [(1, 2), (1, 3), (2, 3)]), (2, 2, 2))
    assert classify_p3(complete).kind == "dag_tree"


def test_classification_preconditions(fig3):
    with pytest.raises(NotP3Error):
        classify_p3(fig3)


def test_census_binary():
    report = check_theorem_p3((2, 2, 2))
    assert report.total == 16
    assert report.balanced == report.perfect_contexts == 11
    assert report.histogram == {
        "dag_tree": 8,
        "family_1": 2,
        "family_2": 2,
        "family_3": 2,
        "family_4": 2,
    }
    assert report.violations == ()
    as_dict = report.as_dict()
    assert as_dict["total"] == 16 and as_dict["violations"] == []


def test_census_with_a_wider_middle_variable():
    report = check_theorem_p3((2, 3, 2))
    assert report.total == 24
    assert report.balanced == report.perfect_contexts == 15
    assert report.histogram == {
        "dag_tree": 8,
        "family_1": 6,
        "family_2": 2,
        "family_3": 6,
        "family_4": 2,
    }
    assert report.violations == ()


def test_census_other_card_vectors():
    report = check_theorem_p3((3, 2, 2))
    assert (report.total, report.balanced, report.perfect_contexts) == (24, 15, 15)
    assert report.histogram["family_2"] == report.histogram["family_4"] == 6
    assert report.violations == ()
    # widening only the last variable leaves the staging lattice alone
    report = check_theorem_p3((2, 2, 3))
    assert (report.total, report.balanced, report.perfect_contexts) == (16, 11, 11)
    assert report.violations == ()


def test_find_nonperfect_balanced(fig3):
    with pytest.raises(PreconditionError):
        next(find_nonperfect_balanced(VariableSystem((2, 2, 2))))
    found = list(find_nonperfect_balanced(VariableSystem((2, 2, 2, 2))))
    assert len(found) == 4
    assert found[0] == fig3


def test_census_facts_are_decided_on_first_read(monkeypatch, fig3):
    # The p = 3 report and the search for balanced trees with a non-perfect
    # graph read balance and perfection only: no basis, fiber sweep or audit.
    def refuse(*args, **kwargs):
        raise AssertionError("an unread census fact was decided")

    for name in (
        "markov_basis_saturated",
        "perfect_context_basis",
        "quad_lift_basis",
        "fibers_connected",
        "separation_disagreements",
    ):
        monkeypatch.setattr(lab, name, refuse)
    report = check_theorem_p3((2, 3, 2))
    assert (report.total, report.balanced, report.perfect_contexts) == (24, 15, 15)
    assert report.violations == ()
    assert next(find_nonperfect_balanced(VariableSystem((2, 2, 2, 2)))) == fig3
