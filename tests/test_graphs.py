"""DAGs, the two separation checkers, moralization, and obstructions."""

import itertools
import json
import random

import pytest

from cstree import (
    BadGraphError,
    Context,
    ContextDag,
    CsiStatement,
    Dag,
    PreconditionError,
    UndirectedGraph,
    d_separated,
    d_separated_bayes_ball,
    dag_from_json,
    dag_to_dot,
    dag_to_json,
    dags_from_json,
    descendants,
    directed_moralize,
    is_perfect,
    local_markov,
    moralization_obstructions,
    moralize,
    random_dag,
    saturated_statements,
    to_perfect,
    undirected_to_dot,
)

from conftest import fixture_path


def _all_dags(p):
    verts = tuple(range(1, p + 1))
    pairs = tuple(itertools.combinations(verts, 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield Dag.of(verts, (e for e, b in zip(pairs, bits) if b))


def test_dag_rejects_bad_edges():
    with pytest.raises(BadGraphError):
        Dag.of((1, 2), [(2, 1)])
    with pytest.raises(BadGraphError):
        Dag.of((1, 2), [(1, 3)])
    with pytest.raises(BadGraphError):
        Dag.of((2, 1), [])
    with pytest.raises(BadGraphError):
        UndirectedGraph((1, 2), frozenset({(1, 1)}))


def test_parents_children_adjacent():
    dag = Dag.of((1, 2, 3), [(1, 3), (2, 3)])
    assert dag.parents(3) == {1, 2}
    assert dag.children(1) == {3}
    assert dag.adjacent(3, 1) and not dag.adjacent(1, 2)


def test_d_separation_classics():
    chain = Dag.of((1, 2, 3), [(1, 2), (2, 3)])
    assert d_separated(chain, {1}, {3}, {2})
    assert not d_separated(chain, {1}, {3})
    collider = Dag.of((1, 2, 3), [(1, 3), (2, 3)])
    assert d_separated(collider, {1}, {2})
    assert not d_separated(collider, {1}, {2}, {3})
    fork = Dag.of((1, 2, 3), [(1, 2), (1, 3)])
    assert d_separated(fork, {2}, {3}, {1})
    assert not d_separated(fork, {2}, {3})


def test_d_separation_descendant_of_collider_opens():
    dag = Dag.of((1, 2, 3, 4), [(1, 3), (2, 3), (3, 4)])
    assert d_separated(dag, {1}, {2})
    assert not d_separated(dag, {1}, {2}, {4})


def test_query_validation():
    dag = Dag.of((1, 2, 3), [(1, 2)])
    with pytest.raises(BadGraphError):
        d_separated(dag, set(), {1})
    with pytest.raises(BadGraphError):
        d_separated(dag, {1}, {2}, {1})
    with pytest.raises(BadGraphError):
        d_separated_bayes_ball(dag, {1}, {9})


def test_two_checkers_agree_on_random_queries():
    rng = random.Random(23)
    for _ in range(300):
        p = rng.randint(2, 6)
        dag = random_dag(p, rng, edge_prob=rng.choice((0.2, 0.5, 0.8)))
        verts = list(dag.vertices)
        rng.shuffle(verts)
        a = frozenset(verts[:1])
        b = frozenset(verts[1:2])
        rest = verts[2:]
        s = frozenset(rest[: rng.randint(0, len(rest))])
        assert d_separated(dag, a, b, s) == d_separated_bayes_ball(dag, a, b, s)


def test_local_markov_holds_by_separation():
    rng = random.Random(4)
    for _ in range(50):
        dag = random_dag(rng.randint(2, 6), rng)
        for st in local_markov(dag):
            assert d_separated(dag, st.a, st.b, st.s)
            assert st.b  # vacuous statements are omitted


def test_moralize_marries_coparents():
    dag = Dag.of((1, 2, 3), [(1, 3), (2, 3)])
    moral = moralize(dag)
    assert moral.adjacent(1, 2)
    assert moral.sorted_edges() == ((1, 2), (1, 3), (2, 3))


def test_directed_moralize_is_one_simultaneous_pass():
    with open(fixture_path("fig5_dags.json")) as fh:
        cdags = dags_from_json(json.load(fh))
    g = cdags[0].dag
    g1, added1 = directed_moralize(g)
    assert added1 == ((3, 4),)
    g2, added2 = directed_moralize(g1)
    assert added2 == ((2, 3),)
    _, added3 = directed_moralize(g2)
    assert added3 == ()


def test_to_perfect_fixpoint():
    with open(fixture_path("fig5_dags.json")) as fh:
        g = dags_from_json(json.load(fh))[0].dag
    final, passes = to_perfect(g)
    assert passes == (((3, 4),), ((2, 3),))
    assert is_perfect(final)
    again, more = to_perfect(final)
    assert again == final and more == ()


def test_is_perfect_examples():
    assert is_perfect(Dag.of((1, 2, 3), [(1, 2), (1, 3), (2, 3)]))
    assert not is_perfect(Dag.of((1, 2, 3), [(1, 3), (2, 3)]))
    assert is_perfect(Dag.of((1, 2, 3), []))


def test_perfect_iff_moralization_adds_nothing():
    rng = random.Random(9)
    for _ in range(100):
        dag = random_dag(rng.randint(2, 6), rng, edge_prob=rng.random())
        step, added = directed_moralize(dag)
        assert is_perfect(dag) == (not added)
        assert dag.edges <= step.edges
        # the moral graph is the skeleton of one directed pass
        assert moralize(dag).edges == step.edges
        closure = set(dag.edges)
        while True:
            longer = {(u, x) for u, w in closure for y, x in dag.edges if w == y}
            if longer <= closure:
                break
            closure |= longer
        for v in dag.vertices:
            assert descendants(dag, v) == {w for u, w in closure if u == v}
        final, _ = to_perfect(dag)
        assert is_perfect(final)


def test_saturated_statements_chain_and_extremes():
    chain = Dag.of((1, 2, 3), [(1, 2), (2, 3)])
    (st,) = saturated_statements(chain)
    assert (st.a, st.b, st.s) == ({1}, {3}, {2})
    complete = Dag.of((1, 2, 3), [(1, 2), (1, 3), (2, 3)])
    assert saturated_statements(complete) == ()
    empty = Dag.of((1, 2, 3), [])
    assert len(saturated_statements(empty)) == 6


def test_saturated_statements_carry_context():
    dag = Dag.of((2, 3), [])
    (st,) = saturated_statements(dag, Context.of({1: 0}))
    assert st.context == Context.of({1: 0})
    # a ContextDag brings its own context along
    (same,) = saturated_statements(ContextDag(Context.of({1: 0}), dag))
    assert same == st


def _separation_filter(dag, context):
    """The reference route: ``d_separated`` on every canonical split."""
    verts = dag.vertices
    out = []
    for split in itertools.product((0, 1, 2), repeat=len(verts)):
        a, b, s = (frozenset(v for v, t in zip(verts, split) if t == k) for k in range(3))
        if a and b and min(a) < min(b) and d_separated(dag, a, b, s):
            out.append(CsiStatement(a, b, s, context))
    return tuple(out)


def test_saturated_statements_match_the_separation_filter():
    # Reading the moral graph once gives, in order, what d_separated gives
    # split by split.
    rng = random.Random(41)
    for _ in range(100):
        names = sorted(rng.sample(range(1, 12), rng.randint(1, 7)))
        dag = random_dag(names, rng, edge_prob=rng.choice((0.2, 0.5, 0.8)))
        context = rng.choice((Context(), Context.of({20: rng.randint(0, 2)})))
        assert saturated_statements(dag, context) == _separation_filter(dag, context)


def test_saturated_statements_shrink_under_moralization():
    rng = random.Random(31)
    for _ in range(60):
        dag = random_dag(rng.randint(3, 6), rng, edge_prob=0.4)
        before = set(saturated_statements(dag))
        after = set(saturated_statements(directed_moralize(dag)[0]))
        assert after <= before


def test_obstruction_worked_example():
    dag = Dag.of((1, 2, 3, 4), [(1, 3), (2, 4), (3, 4)])
    report = moralization_obstructions(dag, 1, 2)
    assert report.n1 == 1 and report.n2 == 0
    assert report.case1 == ((3, 4),)
    assert not report.clear


def test_obstruction_preconditions():
    dag = Dag.of((1, 2, 3), [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(PreconditionError):
        moralization_obstructions(dag, 1, 2)
    collider = Dag.of((1, 2, 3), [(1, 3), (2, 3)])
    with pytest.raises(PreconditionError):
        moralization_obstructions(collider, 1, 2)
    with pytest.raises(BadGraphError):
        moralization_obstructions(collider, 1, 1)


def test_obstructions_decide_one_pass_survival():
    # Exhaustive: the report is clear exactly when the saturated pair
    # statement still separates after one marrying pass.
    for p in (3, 4, 5):
        for dag in _all_dags(p):
            gdm, _ = directed_moralize(dag)
            for i, j in itertools.combinations(dag.vertices, 2):
                try:
                    report = moralization_obstructions(dag, i, j)
                except PreconditionError:
                    continue
                rest = frozenset(dag.vertices) - {i, j}
                assert d_separated(dag, {i}, {j}, rest)
                assert report.clear == d_separated(gdm, {i}, {j}, rest)


def test_case2_obstruction_found():
    dag = Dag.of((1, 2, 3, 4, 5), [(1, 4), (2, 5), (3, 4), (3, 5)])
    report = moralization_obstructions(dag, 1, 2)
    assert report.case2 == ((3, 4, 5),)
    assert report.n1 == 0


def test_obstructions_on_the_collection_graph():
    with open(fixture_path("fig5_dags.json")) as fh:
        g = dags_from_json(json.load(fh))[0].dag
    # 3 and 4 share the child 5, so their pair statement already fails
    with pytest.raises(PreconditionError):
        moralization_obstructions(g, 3, 4)
    report = moralization_obstructions(g, 2, 3)
    assert report.n1 == 1 and report.case1 == ((4, 5),)
    assert report.n2 == 0 and not report.clear
    # consistent with 2-3 getting married on the second pass
    once, _ = directed_moralize(g)
    _, added_second = directed_moralize(once)
    assert (2, 3) in added_second


def test_clear_report_on_a_plain_chain():
    chain = Dag.of((1, 2, 3), [(1, 2), (2, 3)])
    report = moralization_obstructions(chain, 1, 3)
    assert report.clear and report.n1 == report.n2 == 0


def test_dot_output_is_stable():
    dag = Dag.of((1, 2, 3), [(1, 3), (2, 3)])
    expected = "digraph G {\n  1;\n  2;\n  3;\n  1 -> 3;\n  2 -> 3;\n}\n"
    assert dag_to_dot(dag) == expected
    assert dag_to_dot(dag) == dag_to_dot(dag)
    moral = moralize(dag)
    expected = "graph G {\n  1;\n  2;\n  3;\n  1 -- 2;\n  1 -- 3;\n  2 -- 3;\n}\n"
    assert undirected_to_dot(moral) == expected
    assert dag_to_dot(dag, label="X4=0") == (
        'digraph G {\n  label="X4=0";\n  1;\n  2;\n  3;\n  1 -> 3;\n  2 -> 3;\n}\n'
    )
    assert undirected_to_dot(moral, label="m") == (
        'graph G {\n  label="m";\n  1;\n  2;\n  3;\n  1 -- 2;\n  1 -- 3;\n  2 -- 3;\n}\n'
    )


def test_dag_json_round_trip():
    dag = Dag.of((1, 2, 4), [(1, 4), (2, 4)])
    assert dag_from_json(dag_to_json(dag)) == dag
    with open(fixture_path("fig5_dags.json")) as fh:
        cdags = dags_from_json(json.load(fh))
    assert [str(cd.context) for cd in cdags] == ["", "X1=0", "X1=1"]
    for cd in cdags[1:]:
        assert dag_from_json(dag_to_json(cd)) == cd
