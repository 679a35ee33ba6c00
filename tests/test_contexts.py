"""Context DAG extraction, minimal contexts, and the soundness audit."""

import functools
import importlib.util
import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from cstree import (
    BadIndexError,
    Context,
    ContextDag,
    CsiStatement,
    Dag,
    VariableSystem,
    all_contexts,
    context_dag,
    context_subtree,
    d_separated,
    dags_from_json,
    enumerate_cstrees,
    local_markov,
    minimal_contexts,
    outcome_probabilities,
    random_cstree,
    random_dag,
    random_point,
    saturated_statements,
    separation_disagreements,
    spec_from_json,
    statement_holds,
    statement_zero_at,
    tree_of_dag,
)
from cstree import contexts as contexts_module
from cstree.algebra import _compile
from cstree.cli import main

from conftest import _context_statements, _line_edges, fixture_path, load


def _edge_map(cdags):
    return {cd.context: cd.dag.sorted_edges() for cd in cdags}


def test_all_contexts_order_and_count():
    system = VariableSystem((2, 2, 2))
    contexts = all_contexts(system)
    assert len(contexts) == 19
    assert contexts[0] == Context()
    sizes = [len(c.items) for c in contexts]
    assert sizes == sorted(sizes)
    assert contexts[1] == Context.of({1: 0})
    assert len(set(contexts)) == len(contexts)
    assert all(len(c.items) < 3 for c in contexts)


def test_empty_context_dag_inverts_tree_of_dag():
    rng = random.Random(17)
    for _ in range(200):
        p = rng.randint(2, 5)
        cards = tuple(rng.choice((2, 2, 3)) for _ in range(p))
        dag = random_dag(p, rng, edge_prob=rng.random())
        tree = tree_of_dag(dag, cards)
        assert context_dag(tree).dag == dag


def test_fig1_context_dags(fig1):
    cdags = minimal_contexts(fig1)
    edges = _edge_map(cdags)
    assert edges == {
        Context(): ((1, 3), (2, 3)),
        Context.of({2: 0}): (),
    }
    assert cdags[0].context == Context()
    assert context_dag(fig1, Context.of({2: 0})).dag.vertices == (1, 3)


def test_fig3_context_dags(fig3):
    cdags = minimal_contexts(fig3)
    assert [cd.context for cd in cdags] == [
        Context(),
        Context.of({1: 0}),
        Context.of({1: 1}),
    ]
    assert cdags[0].dag == Dag.of(
        (1, 2, 3, 4), [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]
    )


def test_fig4_context_set(fig4):
    cdags = minimal_contexts(fig4)
    assert [cd.context for cd in cdags] == [
        Context(),
        Context.of({1: 1}),
        Context.of({2: 0}),
        Context.of({1: 0, 2: 1}),
    ]


def test_fig5_tree_matches_published_collection(fig5_tree):
    with open(fixture_path("fig5_dags.json")) as fh:
        expected = dags_from_json(json.load(fh))
    got = minimal_contexts(fig5_tree)
    assert _edge_map(got) == _edge_map(expected)
    assert [cd.context for cd in got] == [cd.context for cd in expected]


def test_fig1_pinned_context_yields_one_statement(fig1):
    (_, pinned) = minimal_contexts(fig1)
    statements = saturated_statements(pinned)
    assert [str(st) for st in statements] == ["1 _||_ 3 | 2 [X2=0]"]
    assert statement_holds(fig1, statements[0])


def test_local_markov_of_minimal_contexts_holds(fig1, fig3, fig4, chain):
    # Every context DAG we report must only claim independences the
    # tree's distributions actually satisfy.
    for tree in (fig1, fig3, fig4, chain):
        for cd in minimal_contexts(tree):
            for st in local_markov(cd.dag, cd.context):
                assert statement_holds(tree, st), (cd.context, str(st))


def test_minimal_contexts_are_deterministic(fig1):
    assert minimal_contexts(fig1) == minimal_contexts(fig1)


def test_no_disagreements_on_minimal_contexts(fig1, fig3, fig4, chain):
    for tree in (fig1, fig3, fig4, chain):
        cdags = minimal_contexts(tree)
        assert separation_disagreements(tree, cdags) == ()


def test_audit_flags_unsound_context_dag(fig1):
    # Pinning the last variable leaves a fiber DAG that overclaims.
    bad = context_dag(fig1, Context.of({3: 0}))
    assert bad.dag == Dag.of((1, 2), [])
    rows = separation_disagreements(fig1, [bad])
    assert rows
    (ctx, st), *_ = rows
    assert ctx == Context.of({3: 0})
    assert {min(st.a), min(st.b)} == {1, 2}


def test_context_dag_shape_on_random_trees():
    rng = random.Random(3)
    for _ in range(20):
        tree = random_cstree(VariableSystem((2, 2, 2)), rng)
        cdag = context_dag(tree)
        assert cdag.context == Context()
        assert cdag.dag.vertices == (1, 2, 3)


@pytest.mark.parametrize(
    "cards", [(2, 2, 2), (3, 2, 2), (2, 3, 3), (2, 2, 2, 2), (2, 3, 2, 2)]
)
def test_context_dag_agrees_with_the_context_subtree(cards):
    # The graph of a context is the empty-context graph of its subtree.
    rng = random.Random(23)
    system = VariableSystem(cards)
    for _ in range(6):
        tree = random_cstree(system, rng)
        for ctx in all_contexts(system)[1:]:
            got = context_dag(tree, ctx)
            assert got.context == ctx
            assert got.dag == context_dag(context_subtree(tree, ctx)).dag, ctx


@pytest.mark.parametrize(
    "pins, message",
    [
        ({4: 0}, "unknown variable X4"),
        ({2: 2}, "context value 2 out of range for X2"),
        ({1: 0, 2: 0, 3: 0}, "cannot pin every variable"),
    ],
)
def test_context_dag_rejects_bad_contexts(fig1, pins, message):
    with pytest.raises(BadIndexError, match=message):
        context_dag(fig1, Context.of(pins))


def test_verify_searches_the_minimal_contexts_once(capsys, monkeypatch):
    # sat and perfect both read the contexts the compiled tree keeps.
    calls = []
    search = contexts_module._minimal_contexts

    def counted(tree):
        calls.append(tree)
        return search(tree)

    monkeypatch.setattr(contexts_module, "_minimal_contexts", counted)
    _compile.cache_clear()
    fixture = str(fixture_path("fig5_tree.json"))
    argv = ["verify", "--method", "all", "--symbolic", fixture]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert len(calls) == 1


@pytest.mark.parametrize("cards", [(2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (2, 3, 2, 2)])
def test_kept_minimal_contexts_equal_a_fresh_search(cards):
    # The golden draws of tests/test_golden.py.
    rng = random.Random(11)
    for _ in range(40):
        tree = random_cstree(VariableSystem(cards), rng)
        kept = minimal_contexts(tree)
        assert minimal_contexts(tree) is kept
        assert kept == contexts_module._minimal_contexts(tree)


GRAPH_FIXTURES = (
    "fig1.json",
    "fig3.json",
    "fig4.json",
    "fig4_textreading.json",
    "fig5_tree.json",
    "chain123.json",
)


def _decomposition_trees():
    trees = [load(name) for name in GRAPH_FIXTURES]
    rng = random.Random(2022)
    for cards in ((3, 2, 2), (2, 3, 3), (3, 3, 2), (2, 2, 2, 3)):
        for _ in range(2):
            trees.append(random_cstree(VariableSystem(cards), rng))
    return trees


def _slices(system, vec, s):
    """The slices C, S = x_S of a context, x_S in lex order."""
    places = list(contexts_module._bits(s))
    for xs in itertools.product(*(range(system.cards[i]) for i in places)):
        sliced = list(vec)
        for i, x in zip(places, xs):
            sliced[i] = x
        yield tuple(sliced)


def _nonempty_subsets(block):
    block = sorted(block)
    for size in range(1, len(block) + 1):
        yield from map(frozenset, itertools.combinations(block, size))


def test_decomposition_gate():
    # The search decides statements on variable pairs.  That rests on three
    # facts, checked here for every candidate statement in every context: a
    # pair refuted at the point in some slice refutes the statement, a true
    # statement makes every sub-pair true, and among the splits the fallback
    # walks the survivor mask admits exactly the statements whose cross
    # pairs all survive in every slice.  The oracle's verdict on the cube
    # equals statement_holds on every candidate, and each of its three
    # branches (a refuted cross pair, every cross pair proven, symbolic)
    # decides some candidate.
    verdicts = set()
    branches = set()
    for tree in _decomposition_trees() + [spec_from_json(CENSUS_361)]:
        system = tree.system
        names = system.variables
        probs = outcome_probabilities(tree, random_point(tree))
        oracle = contexts_module._Oracle(tree)
        holds = functools.cache(lambda st: statement_holds(tree, st))
        screens = functools.cache(
            lambda a, b, ctx: statement_zero_at(CsiStatement({a}, {b}, (), ctx), system, probs)
        )
        for ctx in all_contexts(system):
            vec = _vector(system, ctx)
            surviving = {}
            for st in _context_statements(system, ctx):
                s = sorted(st.s)
                slices = [
                    ctx.merge(zip(s, xs))
                    for xs in itertools.product(*(range(system.card(v)) for v in s))
                ]
                refuted = not all(
                    screens(a, b, sl) for a in st.a for b in st.b for sl in slices
                )
                verdict = holds(st)
                verdicts.add((refuted, verdict))
                masks = [sum(1 << names.index(v) for v in part) for part in (st.a, st.b, st.s)]
                branches.add(_branch(oracle, *masks, vec))
                assert oracle.holds(*masks, vec) == verdict, st
                if refuted:
                    assert not verdict, st
                else:
                    surviving.setdefault(st.s, set()).add((st.a, st.b))
                if verdict:
                    for a, b in itertools.product(
                        _nonempty_subsets(st.a), _nonempty_subsets(st.b)
                    ):
                        assert holds(CsiStatement(a, b, st.s, ctx).canonicalize()), (st, a, b)
            free = [v for v in system.variables if ctx.get(v) is None]
            for s in _nonempty_subsets(free):
                _check_splits(oracle, vec, s, free, surviving)
            _check_splits(oracle, vec, frozenset(), free, surviving)
    # Both directions occur: refuted and false, surviving and true.
    assert {(True, False), (False, True)} <= verdicts
    assert branches == {"refuted", "proven", "symbolic"}


def _vector(system, ctx):
    """The per-position value vector of a context, -1 where free."""
    pinned = system.pinned(ctx)
    return tuple(pinned.get(i, -1) for i in range(system.p))


def _branch(oracle, a, b, s, vec):
    """Which branch of ``holds`` decides A _||_ B | S in a context."""
    cross = contexts_module._cross(a, b, oracle.p)
    cube = contexts_module._cube(vec, s)
    if cross & ~oracle.pairs(cube):
        return "refuted"
    return "symbolic" if cross & ~oracle.proven(cube) else "proven"


def _check_splits(oracle, vec, s, free, surviving):
    names = oracle.system.variables

    def mask(block):
        return sum(1 << names.index(v) for v in block)

    def block(m):
        return frozenset(v for i, v in enumerate(names) if m >> i & 1)

    rest = mask(set(free) - s)
    splits = list(contexts_module._splits(rest))
    positions = [i for i in range(len(names)) if rest >> i & 1]
    assert sorted(splits) == sorted(_canonical_pairs(positions)), (vec, s)
    graph = oracle.pairs(contexts_module._cube(vec, mask(s)))
    admitted = {
        (block(a), block(b))
        for a, b in splits
        if not contexts_module._cross(a, b, len(names)) & ~graph
    }
    assert admitted == surviving.get(s, set()), (vec, s)


def test_integer_screens_match_the_reference_screen():
    # The search screens a slice's pairs from integer tables at a multiple
    # of the point; statement_zero_at at the Fraction point is the
    # reference, on every slice of every context.
    for tree in _decomposition_trees():
        system, names = tree.system, tree.system.variables
        probs = outcome_probabilities(tree, random_point(tree))
        oracle = contexts_module._Oracle(tree)
        (ratio,) = {oracle.probs[x] / probs[x] for x in probs}
        assert ratio > 0 and len(oracle.probs) == len(probs)
        slices = set()
        for ctx in all_contexts(system):
            vec = _vector(system, ctx)
            free = sum(1 << i for i, x in enumerate(vec) if x < 0)
            s = free
            while True:
                slices.update(_slices(system, vec, s))
                if not s:
                    break
                s = (s - 1) & free
        for sl in sorted(slices):
            ctx = contexts_module._context(system, sl)
            free = [i for i, x in enumerate(sl) if x < 0]
            mask = 0
            for i, j in itertools.combinations(free, 2):
                statement = CsiStatement({names[i]}, {names[j]}, (), ctx)
                if statement_zero_at(statement, system, probs):
                    mask |= 1 << (i * system.p + j) | 1 << (j * system.p + i)
            assert oracle.pairs(sl) == mask, sl


def test_margin_cube_sums_the_outcomes_of_each_pattern():
    # Digit c_i at position i means summed over i; any other digit pins it.
    trees = [load(name) for name in GRAPH_FIXTURES]
    rng = random.Random(47)
    for cards in ((3, 2, 2, 3), (4, 2, 3)):
        trees += [random_cstree(VariableSystem(cards), rng) for _ in range(3)]
    for tree in trees:
        oracle = contexts_module._Oracle(tree)
        cards = tree.system.cards
        patterns = list(itertools.product(*(range(c + 1) for c in cards)))
        assert len(oracle.margins) == len(patterns)
        for entry, pattern in zip(oracle.margins, patterns):
            expected = sum(
                w
                for x, w in oracle.probs.items()
                if all(v in (c, xi) for v, c, xi in zip(pattern, cards, x))
            )
            assert entry == expected, pattern


def test_cubes_screen_the_and_of_their_slices():
    # A cube's survivors are built from its sub-cubes, one marked position
    # at a time; a fresh oracle screens each slice on its own.
    for tree in _decomposition_trees():
        oracle = contexts_module._Oracle(tree)
        fresh = contexts_module._Oracle(tree)
        for vec in contexts_module._context_vectors(tree.system):
            free = sum(1 << i for i, x in enumerate(vec) if x < 0)
            s = free
            while True:
                expected = -1
                for sl in _slices(tree.system, vec, s):
                    expected &= fresh.pairs(sl)
                assert oracle.pairs(contexts_module._cube(vec, s)) == expected, (vec, s)
                if not s:
                    break
                s = (s - 1) & free


def test_contexts_leaving_one_variable_free_are_never_tied():
    # The search does not visit them: with one free position no S leaves
    # a pair to tie.
    for name in GRAPH_FIXTURES:
        tree = load(name)
        oracle = contexts_module._Oracle(tree)
        vectors = [
            vec
            for vec in contexts_module._context_vectors(tree.system)
            if vec.count(-1) == 1
        ]
        assert vectors
        assert not any(oracle.tied(vec) for vec in vectors)


def _line_rule_trees():
    trees = [load(name) for name in GRAPH_FIXTURES]
    rng = random.Random(43)
    for cards in ((2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 2, 2, 2), (4, 2, 3)):
        trees += [random_cstree(VariableSystem(cards), rng) for _ in range(5)]
    return trees


def _slice_vectors(system):
    """Every slice vector: each position free (-1) or pinned to a value."""
    return itertools.product(*(range(-1, d) for d in system.cards))


def test_bitset_line_rule_equals_the_line_walk():
    for tree in _line_rule_trees():
        compiled = _compile(tree)
        p = tree.system.p
        for vec in _slice_vectors(tree.system):
            got = {
                (i, j)
                for j in range(p)
                for i in contexts_module._bits(contexts_module._line_parents(compiled, vec, j))
            }
            assert got == _line_edges(compiled, vec, range(p)), vec


def test_mask_separation_equals_d_separated():
    bits = contexts_module._bits
    outcomes = set()
    for tree in _line_rule_trees():
        oracle = contexts_module._Oracle(tree)
        p = tree.system.p
        for vec in _slice_vectors(tree.system):
            free = [i for i, x in enumerate(vec) if x < 0]
            if len(free) < 2:
                continue
            dag = Dag.of(range(p), _line_edges(oracle.compiled, vec, range(p)))
            pinned = [i for i, x in enumerate(vec) if x >= 0]
            for a, b in _canonical_pairs(free):
                separated = oracle._separated(a, b, vec)
                assert separated == d_separated(dag, bits(a), bits(b), pinned), (vec, a, b)
                outcomes.add(separated)
    assert outcomes == {True, False}


def _cubes(system):
    """Every cube: each position marked (-2), free (-1) or pinned."""
    return itertools.product(*(range(-2, d) for d in system.cards))


def test_proven_masks_are_pairwise_d_separation():
    # A slice proves a pair when the reference graph d-separates it; set
    # d-separation is the AND over the cross pairs, and a cube proves the
    # pairs that all of its slices prove.
    bits, cross = contexts_module._bits, contexts_module._cross
    outcomes = set()
    for tree in _line_rule_trees():
        oracle = contexts_module._Oracle(tree)
        system, p = tree.system, tree.system.p
        reference = {}
        for vec in _slice_vectors(system):
            free = [i for i, x in enumerate(vec) if x < 0]
            dag = Dag.of(range(p), _line_edges(oracle.compiled, vec, range(p)))
            pinned = [i for i, x in enumerate(vec) if x >= 0]
            reference[vec] = sum(
                1 << (i * p + j) | 1 << (j * p + i)
                for i, j in itertools.combinations(free, 2)
                if d_separated(dag, [i], [j], pinned)
            )
            if len(free) < 2:
                continue
            for a, b in _canonical_pairs(free):
                separated = oracle._separated(a, b, vec)
                assert separated == (not cross(a, b, p) & ~oracle.proven(vec)), (vec, a, b)
                outcomes.add(separated)
        for cube in _cubes(system):
            marked = sum(1 << i for i, x in enumerate(cube) if x == -2)
            vec = tuple(-1 if x == -2 else x for x in cube)
            expected = -1
            for sl in _slices(system, vec, marked):
                expected &= reference[sl]
            assert oracle.proven(cube) == expected, cube
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "dag, message",
    [
        (ContextDag(Context(), Dag.of((1, 9))), "unknown variable X9"),
        (ContextDag(Context.of({9: 0}), Dag.of((1, 2))), "unknown variable X9"),
        (ContextDag(Context.of({3: 2}), Dag.of((1, 2))), "context value 2 out of range for X3"),
    ],
    ids=["vertex-unknown", "context-variable-unknown", "context-value-out-of-range"],
)
def test_audit_rejects_claims_off_the_tree(fig1, dag, message):
    # The audit asks statement_holds, whose minor walk types the error.
    with pytest.raises(BadIndexError, match=message):
        separation_disagreements(fig1, [dag])


def _canonical_pairs(free):
    """Every canonical (A, B) of disjoint nonempty position masks within a
    list of positions: A holds the lowest position of A | B."""
    for split in itertools.product((0, 1, 2), repeat=len(free)):
        a = sum(1 << i for i, t in zip(free, split) if t == 0)
        b = sum(1 << i for i, t in zip(free, split) if t == 1)
        if a and b and a & -a < b & -b:
            yield a, b


def test_slice_certificate_implies_statement_holds():
    # A slice graph that d-separates A from B given the pinned positions is
    # a proof of A _||_ B in the slice; the symbolic check must agree on
    # every certified statement.  Without the edges into pinned positions
    # the graph certifies false statements, which this catches.
    trees = _decomposition_trees()
    rng = random.Random(41)
    for cards in ((2, 2, 2, 2), (2, 3, 2, 2)):
        trees += [random_cstree(VariableSystem(cards), rng) for _ in range(30)]
    outcomes = set()
    for tree in trees:
        oracle = contexts_module._Oracle(tree)
        for vec in contexts_module._context_vectors(tree.system):
            free = [i for i, x in enumerate(vec) if x < 0]
            if len(free) < 2:
                continue
            for a, b in _canonical_pairs(free):
                certified = oracle._separated(a, b, vec)
                outcomes.add(certified)
                if certified:
                    statement = oracle._statement(a, b, 0, vec)
                    assert statement_holds(tree, statement), (tree, statement)
    assert outcomes == {True, False}


# Staging 361 of the p=4 binary census: X1 _||_ X2 holds in the slices
# X4 = 0 and X4 = 1, yet the slice graph joins X1 and X2 through X3, a
# parent of the pinned X4.  X3 reads X2 only when X1 = 1, and X4 reads X3
# only when X1 = 0: independence context-specific inside the slice.
CENSUS_361 = {
    "p": 4,
    "cards": [2, 2, 2, 2],
    "levels": [
        {"level": 2, "stages": [{"context": {}}]},
        {"level": 3, "stages": [{"context": {"1": 0}}]},
        {
            "level": 4,
            "stages": [
                {"context": {"1": 0, "3": 0}},
                {"context": {"1": 0, "3": 1}},
                {"context": {"1": 1}},
            ],
        },
    ],
}


def test_symbolic_fallback_decides_what_the_slice_graph_cannot_show():
    tree = spec_from_json(CENSUS_361)
    oracle = contexts_module._Oracle(tree)
    for x in (0, 1):
        vec = (-1, -1, -1, x)
        assert not oracle._separated(0b1, 0b10, vec)
        assert statement_holds(tree, oracle._statement(0b1, 0b10, 0, vec))
        assert oracle.holds(0b1, 0b10, 0, vec)
    # X1 _||_ X2 | X4: its cube proves no pair, so only the symbolic check
    # decides it.
    free = (-1, -1, -1, -1)
    assert oracle.holds(0b1, 0b10, 0b1000, free)
    assert (0b1, 0b10, 0b1000, free) in oracle._decided


# A five-variable binary staging in which X1 _||_ X5 holds in the context
# X3 = 0 and given X3, yet no slice graph shows it.  With the context
# X3 = 0 and S empty, (X1, X2) is proven both there and with X3 released,
# while (X1, X5) survives unproven: the masks do not release (C, S), and
# the candidate loop finds X1 _||_ {X2, X5} released by X3.  Keeping the
# context for any proven pair, without asking that every wider cube break
# a statement holding here, would keep it.
RELEASED_BY_X3 = {
    "p": 5,
    "cards": [2, 2, 2, 2, 2],
    "levels": [
        {"level": 2, "stages": [{"context": {}}]},
        {"level": 3, "stages": [{"context": {}}]},
        {
            "level": 4,
            "stages": [
                {"context": {"1": 0, "2": 0}},
                {"context": {"1": 1, "2": 0}},
                {"context": {"2": 1}},
            ],
        },
        {
            "level": 5,
            "stages": [
                {"context": {"2": 0}},
                {"context": {"2": 1, "3": 0, "4": 0}},
                {"context": {"2": 1, "3": 1, "4": 0}},
                {"context": {"2": 1, "4": 1}},
            ],
        },
    ],
}


def test_mask_rules_agree_with_the_candidate_loop():
    # Where the pair masks release a (C, S), the candidate loop of a fresh
    # oracle finds no valid candidate that stays tied.
    answers = set()
    extra = [spec_from_json(CENSUS_361), spec_from_json(RELEASED_BY_X3)]
    for tree in _decomposition_trees() + extra:
        oracle = contexts_module._Oracle(tree)
        loop = contexts_module._Oracle(tree)
        for vec in contexts_module._context_vectors(tree.system):
            free = sum(1 << i for i, x in enumerate(vec) if x < 0)
            pinned = [i for i, x in enumerate(vec) if x >= 0]
            s = free
            while True:
                rest = free & ~s
                if rest.bit_count() >= 2:
                    released = oracle.released(vec, s, rest, pinned)
                    if released:
                        assert not loop.by_candidates(vec, s, rest, pinned), (vec, s)
                    answers.add(released)
                if not s:
                    break
                s = (s - 1) & free
    assert answers == {True, False}


def test_search_without_slice_certificates_is_unchanged(monkeypatch):
    # The graph proof only saves symbolic checks: with every certificate
    # withheld, no pair is proven, so the pair masks settle no (C, S) with
    # a surviving pair and every such visit runs the candidate loop; the
    # search keeps the same contexts and graphs.  The random draws are
    # pinned to the symbolic search's output in test_golden.py.
    trees = [load(name) for name in GRAPH_FIXTURES]
    trees += [spec_from_json(CENSUS_361), spec_from_json(RELEASED_BY_X3)]
    expected = [minimal_contexts(tree) for tree in trees]
    monkeypatch.setattr(contexts_module._Oracle, "_separated", lambda *args: False)
    assert [contexts_module._minimal_contexts(tree) for tree in trees] == expected


def _all_minors_vanish(rows):
    return all(
        r1[c1] * r2[c2] == r1[c2] * r2[c1]
        for r1, r2 in itertools.combinations(rows, 2)
        for c1, c2 in itertools.combinations(range(len(r1)), 2)
    )


@st.composite
def positive_tables(draw):
    """A table of 2-4 rows and 2-4 columns of positive integers, half of
    them outer products (rank one), the rest with entries small enough
    that some minors vanish."""
    shape = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        u, v = (draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)) for n in shape)
        return [[x * y for y in v] for x in u]
    row = st.lists(st.integers(1, 3), min_size=shape[1], max_size=shape[1])
    return draw(st.lists(row, min_size=shape[0], max_size=shape[0]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(positive_tables())
def test_adjacent_minors_decide_rank_one_on_positive_tables(rows):
    assert contexts_module._rank_one(rows) == _all_minors_vanish(rows)


def test_adjacent_minors_do_not_decide_rank_one_with_a_zero_entry():
    # Every adjacent minor vanishes, yet the rows are not proportional:
    # the adjacent rule needs the margin cube's entries to be positive.
    rows = [[1, 0, 0], [0, 0, 1]]
    assert contexts_module._rank_one(rows)
    assert not _all_minors_vanish(rows)


CENSUS_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "census_p4.py"


def _census_tool():
    spec = importlib.util.spec_from_file_location("_census_p4", CENSUS_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_search_work_is_pinned():
    # The census's work counters on a small corpus, every search run cold.
    # A search that keeps the same contexts with more work, say ``released``
    # without its wider-cube rule or ``holds`` without its proven-cube
    # shortcut, moves these counts.
    tool = _census_tool()
    trees = [load(name) for name in GRAPH_FIXTURES]
    for cards in ((2, 2, 2), (2, 3, 2)):
        trees += enumerate_cstrees(VariableSystem(cards))
    trees += [spec_from_json(CENSUS_361), spec_from_json(RELEASED_BY_X3)]
    counts = dict.fromkeys(
        ("search_symbolic_checks", "search_symbolic_refutations", "search_candidate_loops"),
        0,
    )
    _compile.cache_clear()
    for tree in trees:
        tool.searched(tree, counts)
    assert counts == {
        "search_symbolic_checks": 27,
        "search_symbolic_refutations": 0,
        "search_candidate_loops": 56,
    }
