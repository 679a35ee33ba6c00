"""Labels, interpolants, balance, vanishing, points, and fibers."""

import hashlib
import itertools
import json
import random
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

import pytest

from cstree import (
    BadIndexError,
    BalanceWitness,
    BoundTooLargeError,
    Context,
    CsiStatement,
    CStreeSpec,
    EdgeLabel,
    ExponentMatrix,
    NotSameStageError,
    ShapeMismatchError,
    SparsePoly,
    VariableSystem,
    all_contexts,
    balanced_pair,
    canonical_binomial,
    d_separated,
    dag_from_json,
    edge_label,
    enumerate_cstrees,
    exponent_matrix,
    fibers_connected,
    interpolant,
    is_balanced,
    is_perfect,
    level_stage_map,
    markov_basis_saturated,
    minimal_contexts,
    outcome_probabilities,
    parse_statement,
    perfect_context_basis,
    psi_monomial,
    quad_lift_basis,
    random_cstree,
    random_dag,
    random_point,
    saturated_statements,
    spec_from_json,
    stage_members,
    statement_holds,
    statement_polynomials,
    statement_zero_at,
    tree_labels,
    to_perfect,
    tree_of_dag,
    vanishes,
)
from cstree import algebra
from cstree import cli
from cstree.algebra import (
    _fields,
    _integer_probabilities,
    _minor_cells,
    _nonvanishing,
    _tables,
    _unpack,
)
from cstree.cli import main
from cstree.errors import UnbalancedError

from conftest import (
    _context_statements,
    _reference_fibers_connected,
    fixture_path,
    load,
)
from test_cli import CENSUS_313


@dataclass(frozen=True)
class _Move:
    plus: tuple
    minus: tuple


def test_label_count_and_order(chain):
    labels = tree_labels(chain)
    assert len(labels) == 10
    assert labels == tuple(sorted(labels))
    assert str(labels[0]) == "q1(-;0)"
    assert str(EdgeLabel(3, ((2, 0),), 1)) == "q3(X2=0;1)"


def test_psi_monomial_paths(chain):
    mono = psi_monomial(chain, (0, 1, 0))
    assert mono.powers == (
        (EdgeLabel(1, (), 0), 1),
        (EdgeLabel(2, ((1, 0),), 1), 1),
        (EdgeLabel(3, ((2, 1),), 0), 1),
    )


def test_interpolant_examples(chain):
    assert interpolant(chain, (0, 1, 0)) == SparsePoly.constant(1)
    q0 = SparsePoly.variable(EdgeLabel(3, ((2, 1),), 0))
    q1 = SparsePoly.variable(EdgeLabel(3, ((2, 1),), 1))
    assert interpolant(chain, (0, 1)) == q0 + q1
    assert interpolant(chain, (1, 1)) == q0 + q1
    point = random_point(chain, seed=3)
    assert interpolant(chain, ()).evaluate(point) == 1


def test_balanced_verdicts(fig1, fig3, fig4, fig5_tree, chain):
    assert is_balanced(fig3) == (True, None)
    assert is_balanced(fig4) == (True, None)
    assert is_balanced(fig5_tree) == (True, None)
    assert is_balanced(chain) == (True, None)
    ok, witness = is_balanced(fig1)
    assert not ok
    assert witness.level == 1
    assert witness.context == Context()
    assert witness.pair == ((0,), (1,))
    assert witness.outcomes == (0, 1)
    assert "(0,)" in str(witness)


_OUTSIDE_THE_TREE = {
    "interpolant-value": lambda fig3, chain: interpolant(fig3, (5,)),
    "interpolant-depth": lambda fig3, chain: interpolant(fig3, (0,) * 6),
    "psi-prefix": lambda fig3, chain: psi_monomial(fig3, (0, 0)),
    "psi-value": lambda fig3, chain: psi_monomial(fig3, (0, 0, 0, 7)),
    "vanishes": lambda fig3, chain: vanishes(
        chain, SparsePoly.variable((0, 0, 0, 0)) - SparsePoly.variable((1, 1, 1, 1))
    ),
    "probabilities-label": lambda fig3, chain: outcome_probabilities(fig3, {}),
    "zero-at-outcome": lambda fig3, chain: statement_zero_at(
        parse_statement("1 _||_ 2"),
        chain.system,
        outcome_probabilities(fig3, random_point(fig3)),
    ),
    "fibers": lambda fig3, chain: fibers_connected(
        exponent_matrix(chain),
        [
            canonical_binomial(
                ((0, 0, 0, 0), (1, 1, 1, 1)), ((0, 0, 0, 1), (1, 1, 1, 0))
            )
        ],
        2,
    ),
}

# What the refusal of a caller's table must name.
_MISSING = {
    "probabilities-label": r"q1\(-;0\)$",
    "zero-at-outcome": r"outcome \(0, 0, 0\)$",
}


@pytest.mark.parametrize("case", _OUTSIDE_THE_TREE)
def test_an_index_outside_the_tree_is_refused_before_any_table(
    case, fig3, chain, monkeypatch
):
    algebra._compile.cache_clear()
    monkeypatch.setattr(algebra, "_tables", lambda *args: pytest.fail("tables built"))
    with pytest.raises(BadIndexError, match=_MISSING.get(case)):
        _OUTSIDE_THE_TREE[case](fig3, chain)
    for tree in (fig3, chain):
        built = vars(algebra._compile(tree)).keys()
        assert not built & {"factors", "keys", "images"}


def test_balanced_pair_matches_witness(fig1, chain):
    assert not balanced_pair(fig1, (0,), (1,))
    with pytest.raises(NotSameStageError):
        balanced_pair(chain, (0,), (1,))
    with pytest.raises(NotSameStageError):
        balanced_pair(fig1, (0,), (0, 1))
    with pytest.raises(BadIndexError):
        balanced_pair(fig1, (0, 0, 0), (1, 0, 0))
    with pytest.raises(BadIndexError):
        balanced_pair(fig1, (0,), (5,))


def test_factor_ids_are_canonical(monkeypatch):
    # Two vertices of one depth share their factor ids exactly when their
    # interpolants are equal, and balance and every statement are decided
    # without a product.
    trees = [load(name) for name in TREE_FIXTURES]
    rng = random.Random(25)
    for _ in range(50):
        cards = tuple(rng.choice((2, 2, 3)) for _ in range(rng.randint(2, 5)))
        trees.append(random_cstree(VariableSystem(cards), rng))
    for tree in trees:
        factors = algebra._compile(tree).factors
        for layer in factors:
            pairs = {(interpolant(tree, v), ids) for v, ids in layer.items()}
            polys, id_sets = zip(*pairs)
            assert len(set(polys)) == len(set(id_sets)) == len(pairs)
    monkeypatch.setattr(
        algebra, "_product_into", lambda *args: pytest.fail("a product was taken")
    )
    verdicts = set()
    for tree in trees:
        algebra._compile.cache_clear()
        ok = is_balanced(tree)[0]
        assert is_balanced(tree, audit_all_pairs=True)[0] == ok
        pairs = [
            (members[0], w)
            for stages in algebra._compile(tree).stages
            for members in stages.values()
            for w in members[1:]
        ]
        assert all(balanced_pair(tree, v, w) for v, w in pairs) == ok
        verdicts.add(ok)
    assert verdicts == {True, False}
    holds = {
        statement_holds(tree, statement)
        for tree in trees
        for ctx in all_contexts(tree.system)
        for statement in _context_statements(tree.system, ctx)
    }
    assert holds == {True, False}


def test_large_dag_trees_are_decided_in_linear_time():
    # 16,383 vertices each: before balance was decided on factor ids, the
    # interpolant products took seconds here.
    dag = random_dag(14, random.Random(3), 0.3)
    verdicts = []
    for graph in (to_perfect(dag)[0], dag):
        tree = tree_of_dag(graph, (2,) * 14)
        started = time.perf_counter()
        ok, _ = is_balanced(tree)
        elapsed = time.perf_counter() - started
        assert elapsed < 1, f"is_balanced took {elapsed:.2f}s"
        assert ok == is_perfect(graph)
        verdicts.append(ok)
    assert verdicts == [True, False]


def test_statements_on_dag_trees_agree_with_d_separation():
    # d-separation is sound and complete for discrete DAG models, so the
    # model's exact verdict must match the graph's on every statement.
    verdicts = set()
    for p in range(5, 13):
        rng = random.Random(p)
        dag = random_dag(p, rng, rng.choice((0.3, 0.5)))
        tree = tree_of_dag(dag, (2,) * p)
        queries = [(1, p, frozenset())]
        for _ in range(4):
            i, j = sorted(rng.sample(range(1, p + 1), 2))
            rest = [v for v in range(1, p + 1) if v not in (i, j)]
            queries.append((i, j, frozenset(v for v in rest if rng.random() < 0.3)))
        for i, j, s in queries:
            holds = statement_holds(tree, CsiStatement({i}, {j}, s))
            assert holds == d_separated(dag, {i}, {j}, s), (p, i, j, s)
            verdicts.add(holds)
    assert verdicts == {True, False}


def test_audit_all_pairs_agrees_on_random_trees():
    rng = random.Random(5)
    for _ in range(30):
        tree = random_cstree(VariableSystem((2, 2, 2)), rng)
        fast = is_balanced(tree)[0]
        assert fast == is_balanced(tree, audit_all_pairs=True)[0]


def test_vanishing_separates_true_from_false(chain):
    good = parse_statement("1 _||_ 3 | 2")
    for poly in statement_polynomials(good, chain.system):
        assert vanishes(chain, poly)
    bad = parse_statement("1 _||_ 2")
    polys = statement_polynomials(bad, chain.system)
    assert polys and not all(vanishes(chain, p) for p in polys)
    assert statement_holds(chain, good)
    assert not statement_holds(chain, bad)


def test_statement_polynomials_drop_zero_minors(fig1):
    # X3 _||_ X3-free blocks never collide here; just check nothing is zero.
    st = parse_statement("1 _||_ 3 | 2")
    for poly in statement_polynomials(st, fig1.system):
        assert not poly.is_zero()
    minors = list(_minor_cells(st, fig1.system, lambda axes: axes))
    assert len(minors) >= len(statement_polynomials(st, fig1.system))


def test_context_value_out_of_range_rejected(chain):
    st = parse_statement("1 _||_ 2 [X3=5]")
    with pytest.raises(BadIndexError):
        statement_polynomials(st, chain.system)


def test_random_point_is_a_distribution(fig3):
    point = random_point(fig3, seed=11)
    for var in fig3.system.variables:
        d = fig3.system.card(var)
        for stage in set(level_stage_map(fig3, var).values()):
            total = sum(point[edge_label(stage, o)] for o in range(d))
            assert total == 1
    probs = outcome_probabilities(fig3, point)
    assert sum(probs.values()) == 1
    assert all(v > 0 for v in probs.values())
    assert random_point(fig3, seed=11) == point
    assert random_point(fig3, seed=12) != point
    # The integer table verify evaluates is the point's table times one
    # positive integer, at seed 0 and at the seeds verify draws.
    for seed in (0, 11, 2**30 - 1):
        table = _integer_probabilities(fig3, seed)
        reference = outcome_probabilities(fig3, random_point(fig3, seed))
        assert table.keys() == reference.keys()
        assert all(type(v) is int for v in table.values())
        (scale,) = {table[x] / reference[x] for x in reference}
        assert scale > 0 and scale.denominator == 1


def test_zero_screen_agrees_with_symbolic_truth(chain, fig1):
    for tree in (chain, fig1):
        probs = outcome_probabilities(tree, random_point(tree, seed=2))
        for text in ("1 _||_ 3 | 2", "1 _||_ 2", "2 _||_ 3", "1 _||_ 3"):
            st = parse_statement(text)
            holds = statement_holds(tree, st)
            screen = statement_zero_at(st, tree.system, probs)
            if holds:
                assert screen
    # a refutation at one point settles it for these fixtures
    st = parse_statement("1 _||_ 2")
    probs = outcome_probabilities(chain, random_point(chain, seed=2))
    assert not statement_zero_at(st, chain.system, probs)


def test_exponent_matrix_shape(fig3):
    matrix = exponent_matrix(fig3)
    assert matrix.labels == tree_labels(fig3)
    assert len(matrix.outcomes) == 16
    assert all(len(rows) == 4 for rows in matrix.columns)
    basis_table = [0] * 16
    basis_table[3] = 2
    marg = matrix.marginal(tuple(basis_table))
    assert sum(marg) == 8
    assert set(marg) <= {0, 2}
    for length in (15, 17, 40):
        with pytest.raises(ShapeMismatchError):
            matrix.marginal((1,) * length)


def test_fiber_bound_budget(chain, monkeypatch):
    matrix = exponent_matrix(chain)
    # C(8 + 20, 8) = 3,108,105 tables exceed the 2,000,000 budget
    assert len(matrix.outcomes) == 8
    monkeypatch.setattr(algebra, "_tables", lambda *args: pytest.fail("built"))
    with pytest.raises(BoundTooLargeError):
        fibers_connected(matrix, [], bound=20)


def test_chain_fibers_connected_by_its_binomials(chain):
    matrix = exponent_matrix(chain)
    moves = [
        _Move(((0, 0, 0), (1, 0, 1)), ((0, 0, 1), (1, 0, 0))),
        _Move(((0, 1, 0), (1, 1, 1)), ((0, 1, 1), (1, 1, 0))),
    ]
    report = fibers_connected(matrix, moves, bound=2)
    assert report.connected
    assert (report.tables, report.fibers) == (45, 43)
    bare = fibers_connected(matrix, [], bound=2)
    assert not bare.connected
    marg, t1, t2 = bare.witness
    assert t1 != t2
    assert matrix.marginal(t1) == matrix.marginal(t2) == marg
    assert "disconnected" in str(bare)


def _recursive_tables(total, length):
    if length == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _recursive_tables(total - head, length - 1):
            yield (head,) + rest


def test_tables_keep_the_recursive_order():
    # Packed with outcome 0 most significant, the tables run in descending
    # lex order; decoded, they are the recursive order reversed.
    for length in range(1, 8):
        units = _fields(3, length)
        for total in range(5):
            tables = [_unpack(t, 3, length) for _, t in _tables(total, units, units)]
            assert tables == list(_recursive_tables(total, length))[::-1]


def test_fibers_at_bound_zero_on_a_large_tree():
    # 2,048 outcomes: deeper than the recursion limit allows for recursion.
    dag = dag_from_json({"vertices": list(range(1, 12)), "edges": []})
    matrix = exponent_matrix(tree_of_dag(dag, (2,) * 11))
    report = fibers_connected(matrix, [], bound=0)
    assert report.connected
    assert (report.tables, report.fibers) == (1, 1)


# Exactness gate: the compiled, factored route against the route it replaced,
# written out here from public pieces: each outcome monomial becomes a
# product of path monomials, and that image is expanded by substituting one
# minus the others for each stage's last label.  Substitution is linear, so
# each distinct outcome monomial is expanded once per tree (its terms keyed
# by label positions) and the expansions are summed.


class _Reference:
    def __init__(self, tree):
        self.tree = tree
        self.subs = {}
        for var in tree.system.variables:
            d = tree.system.card(var)
            for stage in set(level_stage_map(tree, var).values()):
                total = SparsePoly.constant(1)
                for o in range(d - 1):
                    total = total - SparsePoly.variable(edge_label(stage, o))
                self.subs[edge_label(stage, d - 1)] = total
        self.position = {label: i for i, label in enumerate(tree_labels(tree))}
        self.expanded = {}

    def expand(self, mono):
        if mono not in self.expanded:
            image = SparsePoly.constant(1)
            for x, e in mono.powers:
                image = image * SparsePoly({psi_monomial(self.tree, x): 1}) ** e
            self.expanded[mono] = {
                tuple((self.position[v], e) for v, e in m.powers): c
                for m, c in image.substitute(self.subs).terms.items()
            }
        return self.expanded[mono]

    def vanishes(self, poly):
        total = {}
        for mono, coef in poly.terms.items():
            for m, c in self.expand(mono).items():
                total[m] = total.get(m, 0) + coef * c
        return not any(total.values())


def _reference_balance(tree):
    system = tree.system
    table = {x: SparsePoly.constant(1) for x in system.outcomes()}
    for k in range(system.p - 1, -1, -1):
        for v, stage in level_stage_map(tree, system.variables[k]).items():
            table[v] = SparsePoly.zero()
            for o in range(system.cards[k]):
                label = SparsePoly.variable(edge_label(stage, o))
                table[v] = table[v] + label * table[v + (o,)]
    for k, var in enumerate(system.variables):
        for stage in tree.listed_stages(var):
            v, *others = stage_members(system, stage)
            for w in others:
                for s, r in itertools.combinations(range(system.cards[k]), 2):
                    left = table[v + (s,)] * table[w + (r,)]
                    if left != table[v + (r,)] * table[w + (s,)]:
                        return False, BalanceWitness(k, stage.context, (v, w), (s, r))
    return True, None


def _assert_statements_agree(tree):
    reference = _Reference(tree)
    verdicts = {}  # minor -> reference verdict; statements share many minors
    verdicts_seen = set()
    for ctx in all_contexts(tree.system):
        for statement in _context_statements(tree.system, ctx):
            expected = True
            for poly in statement_polynomials(statement, tree.system):
                if poly not in verdicts:
                    verdicts[poly] = reference.vanishes(poly)
                    assert vanishes(tree, poly) == verdicts[poly], (statement, poly)
                if not verdicts[poly]:
                    expected = False
                    break
            assert statement_holds(tree, statement) == expected, statement
            verdicts_seen.add(expected)
    return verdicts_seen


TREE_FIXTURES = (
    "fig1.json",
    "fig3.json",
    "fig4.json",
    "fig4_textreading.json",
    "fig5_tree.json",
    "chain123.json",
)


def test_exactness_gate_statements_on_fixtures():
    for name in TREE_FIXTURES:
        assert _assert_statements_agree(load(name)) == {True, False}


def test_exactness_gate_statements_on_random_trees():
    rng = random.Random(2210)
    systems = [
        VariableSystem(tuple(rng.choice((2, 2, 3)) for _ in range(rng.randint(2, 4))))
        for _ in range(24)
    ]
    systems += [VariableSystem((2,) * 5)] * 2
    seen = set()
    for system in systems:
        seen |= _assert_statements_agree(random_cstree(system, rng))
    assert seen == {True, False}


def test_conditional_statement_is_the_and_of_its_slices():
    # A _||_ B | S [C] has exactly the minors of A _||_ B in the contexts
    # C, S = x_S, so both checks must agree with the AND over those slices.
    trees = [load(name) for name in TREE_FIXTURES]
    rng = random.Random(5)
    for cards in ((3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 2), (2, 2, 2, 2)):
        trees.append(random_cstree(VariableSystem(cards), rng))
    verdicts = set()
    for tree in trees:
        system = tree.system
        probs = outcome_probabilities(tree, random_point(tree))
        for ctx in all_contexts(system):
            for st in _context_statements(system, ctx):
                if not st.s:
                    continue
                s = sorted(st.s)
                slices = [
                    CsiStatement(st.a, st.b, (), ctx.merge(zip(s, xs)))
                    for xs in itertools.product(*(range(system.card(v)) for v in s))
                ]
                holds = statement_holds(tree, st)
                assert holds == all(statement_holds(tree, sl) for sl in slices), st
                assert statement_zero_at(st, system, probs) == all(
                    statement_zero_at(sl, system, probs) for sl in slices
                ), st
                verdicts.add(holds)
    assert verdicts == {True, False}


def test_exactness_gate_balance():
    trees = [load(name) for name in TREE_FIXTURES]
    rng = random.Random(11521)
    for p in range(2, 7):
        for _ in range(4):
            dag = random_dag(p, rng, edge_prob=rng.random())
            trees.append(tree_of_dag(dag, (2,) * p))
    verdicts = set()
    for tree in trees:
        expected = _reference_balance(tree)
        assert is_balanced(tree) == expected
        verdicts.add(expected[0])
    assert verdicts == {True, False}


def test_every_census_verdict_and_witness_is_pinned():
    # sha256 over one line per (2,2,2,2) staging and audit flag, in
    # enumeration order: the verdict and the whole witness.
    digest = hashlib.sha256()
    for tree in enumerate_cstrees(VariableSystem((2, 2, 2, 2))):
        for audit in (False, True):
            ok, w = is_balanced(tree, audit_all_pairs=audit)
            line = (ok,) if ok else (ok, w.level, w.context.items, w.pair, w.outcomes)
            digest.update((repr(line) + "\n").encode())
    assert digest.hexdigest() == (
        "961dd3560fdde5ec3af4f9635f5d84e6e72134e5c59db573e7d5fcf23401d63d"
    )


def test_packed_keys_do_not_alias_past_the_tables_width():
    # One variable of card 3: E(0) and E(1) are the adjacent labels l0 and
    # l1.  Two-bit exponent fields would give l0^4 the key of l1.
    tree = CStreeSpec(VariableSystem((3,)), ((),))
    p0, p1 = (SparsePoly.variable((x,)) for x in (0, 1))
    assert not vanishes(tree, p0**4 - p1)
    assert vanishes(tree, p0**4 * p1 - p1 * p0**4)


def test_vanishing_agrees_with_the_reference_at_high_degree():
    rng = random.Random(46)
    verdicts = set()
    for name in TREE_FIXTURES:
        tree = load(name)
        reference = _Reference(tree)
        outcomes = list(tree.system.outcomes())
        minors = [
            poly
            for cd in minimal_contexts(tree)
            for st in saturated_statements(cd)
            for poly in statement_polynomials(st, tree.system)
        ]
        for degree in (4, 5, 6):
            x, y = (SparsePoly.variable(v) for v in rng.sample(outcomes, 2))
            polys = [
                x**degree - y,
                x**degree - y**degree,
                x ** (degree - 1) * y - y ** (degree - 1) * x,
                rng.choice(minors) * x ** (degree - 2),
            ]
            for poly in polys:
                expected = reference.vanishes(poly)
                assert vanishes(tree, poly) == expected, (name, poly)
                verdicts.add(expected)
    assert verdicts == {True, False}


# The binomial criterion against the expansion: two path monomials that
# differ never cancel, and equal ones always do.  The ``_Reference``
# expansion decides each case on its own.
def test_binomials_agree_with_the_expansion_on_the_fixtures_bases():
    verdicts = set()
    for name in TREE_FIXTURES:
        tree = load(name)
        reference = _Reference(tree)
        for route in (markov_basis_saturated, quad_lift_basis, perfect_context_basis):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    basis = route(tree)
            except UnbalancedError:
                continue
            for binomial in basis:
                poly = binomial.to_poly()
                expected = reference.vanishes(poly)
                assert vanishes(tree, poly) == expected, (name, binomial)
                verdicts.add(expected)
    # Every basis binomial of the fixtures lies in the ideal, fig1's too.
    assert verdicts == {True}


def test_the_batch_key_test_agrees_with_vanishes_on_every_basis():
    # The saturated and perfected bases, and the quad-lift one where the
    # tree is balanced.  No fixture's basis holds a binomial off the model;
    # census staging 313 and some of the random draws do.
    rng = random.Random(2026)
    trees = [load(name) for name in TREE_FIXTURES] + [spec_from_json(CENSUS_313)]
    for _ in range(200):
        cards = tuple(rng.choice((2, 2, 3)) for _ in range(rng.randint(2, 4)))
        trees.append(random_cstree(VariableSystem(cards), rng))
    verdicts = set()
    for tree in trees:
        for route in (markov_basis_saturated, perfect_context_basis, quad_lift_basis):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    basis = route(tree)
            except UnbalancedError:
                continue
            expected = [b for b in basis if not vanishes(tree, b.to_poly())]
            assert list(_nonvanishing(tree, basis)) == expected, (tree, route)
            verdicts.update(b not in expected for b in basis)
    assert verdicts == {True, False}


def test_binomials_agree_with_the_expansion_on_three_label_stages():
    # Half the quadruples swap the tails of two outcomes, which often
    # vanishes; the other half are drawn freely, which rarely does.
    rng = random.Random(1515)
    verdicts = set()
    for cards in ((3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3), (2, 3, 2, 2)):
        for _ in range(3):
            tree = random_cstree(VariableSystem(cards), rng)
            reference = _Reference(tree)
            outcomes = list(tree.system.outcomes())
            for _ in range(40):
                u1, u2 = rng.sample(outcomes, 2)
                if rng.random() < 0.5:
                    k = rng.randrange(1, len(cards))
                    v1, v2 = u1[:k] + u2[k:], u2[:k] + u1[k:]
                else:
                    v1, v2 = rng.choice(outcomes), rng.choice(outcomes)
                x = {o: SparsePoly.variable(o) for o in (u1, u2, v1, v2)}
                poly = x[u1] * x[u2] - x[v1] * x[v2]
                expected = reference.vanishes(poly)
                assert vanishes(tree, poly) == expected, (cards, poly)
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_few_path_monomials_decide_without_expansion():
    # p0 + p1 - 1 has three path monomials (the constant's is empty) and is
    # left to the expansion; p0 + p1 has two, which never cancel.  On the
    # card-3 variable, p0^4 and p1 share a key in two-bit fields.  From
    # degree 4 on, three or more path monomials are expanded on widened
    # images.
    binary = CStreeSpec(VariableSystem((2,)), ((),))
    p0, p1, p2 = (SparsePoly.variable((x,)) for x in (0, 1, 2))
    ternary = CStreeSpec(VariableSystem((3,)), ((),))
    one = SparsePoly.constant(1)
    cases = [
        (binary, p0 + p1 - one, True),
        (binary, p0 + p1, False),
        (binary, p0 - p0, True),
        (ternary, p0**4 - p1, False),
        (ternary, p0**4 * p1 - p1 * p0**4, True),
        (ternary, p0**2 * p1**3 - p1**2 * p0**3, False),
        (binary, (p0 + p1) ** 4 - one, True),
        (binary, (p0 + p1) ** 4 - p0, False),
        (ternary, (p0 + p1 + p2) ** 2 * p0**2 - p0**2, True),
    ]
    for tree, poly, expected in cases:
        assert _Reference(tree).vanishes(poly) == expected, poly
        assert vanishes(tree, poly) == expected, poly


def test_the_default_balance_verdict_is_kept(monkeypatch):
    calls = []
    failing = algebra._failing_outcomes

    def counted(*args):
        calls.append(args)
        return failing(*args)

    for name in ("fig1.json", "fig5_tree.json"):
        tree = load(name)
        first = is_balanced(tree)
        monkeypatch.setattr(algebra, "_failing_outcomes", counted)
        assert is_balanced(tree) == first
        assert calls == []
        assert is_balanced(tree, audit_all_pairs=True)[0] == first[0]
        assert calls
        calls.clear()
        monkeypatch.setattr(algebra, "_failing_outcomes", failing)


def test_verify_decides_the_default_balance_once(capsys, monkeypatch):
    calls = []
    balance = algebra._balance

    def counted(compiled, audit_all_pairs):
        calls.append(audit_all_pairs)
        return balance(compiled, audit_all_pairs)

    monkeypatch.setattr(algebra, "_balance", counted)
    algebra._compile.cache_clear()
    fixture = str(fixture_path("fig4.json"))
    assert main(["verify", "--method", "all", "--symbolic", fixture]) == 0
    capsys.readouterr()
    assert calls == [False]
    tree = load("fig4.json")
    for audits in (1, 2):
        assert is_balanced(tree, audit_all_pairs=True) == (True, None)
        assert calls == [False] + [True] * audits


BALANCED = (
    "fig3.json",
    "fig4.json",
    "fig4_textreading.json",
    "fig5_tree.json",
    "chain123.json",
)


@pytest.mark.parametrize("name", BALANCED)
def test_a_reused_matrix_reports_as_a_fresh_one(name):
    # The bounds interleave, so each sweep reads the grouping of its own bound.
    tree = load(name)
    matrix = exponent_matrix(tree)
    routes = (markov_basis_saturated, quad_lift_basis, perfect_context_basis)
    bases = [route(tree) for route in routes]
    for bound in (1, 3, 2):
        for moves in bases + [bases[0][: len(bases[0]) // 2]]:
            fresh = fibers_connected(exponent_matrix(tree), moves, bound=bound)
            assert fibers_connected(matrix, moves, bound=bound) == fresh


def test_verify_enumerates_the_tables_once_per_bound(capsys, monkeypatch):
    totals = []

    def counted(total, units, columns):
        totals.append(total)
        return _tables(total, units, columns)

    monkeypatch.setattr(algebra, "_tables", counted)
    fixture = str(fixture_path("fig5_tree.json"))
    argv = ["verify", "--method", "all", "--fiber-bound", "3", fixture]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    tables = [entry["fibers"]["tables"] for entry in report["methods"].values()]
    assert tables == [6545] * 3
    assert totals == [0, 1, 2, 3]


def test_verify_sweeps_each_distinct_move_set_once(capsys, monkeypatch):
    # fig5_tree's three bases are one set of moves, so one union-find serves
    # all three reports.
    calls = []

    def counted(matrix, moves, bound):
        calls.append(bound)
        return fibers_connected(matrix, moves, bound=bound)

    monkeypatch.setattr(cli, "fibers_connected", counted)
    fixture = str(fixture_path("fig5_tree.json"))
    argv = ["verify", "--method", "all", "--fiber-bound", "3", fixture]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert calls == [3]
    fibers = [entry["fibers"] for entry in report["methods"].values()]
    assert fibers == [fibers[0]] * 3 and fibers[0]["connected"]


def _move_sets(tree):
    """Each route's basis, its first half, every third move, a single move
    and none, each distinct list once; a route that refuses the tree is
    left out."""
    out = {(): []}
    for route in (markov_basis_saturated, quad_lift_basis, perfect_context_basis):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                basis = list(route(tree))
        except UnbalancedError:
            continue
        for moves in (basis, basis[: len(basis) // 2], basis[::3], basis[:1]):
            out.setdefault(tuple(b.key() for b in moves), moves)
    return list(out.values())


# Exactness gate: the packed fiber sweep against the tuple sweep it replaced
# (tests/conftest.py), witnesses included.  Beyond the trees' bases,
# products of two basis moves take up to four outcomes, and a hand-built 0/1
# matrix with repeated columns and columns of unequal sums gives moves of
# one outcome, and moves whose sides differ in size, fibers to join; on a
# tree's matrix no two columns are equal, so a move of one outcome never
# stays in a fiber.
def test_packed_fibers_match_the_tuple_reference(chain):
    trees = [load(name) for name in TREE_FIXTURES]
    rng = random.Random(71)
    for p in (2, 2, 3, 3, 3, 4, 4, 4, 4, 4):
        trees.append(random_cstree(VariableSystem((2,) * p), rng))
    cases = [(exponent_matrix(tree), _move_sets(tree), 4) for tree in trees]
    basis = markov_basis_saturated(chain)
    products = [
        _Move(f.plus + g.plus, f.minus + g.minus)
        for f, g in itertools.combinations_with_replacement(basis, 2)
    ]
    cases.append((exponent_matrix(chain), [products, products[:1]], 5))
    a, b, c, d, e = ((i,) for i in range(5))
    hand = ExponentMatrix(
        ("r0", "r1"), (a, b, c, d, e), ((0,), (0,), (1,), (0, 1), (1,))
    )
    odd = [_Move((a, c), (b, c)), _Move((c, e), (e, e)), _Move((d,), (a, c))]
    cases.append((hand, [odd, odd[:2], odd[1:], odd[::2], []], 5))
    verdicts = set()
    for matrix, move_sets, bounds in cases:
        cache = {}
        for bound in range(bounds):
            for moves in move_sets:
                expected = _reference_fibers_connected(matrix, moves, bound, cache)
                assert fibers_connected(matrix, moves, bound=bound) == expected
                verdicts.add(expected.connected)
    assert verdicts == {True, False}


def test_packed_fibers_hold_counts_past_a_narrow_field(chain):
    # Bounds 8-12 pack four-bit fields, which two-bit fields would overflow;
    # the one-variable system packs 60 into six bits.
    matrix = exponent_matrix(chain)
    cache = {}
    for bound in range(8, 13):
        for moves in (markov_basis_saturated(chain), []):
            expected = _reference_fibers_connected(matrix, moves, bound, cache)
            assert fibers_connected(matrix, moves, bound=bound) == expected
    single = exponent_matrix(CStreeSpec(VariableSystem((2,)), ((),)))
    expected = _reference_fibers_connected(single, [], 60)
    assert fibers_connected(single, [], bound=60) == expected
    assert (expected.tables, expected.fibers) == (1891, 1891)
