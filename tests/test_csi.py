"""Statement plumbing plus soundness of the inference rules.

The soundness tests work against the semantic oracle: collect every valid
statement of a small tree by exact vanishing, fire each rule wherever its
shape matches, and insist the conclusion is valid again.
"""

import itertools
import random

import pytest

from cstree import (
    Context,
    CsiStatement,
    IncompleteFamilyError,
    OverlappingSetsError,
    ShapeMismatchError,
    VariableSystem,
    absorption,
    all_contexts,
    apply_axiom,
    contraction,
    cstree_rule,
    decomposition,
    intersection,
    is_saturated,
    parse_statement,
    random_cstree,
    specialization,
    statement_holds,
    symmetry,
    weak_union,
)

from conftest import load


def _candidates(system, ctx):
    free = [v for v in system.variables if ctx.get(v) is None]
    for split in itertools.product((0, 1, 2, 3), repeat=len(free)):
        a = frozenset(v for v, t in zip(free, split) if t == 0)
        b = frozenset(v for v, t in zip(free, split) if t == 1)
        if not a or not b or min(a) > min(b):
            continue
        s = frozenset(v for v, t in zip(free, split) if t == 2)
        yield CsiStatement(a, b, s, ctx)


def _valid_statements(tree):
    out = set()
    for ctx in all_contexts(tree.system):
        for st in _candidates(tree.system, ctx):
            if statement_holds(tree, st):
                out.add(st)
    return out


def _small_trees():
    rng = random.Random(19)
    trees = [load("fig1.json"), load("chain123.json")]
    for _ in range(3):
        trees.append(random_cstree(VariableSystem((2, 2, 2)), rng))
    return trees


def test_statement_shape_checks():
    with pytest.raises(ShapeMismatchError):
        CsiStatement(frozenset(), frozenset({2}))
    with pytest.raises(OverlappingSetsError):
        CsiStatement(frozenset({1}), frozenset({1, 2}))
    with pytest.raises(OverlappingSetsError):
        CsiStatement(frozenset({1}), frozenset({2}), frozenset(), Context.of({2: 0}))


def test_canonicalize_orders_blocks():
    st = CsiStatement(frozenset({3}), frozenset({1}))
    assert st.canonicalize().a == frozenset({1})
    assert st.canonicalize().canonicalize() == st.canonicalize()


def test_is_saturated():
    system = VariableSystem((2, 2, 2))
    st = parse_statement("1 _||_ 3 | 2")
    assert is_saturated(st, system)
    assert not is_saturated(parse_statement("1 _||_ 3"), system)


def test_format_parse_round_trip():
    texts = [
        "1 _||_ 2",
        "1 _||_ 3 | 2",
        "3 _||_ 1 | 2 [X2=0]",
        "4 _||_ 2,3 | 1 [X1=1]",
        "2,5 _||_ 3 | 1,4 [X1=0,X4=1]",
    ]
    for text in texts:
        st = parse_statement(text)
        assert parse_statement(str(st)) == st
    rng = random.Random(5)
    for _ in range(100):
        verts = rng.sample(range(1, 9), rng.randint(2, 6))
        rng.shuffle(verts)
        a = frozenset(verts[:1])
        b = frozenset(verts[1:2])
        rest = verts[2:]
        s = frozenset(rest[: len(rest) // 2])
        ctx = Context.of({v: rng.randint(0, 2) for v in rest[len(rest) // 2 :]})
        st = CsiStatement(a, b, s, ctx).canonicalize()
        assert parse_statement(str(st)) == st


def test_parse_rejects_junk():
    for text in ("1 independent 2", "1 _||_ 2 [X2]", "_||_ 2", "1 _||_ 2 | x"):
        with pytest.raises(ShapeMismatchError):
            parse_statement(text)


def test_symmetry_round_trip():
    st = parse_statement("1 _||_ 3 | 2 [X4=0]")
    assert symmetry(symmetry(st)) == st


def test_rule_shape_rejections():
    st = parse_statement("1 _||_ 2,3")
    with pytest.raises(ShapeMismatchError):
        decomposition(st, {2, 3})
    with pytest.raises(ShapeMismatchError):
        weak_union(st, set())
    with pytest.raises(ShapeMismatchError):
        specialization(st, {2: 0})
    with pytest.raises(ShapeMismatchError):
        contraction(st, parse_statement("2 _||_ 3"))
    with pytest.raises(ShapeMismatchError):
        apply_axiom("no-such-rule", st)


def test_absorption_requires_complete_family():
    system = VariableSystem((2, 2, 2))
    family = [parse_statement("1 _||_ 3 [X2=0]")]
    with pytest.raises(IncompleteFamilyError):
        absorption(family, {2}, system)
    family.append(parse_statement("1 _||_ 3 [X2=1]"))
    merged = absorption(family, {2}, system)
    assert merged == parse_statement("1 _||_ 3 | 2")


def test_specialization_then_absorption_is_identity():
    system = VariableSystem((2, 3, 2))
    st = parse_statement("1 _||_ 3 | 2")
    family = [specialization(st, {2: x}) for x in range(3)]
    assert absorption(family, {2}, system) == st


def test_unary_rules_sound():
    for tree in _small_trees():
        valid = _valid_statements(tree)
        for st in valid:
            for size in range(1, len(st.b)):
                for drop in itertools.combinations(sorted(st.b), size):
                    assert decomposition(st, drop).canonicalize() in valid
                    assert weak_union(st, drop).canonicalize() in valid
            for size in range(1, len(st.s) + 1):
                for t in itertools.combinations(sorted(st.s), size):
                    for vals in itertools.product(
                        *(range(tree.system.card(v)) for v in t)
                    ):
                        narrowed = specialization(st, dict(zip(t, vals)))
                        assert narrowed.canonicalize() in valid


def test_binary_rules_sound():
    for tree in _small_trees():
        valid = _valid_statements(tree)
        by_context = {}
        for st in valid:
            for oriented in (st, symmetry(st)):
                by_context.setdefault((oriented.a, oriented.context), []).append(
                    oriented
                )
        for group in by_context.values():
            for st1, st2 in itertools.permutations(group, 2):
                if st2.b <= st1.s and st2.s == st1.s - st2.b:
                    assert contraction(st1, st2).canonicalize() in valid
                if st2.b <= st1.s and st2.s == st1.b | (st1.s - st2.b):
                    assert intersection(st1, st2).canonicalize() in valid


def test_absorption_sound():
    for tree in _small_trees():
        system = tree.system
        valid = _valid_statements(tree)
        for st in valid:
            keys = st.context.keys
            for size in range(1, len(keys) + 1):
                for t in itertools.combinations(keys, size):
                    family = []
                    for vals in itertools.product(
                        *(range(system.card(v)) for v in t)
                    ):
                        member = CsiStatement(
                            st.a,
                            st.b,
                            st.s,
                            st.context.drop(t).merge(dict(zip(t, vals))),
                        )
                        if member not in valid:
                            family = None
                            break
                        family.append(member)
                    if family:
                        assert absorption(family, t, system).canonicalize() in valid


def test_combination_rule_sound():
    for tree in _small_trees():
        system = tree.system
        valid = _valid_statements(tree)
        pinned = [st for st in valid if not st.s]
        for st1, st2 in itertools.permutations(pinned, 2):
            try:
                merged = cstree_rule(st1, st2, system)
            except ShapeMismatchError:
                continue
            assert merged.canonicalize() in valid


def test_combination_rule_example():
    st1 = parse_statement("3 _||_ 1 [X2=0]")
    st2 = parse_statement("3 _||_ 2 [X1=0]")
    merged = cstree_rule(st1, st2)
    assert merged.canonicalize() == parse_statement("3 _||_ 1,2")


def test_apply_axiom_dispatches_the_cstree_rule():
    st1 = parse_statement("3 _||_ 1 [X2=0]")
    st2 = parse_statement("3 _||_ 2 [X1=0]")
    assert apply_axiom("cstree-rule", st1, st2) == cstree_rule(st1, st2)
