"""Binomial generating sets: saturated, quad-lift, and perfect routes."""

import json
import math
import random
import warnings
from collections import Counter

import pytest

from cstree import (
    BadIndexError,
    Context,
    PreconditionError,
    UnbalancedError,
    UnbalancedWarning,
    VariableSystem,
    basis_to_json,
    basis_to_text,
    canonical_binomial,
    load_spec,
    markov_basis_saturated,
    minimal_contexts,
    parse_statement,
    perfect_context_basis,
    quad_lift_basis,
    random_cstree,
    saturated_statements,
    statement_binomials,
    vanishes,
)

from conftest import fixture_path


def _texts(basis):
    return {b.as_text() for b in basis}


def _counts(basis):
    return Counter(b.source for b in basis)


def test_canonical_binomial_normalizes():
    b = canonical_binomial(((1, 0), (0, 1)), ((1, 1), (0, 0)))
    assert b.plus == ((0, 0), (1, 1))
    assert b.minus == ((0, 1), (1, 0))
    assert canonical_binomial(((0, 1), (1, 0)), ((1, 0), (0, 1))) is None
    assert str(b) == "p00*p11 - p01*p10"
    assert b.to_poly().terms != {}


def test_statement_binomials_chain(chain):
    st = parse_statement("1 _||_ 3 | 2")
    basis = statement_binomials(st, chain.system)
    assert _texts(basis) == {
        "p000*p101 - p001*p100",
        "p010*p111 - p011*p110",
    }
    with pytest.raises(PreconditionError):
        statement_binomials(parse_statement("1 _||_ 3"), chain.system)


def test_statement_binomials_reject_out_of_range_context(chain):
    # X3 has two outcomes; a binomial on (0, 0, 5) would not be an outcome.
    with pytest.raises(BadIndexError):
        statement_binomials(parse_statement("1 _||_ 2 [X3=5]"), chain.system)


def test_statement_binomials_are_canonical_one_per_minor():
    # The minors come with S1 below S2, S3 and S4 in lex order, so each is
    # already canonical and none is degenerate: one binomial per minor.
    names = ("fig1.json", "fig3.json", "fig4.json", "fig5_tree.json", "chain123.json")
    trees = [load_spec(fixture_path(name)) for name in names]
    rng = random.Random(31)
    for cards in ((2, 2, 2, 2), (3, 2, 2), (2, 3, 2, 2), (2, 2, 2, 2, 2)):
        trees += [random_cstree(VariableSystem(cards), rng) for _ in range(8)]
    minors = 0
    for tree in trees:
        system = tree.system

        def size(block):
            return math.prod(system.card(v) for v in block)

        for cdag in minimal_contexts(tree):
            for st in saturated_statements(cdag.dag, cdag.context):
                basis = statement_binomials(st, system)
                expected = math.comb(size(st.a), 2) * math.comb(size(st.b), 2) * size(st.s)
                assert len(basis) == expected, st
                for b in basis:
                    assert b == canonical_binomial(b.plus, b.minus, "sat", b.context), b
                minors += expected
    assert minors > 1000


def test_binomials_vanish_on_their_tree(chain, fig3):
    for tree in (chain, fig3):
        for b in markov_basis_saturated(tree):
            assert vanishes(tree, b.to_poly())
        for b in quad_lift_basis(tree):
            assert vanishes(tree, b.to_poly())


def test_chain_both_routes_agree(chain):
    sat = markov_basis_saturated(chain)
    quad = quad_lift_basis(chain)
    expected = {"p000*p101 - p001*p100", "p010*p111 - p011*p110"}
    assert _texts(sat) == expected
    assert _texts(quad) == expected
    assert {b.key() for b in sat} == {b.key() for b in quad}


def test_fig3_quad_lift_counts(fig3):
    basis = quad_lift_basis(fig3)
    assert len(basis) == 12
    assert _counts(basis) == {"quad": 4, "lift": 8}
    assert len({b.key() for b in basis}) == 12


def test_fig4_bases(fig4):
    quad = quad_lift_basis(fig4)
    assert len(quad) == 24
    assert _counts(quad) == {"quad": 8, "lift": 16}
    texts = _texts(quad)
    assert "p00000*p00011 - p00001*p00010" in texts
    assert "p00000*p00110 - p00010*p00100" in texts
    sat = markov_basis_saturated(fig4)
    assert len(sat) == 24
    for b in sat:
        assert b.context is not None
        assert vanishes(fig4, b.to_poly())


def test_fig4_textreading_variant_matches_counts():
    tree = load_spec(fixture_path("fig4_textreading.json"))
    basis = quad_lift_basis(tree)
    assert len(basis) == 24
    assert _counts(basis) == {"quad": 8, "lift": 16}


def test_unbalanced_tree_handling(fig1):
    with pytest.raises(UnbalancedError):
        quad_lift_basis(fig1)
    with pytest.warns(UnbalancedWarning):
        basis = markov_basis_saturated(fig1)
    assert basis  # proceeds despite the warning
    with pytest.warns(UnbalancedWarning):
        perfect_context_basis(fig1)


def test_perfect_route_extends_saturated(fig3):
    sat = {b.key() for b in markov_basis_saturated(fig3)}
    perfect = {b.key() for b in perfect_context_basis(fig3)}
    assert sat  # G_empty is not perfect, yet statements still exist
    assert perfect
    for b in perfect_context_basis(fig3):
        assert vanishes(fig3, b.to_poly())


def test_basis_serialization(chain):
    basis = markov_basis_saturated(chain)
    data = basis_to_json(basis)
    assert len(data["binomials"]) == 2
    entry = data["binomials"][0]
    assert set(entry) == {"plus", "minus", "source", "context"}
    assert entry["plus"] == ["000", "101"]
    assert entry["minus"] == ["001", "100"]
    text = basis_to_text(basis)
    assert "p000*p101 - p001*p100" in text
    assert text.strip().count("\n") == 1


def test_dedup_is_order_preserving(fig4):
    basis = quad_lift_basis(fig4)
    keys = [b.key() for b in basis]
    assert len(keys) == len(set(keys))
    again = quad_lift_basis(fig4)
    assert [b.key() for b in again] == keys
