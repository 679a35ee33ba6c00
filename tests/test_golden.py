"""Golden orders: random trees, label order, random points, minimal
contexts and bases.

Each case hashes a canonical JSON dump, so any change in a draw, in the
label order, in the order a parameter point is filled, in the minimal
contexts and their graphs, or in the binomials a basis route emits shows
up here, not only in the benchmark's records.
"""

import hashlib
import json
import random
import warnings

import pytest

from cstree import (
    CStreeError,
    VariableSystem,
    basis_to_json,
    markov_basis_saturated,
    minimal_contexts,
    perfect_context_basis,
    quad_lift_basis,
    random_cstree,
    random_point,
    spec_to_json,
    tree_labels,
)

from conftest import load


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


RANDOM_TREES = {
    (2, 2, 2): "35b9b6fb47e098181b3a3bb93bc7d91fc3fe95d93b6536d0d67c9626079a35a2",
    (3, 2, 2): "287a8a116acd700ffbd0dfb97882017bdb415a3475cbeef8731f1f9d4f1250cb",
    (2, 2, 2, 2): "493c3af72c9f5f3af3395584a27094001766dcaf4742c9fc8de038be0ed9ecf8",
    (2, 3, 2, 2): "0b6d7b09bd0bc1f860428d31e8de22e56f244a448f95cda645a461859022b772",
}


def _random_trees(cards):
    rng = random.Random(11)
    return [random_cstree(VariableSystem(cards), rng) for _ in range(40)]


@pytest.mark.parametrize("cards", sorted(RANDOM_TREES))
def test_random_trees_labels_and_points(cards):
    dump = []
    for tree in _random_trees(cards):
        dump.append(
            {
                "tree": spec_to_json(tree),
                "labels": [str(label) for label in tree_labels(tree)],
                "point": [
                    [str(label), str(value)]
                    for label, value in random_point(tree, 3).items()
                ],
            }
        )
    assert _sha(dump) == RANDOM_TREES[cards]


MINIMAL_CONTEXTS = {
    (2, 2, 2): "833148fed9a34d579efdd53660cf4e0c153c699ba48577cce840974cbeeceeba",
    (3, 2, 2): "38338a746be99f1c044818f32e5d982f13dd41e711637c74f4b22a45abd295a9",
    (2, 2, 2, 2): "8b3b56c53924af299f6aba78694d0624033a2692f649d709cd0cd0128c7dbc20",
    (2, 3, 2, 2): "2d23c2469f4e35aa725e419e721959f5650b40d8bae1b936f6e98ddf76ee12cc",
}


@pytest.mark.parametrize("cards", sorted(MINIMAL_CONTEXTS))
def test_minimal_contexts_of_random_trees(cards):
    dump = [
        [
            [str(cd.context), list(cd.dag.vertices), [list(e) for e in cd.dag.sorted_edges()]]
            for cd in minimal_contexts(tree)
        ]
        for tree in _random_trees(cards)
    ]
    assert _sha(dump) == MINIMAL_CONTEXTS[cards]


ROUTES = {
    "sat": markov_basis_saturated,
    "quad-lift": quad_lift_basis,
    "perfect": perfect_context_basis,
}

BASES = {
    "fig1.json": "4ceeac122ecc1dcfb826a3c684d527901d7a8f520b6fe5b8c551f6fa2e265c45",
    "fig3.json": "6f2839d8a3dc334a7dfcd7e616a2b0552e5abc94d595d8f04d138a307ba03658",
    "fig4.json": "c3b71a366427cf10a4205404d1371bd215c51e875487262ee1a452d2f8cb8699",
    "fig4_textreading.json": "ea89a859b90045e521521188cf6decac8244b2c680563c6966227fe453cfccb2",
    "fig5_tree.json": "cad85e10dd21652a9f816bb5a6de0c4a9288fafd36c6fbf97a00d060f588bcf7",
    "chain123.json": "be63a5917da7525c27c6f86010b4e2fb39c8239166da838a5471d575b5097ae5",
}


@pytest.mark.parametrize("name", sorted(BASES))
def test_basis_routes_on_fixtures(name):
    tree = load(name)
    dump = {}
    for route, build in ROUTES.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                dump[route] = basis_to_json(build(tree))
            except CStreeError as exc:
                dump[route] = type(exc).__name__
    assert _sha(dump) == BASES[name]
