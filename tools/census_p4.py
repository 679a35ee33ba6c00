"""The full census of four variables as an exact gate.

Every staging of the cards (2, 2, 2, 2), or of another cards vector given
with ``--cards``, goes through ``is_balanced``,
``minimal_contexts`` and ``is_perfect``, and each minimal-context graph is
perfected with ``to_perfect`` and audited with
``separation_disagreements``.  The saturated basis
(``markov_basis_saturated``) is swept with ``fibers_connected`` at bound 2.
The counts are the paper's structure theorems on p = 4: every tree whose
minimal-context graphs are all perfect is balanced, directed moralization
keeps every independence of a balanced tree, and the saturated basis of a
balanced tree connects its fibers, while on unbalanced trees the audit and
the fiber sweep can fail.  Each saturated binomial is also decided on its
outcomes' packed path keys (``algebra._nonvanishing``, the binomial case
of ``vanishes``): the trees whose saturated basis holds a binomial that
does not vanish are exactly the trees the audit flags (their symmetric
difference is counted), and on balanced trees the saturated, quad-lift
(``quad_lift_basis``) and perfected (``perfect_context_basis``) bases are
one set of binomials, none of the quad-lift ones failing to vanish.  The
census also counts the statements the minimal-context search expands
symbolically (``statement_holds`` calls made inside ``minimal_contexts``;
the audit's are not counted) and those of them that are false: every
other statement the search decides is refuted by a pair screen or proved
on its cube's slice graphs.  It counts too the (context, S) visits that
the search's pair masks do not release and that reach its candidate loop
(``_Oracle.by_candidates``).  The counts alone let a search change move
contexts unseen, so the census also pins a sha256 over every tree's
minimal contexts: one line per tree, in enumeration order, of each
context's string and its graph's sorted edges.

Usage: python3 tools/census_p4.py [--cards 3,2,2,2]

Each cards vector in ``PINNED`` has its own counts and digest; the
ternary censuses take five to ten times the binary one.  Prints the
counts, the contexts digest and the time as one JSON object and exits 1
unless every count and the digest equal their pinned values.
"""

import argparse
import hashlib
import json
import pathlib
import sys
import time
import warnings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cstree import contexts as contexts_module  # noqa: E402
from cstree import (  # noqa: E402
    ContextDag,
    UnbalancedWarning,
    VariableSystem,
    enumerate_cstrees,
    exponent_matrix,
    fibers_connected,
    is_balanced,
    is_perfect,
    markov_basis_saturated,
    minimal_contexts,
    perfect_context_basis,
    quad_lift_basis,
    separation_disagreements,
    to_perfect,
)
from cstree.algebra import _nonvanishing  # noqa: E402

PINNED = {
    (2, 2, 2, 2): (
        {
            "trees": 2464,
            "balanced": 357,
            "all_graphs_perfect": 353,
            "balanced_with_disagreements": 0,
            "unbalanced_with_disagreements": 220,
            "balanced_with_disconnected_fibers": 0,
            "unbalanced_with_disconnected_fibers": 84,
            "saturated_with_nonvanishing": 220,
            "nonvanishing_apart_from_audit": 0,
            "balanced_with_equal_bases": 357,
            "balanced_nonvanishing_quad_lift": 0,
            "search_symbolic_checks": 12,
            "search_symbolic_refutations": 0,
            "search_candidate_loops": 5184,
        },
        "06cccf6fdda557bbe669321223d7c5b0459c0c1e6161f8278fe14660786407d0",
    ),
    (3, 2, 2, 2): (
        {
            "trees": 16944,
            "balanced": 1803,
            "all_graphs_perfect": 1789,
            "balanced_with_disagreements": 0,
            "unbalanced_with_disagreements": 792,
            "balanced_with_disconnected_fibers": 0,
            "unbalanced_with_disconnected_fibers": 2848,
            "saturated_with_nonvanishing": 792,
            "nonvanishing_apart_from_audit": 0,
            "balanced_with_equal_bases": 1803,
            "balanced_nonvanishing_quad_lift": 0,
            "search_symbolic_checks": 42,
            "search_symbolic_refutations": 0,
            "search_candidate_loops": 54230,
        },
        "46186eae45cb96ff907eb10bba17129eee516547961d818c1013c94f96db4e03",
    ),
    (2, 3, 2, 2): (
        {
            "trees": 16944,
            "balanced": 1803,
            "all_graphs_perfect": 1789,
            "balanced_with_disagreements": 0,
            "unbalanced_with_disagreements": 792,
            "balanced_with_disconnected_fibers": 0,
            "unbalanced_with_disconnected_fibers": 2848,
            "saturated_with_nonvanishing": 792,
            "nonvanishing_apart_from_audit": 0,
            "balanced_with_equal_bases": 1803,
            "balanced_nonvanishing_quad_lift": 0,
            "search_symbolic_checks": 42,
            "search_symbolic_refutations": 0,
            "search_candidate_loops": 54230,
        },
        "158ddf14fc0c165823935958f8e7df8e65774f2c8e62bef0f726094c81765c6c",
    ),
    (2, 2, 3, 2): (
        {
            "trees": 11296,
            "balanced": 1029,
            "all_graphs_perfect": 1025,
            "balanced_with_disagreements": 0,
            "unbalanced_with_disagreements": 2040,
            "balanced_with_disconnected_fibers": 0,
            "unbalanced_with_disconnected_fibers": 3250,
            "saturated_with_nonvanishing": 2040,
            "nonvanishing_apart_from_audit": 0,
            "balanced_with_equal_bases": 1029,
            "balanced_nonvanishing_quad_lift": 0,
            "search_symbolic_checks": 12,
            "search_symbolic_refutations": 0,
            "search_candidate_loops": 33536,
        },
        "3ca96c534b98e7609ab7aed6ffb4933eb642e737ed425ee0dd9fdde5a9d6db1a",
    ),
}


def searched(tree, counts: dict) -> tuple:
    """``minimal_contexts(tree)``, counting the ``statement_holds`` calls
    the search makes, those of them that return False, and its candidate
    loops."""
    holds = contexts_module.statement_holds
    loop = contexts_module._Oracle.by_candidates

    def counted(*args):
        counts["search_symbolic_checks"] += 1
        verdict = holds(*args)
        counts["search_symbolic_refutations"] += not verdict
        return verdict

    def counted_loop(*args):
        counts["search_candidate_loops"] += 1
        return loop(*args)

    contexts_module.statement_holds = counted
    contexts_module._Oracle.by_candidates = counted_loop
    try:
        return minimal_contexts(tree)
    finally:
        contexts_module.statement_holds = holds
        contexts_module._Oracle.by_candidates = loop


def census(cards: tuple) -> tuple:
    """The counts and the hex sha256 of the minimal contexts."""
    counts = dict.fromkeys(PINNED[cards][0], 0)
    digest = hashlib.sha256()
    for tree in enumerate_cstrees(VariableSystem(cards)):
        balanced, _ = is_balanced(tree)
        cdags = searched(tree, counts)
        line = [(str(cd.context), cd.dag.sorted_edges()) for cd in cdags]
        digest.update(f"{line}\n".encode())
        perfected = [ContextDag(cd.context, to_perfect(cd.dag)[0]) for cd in cdags]
        disagrees = bool(separation_disagreements(tree, perfected))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnbalancedWarning)
            basis = markov_basis_saturated(tree)
        fibers = fibers_connected(exponent_matrix(tree), basis, bound=2)
        nonvanishing = next(_nonvanishing(tree, basis), None) is not None
        if balanced:
            quad = quad_lift_basis(tree)
            keys = {b.key() for b in basis}
            counts["balanced_with_equal_bases"] += (
                keys == {b.key() for b in quad}
                and keys == {b.key() for b in perfect_context_basis(tree)}
            )
            counts["balanced_nonvanishing_quad_lift"] += sum(
                1 for _ in _nonvanishing(tree, quad)
            )
        counts["trees"] += 1
        counts["balanced"] += balanced
        counts["all_graphs_perfect"] += all(is_perfect(cd.dag) for cd in cdags)
        key = "balanced" if balanced else "unbalanced"
        counts[f"{key}_with_disagreements"] += disagrees
        counts[f"{key}_with_disconnected_fibers"] += not fibers.connected
        counts["saturated_with_nonvanishing"] += nonvanishing
        counts["nonvanishing_apart_from_audit"] += nonvanishing != disagrees
    return counts, digest.hexdigest()


def _cards(text: str) -> tuple:
    cards = tuple(int(c) for c in text.split(","))
    if cards not in PINNED:
        raise argparse.ArgumentTypeError(
            "pinned cards: " + ", ".join(",".join(map(str, k)) for k in PINNED)
        )
    return cards


def main() -> int:
    parser = argparse.ArgumentParser(description="The full census of four variables.")
    parser.add_argument("--cards", type=_cards, default=(2, 2, 2, 2))
    cards = parser.parse_args().cards
    expected, expected_sha256 = PINNED[cards]
    start = time.perf_counter()
    counts, contexts_sha256 = census(cards)
    elapsed = time.perf_counter() - start
    wrong = {k: (v, expected[k]) for k, v in counts.items() if v != expected[k]}
    if contexts_sha256 != expected_sha256:
        wrong["contexts_sha256"] = (contexts_sha256, expected_sha256)
    print(
        json.dumps(
            {
                "cards": list(cards),
                "counts": counts,
                "contexts_sha256": contexts_sha256,
                "seconds": round(elapsed, 2),
                "ok": not wrong,
            }
        )
    )
    for key, (got, want) in wrong.items():
        print(f"{key}: got {got}, expected {want}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
