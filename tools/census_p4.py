"""The full census of four variables as an exact gate.

Folds ``cstree.lab.census`` over every staging of the cards (2, 2, 2, 2),
or of another cards vector in ``PINNED`` given with ``--cards``, and pins
each count.  The tool itself counts the work of the minimal-context search
(``searched``: its ``statement_holds`` calls, those of them that return
False, and its ``_Oracle.by_candidates`` loops) and keeps a sha256 over
every tree's minimal contexts, one line per tree in enumeration order, of
each context's string and its graph's sorted edges, since the counts
alone let a search change move contexts unseen.

Usage: python3 tools/census_p4.py [--cards 3,2,2,2]

Prints the counts, the contexts digest and the time as one JSON object and
exits 1 unless every count and the digest equal their pinned values.
"""

import argparse
import hashlib
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cstree import VariableSystem, minimal_contexts  # noqa: E402
from cstree import contexts as contexts_module  # noqa: E402
from cstree.lab import census  # noqa: E402

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
            "unbalanced_perfected_with_nonvanishing": 220,
            "unbalanced_perfected_with_disconnected_fibers": 94,
            "unbalanced_perfected_passing_both": 1793,
            "search_symbolic_checks": 0,
            "search_symbolic_refutations": 0,
            "search_candidate_loops": 5176,
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
            "unbalanced_perfected_with_nonvanishing": 792,
            "unbalanced_perfected_with_disconnected_fibers": 2859,
            "unbalanced_perfected_passing_both": 11646,
            "search_symbolic_checks": 0,
            "search_symbolic_refutations": 0,
            "search_candidate_loops": 54202,
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
            "unbalanced_perfected_with_nonvanishing": 792,
            "unbalanced_perfected_with_disconnected_fibers": 2859,
            "unbalanced_perfected_passing_both": 11646,
            "search_symbolic_checks": 0,
            "search_symbolic_refutations": 0,
            "search_candidate_loops": 54202,
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
            "unbalanced_perfected_with_nonvanishing": 2040,
            "unbalanced_perfected_with_disconnected_fibers": 3262,
            "unbalanced_perfected_passing_both": 5469,
            "search_symbolic_checks": 0,
            "search_symbolic_refutations": 0,
            "search_candidate_loops": 33528,
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


def counted_census(cards: tuple) -> tuple:
    """The counts and the hex sha256 of the minimal contexts."""
    counts = dict.fromkeys(PINNED[cards][0], 0)
    digest = hashlib.sha256()
    for st in census(VariableSystem(cards)):
        # The search runs here, counted; every later fact reads its result.
        line = [(str(cd.context), cd.dag.sorted_edges()) for cd in searched(st.tree, counts)]
        digest.update(f"{line}\n".encode())
        nonvanishing = st.nonvanishing(st.saturated) > 0
        if st.balanced:
            counts["balanced_with_equal_bases"] += st.equal_bases
            counts["balanced_nonvanishing_quad_lift"] += st.nonvanishing(st.quad_lift)
        else:
            vanishing = st.nonvanishing(st.perfected) == 0
            connected = st.connected(st.perfected)
            counts["unbalanced_perfected_with_nonvanishing"] += not vanishing
            counts["unbalanced_perfected_with_disconnected_fibers"] += not connected
            counts["unbalanced_perfected_passing_both"] += vanishing and connected
        counts["trees"] += 1
        counts["balanced"] += st.balanced
        counts["all_graphs_perfect"] += st.all_perfect
        key = "balanced" if st.balanced else "unbalanced"
        counts[f"{key}_with_disagreements"] += st.disagrees
        counts[f"{key}_with_disconnected_fibers"] += not st.connected(st.saturated)
        counts["saturated_with_nonvanishing"] += nonvanishing
        counts["nonvanishing_apart_from_audit"] += nonvanishing != st.disagrees
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
    counts, contexts_sha256 = counted_census(cards)
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
