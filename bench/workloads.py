"""The benchmark's workloads: seeded inputs, one op, its answer and its check.

Every workload builds the inputs of pass ``k`` from ``(seed, k, corpus)``
alone, so a pass can be repeated in a fresh interpreter.  The random trees
and DAGs come from ``(corpus, k)``; the seed orders their ops.  A run
cycles over the ``PASSES`` corpus passes of its workload, so every op is
timed several times.  The library receives only the generated inputs.
``run`` is the timed op; ``answer`` (recorded and compared between runs)
and ``check`` (an invariant that needs no record) run after the timed loop.

Per-op costs span three orders of magnitude with a heavy tail, so a run's
few hundred trees drawn afresh for each seed would make the run-to-run
spread of the latency metrics larger than any bound worth having; that is
why the seed does not redraw them.  ``--corpus`` draws another set of
inputs from the same laws, for trying a claim on inputs it was not tuned
on.  Shapes that set an op's cost are stratified inside each pass, and
each input still follows its stated law.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import random

import cstree
import cstree.cli


def _rng(*parts) -> random.Random:
    return random.Random("/".join(map(str, parts)))


def _stratified(rng: random.Random, m: int):
    """m draws of a uniform variable, one in each of m equal strata."""
    return [(j + rng.random()) / m for j in range(m)]


class Sweep:
    """Research sweep over random trees: balance, minimal contexts, and
    perfectness of every context graph, on one tree per op.

    The law of one tree is that of acceptance test 08's first loop: p
    uniform on 2..4, each cardinality 2 with probability 2/3 and 3
    otherwise, then ``random_cstree``.  A pass holds ``SIZE`` trees: a third
    per p, with the cardinality tuples stratified, in an order drawn from
    the seed.
    """

    SIZE = 120
    PASSES = 2

    @classmethod
    def build(cls, seed: int, index: int, corpus: int) -> list:
        rng = _rng("sweep", "corpus", corpus, index)
        shapes = []
        for p in (2, 3, 4):
            tuples = list(itertools.product((2, 3), repeat=p))
            cumulative = list(itertools.accumulate(2 ** t.count(2) for t in tuples))
            for u in _stratified(rng, cls.SIZE // 3):
                shapes.append(tuples[bisect.bisect(cumulative, u * cumulative[-1])])
        rng.shuffle(shapes)
        items = [
            (f"{index}.{i}", cstree.random_cstree(cstree.VariableSystem(cards), rng))
            for i, cards in enumerate(shapes)
        ]
        _rng("sweep", seed, index).shuffle(items)
        return items

    @staticmethod
    def run(tree):
        balanced, _ = cstree.is_balanced(tree)
        cdags = cstree.minimal_contexts(tree)
        return balanced, cdags, [cstree.is_perfect(cd.dag) for cd in cdags]

    @staticmethod
    def answer(tree, out):
        balanced, cdags, perfect = out
        return [
            balanced,
            [
                [str(cd.context), list(cd.dag.vertices), [list(e) for e in cd.dag.sorted_edges()], ok]
                for cd, ok in zip(cdags, perfect)
            ],
        ]

    @staticmethod
    def check(tree, out) -> bool:
        """Structure theorem: all context graphs perfect implies balanced."""
        balanced, _, perfect = out
        return balanced or not all(perfect)


class Balance:
    """One ``is_balanced`` call on a binary tree of a random DAG.

    A pass holds ``SIZE`` DAGs from ``random_dag``, a third on p=7 and two
    thirds on p=8.  For each p, half are replaced by their ``to_perfect``
    closure so both verdicts occur, and each of the four groups takes its
    ``edge_prob`` values one per stratum of [0, 1).  With equal shares the
    median op would fall in the gap between the p=7 and p=8 latencies and
    jump between them from corpus to corpus.  The seed orders the pass.
    """

    SIZE = 60
    PASSES = 1

    @classmethod
    def build(cls, seed: int, index: int, corpus: int) -> list:
        rng = _rng("balance", "corpus", corpus, index)
        plan = [
            (p, perfect, edge_prob)
            for p, share in ((7, 1), (8, 2))
            for perfect in (False, True)
            for edge_prob in _stratified(rng, cls.SIZE * share // 6)
        ]
        rng.shuffle(plan)
        items = []
        for i, (p, perfect, edge_prob) in enumerate(plan):
            dag = cstree.random_dag(p, rng, edge_prob=edge_prob)
            if perfect:
                dag, _ = cstree.to_perfect(dag)
            items.append((f"{index}.{i}", (dag, cstree.tree_of_dag(dag, (2,) * p))))
        _rng("balance", seed, index).shuffle(items)
        return items

    @staticmethod
    def run(item):
        return cstree.is_balanced(item[1])[0]

    @staticmethod
    def answer(item, out):
        return out

    @staticmethod
    def check(item, out) -> bool:
        """A DAG's tree is balanced exactly when the DAG is perfect."""
        return out == cstree.is_perfect(item[0])


_TREES = ("fig1", "fig3", "fig4", "fig4_textreading", "fig5_tree", "chain123")
_UNBALANCED = ("fig1",)


def cli_calls() -> list:
    """The 52 CLI calls on the shipped fixtures.

    ``verify`` on the unbalanced fig1 is left out: its quad-lift route
    refuses unbalanced trees, so ``--method all`` exits 1 there.
    """
    calls = []
    for name in _TREES:
        fixture = f"fixtures/{name}.json"
        calls += [
            ["validate", fixture],
            ["contexts", "--check-oracle", fixture],
            ["balance", "--witness", fixture],
            ["basis", "--method", "sat", fixture],
            ["basis", "--method", "perfect", fixture],
            ["subtree", "--context", "1=0", fixture],
        ]
        if name not in _UNBALANCED:
            calls += [
                ["basis", "--method", "quad-lift", fixture],
                ["verify", "--symbolic", "--fiber-bound", "3", fixture],
            ]
    calls += [
        ["moralize", "--iterate", "--index", str(i), "fixtures/fig5_dags.json"]
        for i in range(3)
    ]
    calls += [["enumerate", "--census", "--cards", c] for c in ("2,2,2", "2,2,3", "2,3,3")]
    return calls


class Cli:
    """In-process ``cstree.cli.main`` calls with stdout and stderr captured.

    The seed is passed as the CLI's ``--seed``, which draws the oracle's
    random points; cstree's answers are exact, so the record of a call holds
    for every seed.  The calls run in the listed order in every pass, run
    and corpus: several calls read each fixture, and the first of them fills
    the value-keyed caches the others hit, so an order drawn from the seed
    would move the per-call latencies from seed to seed.
    """

    PASSES = 1

    @staticmethod
    def build(seed: int, index: int, corpus: int) -> list:
        return [(" ".join(argv), ["--seed", str(seed)] + argv) for argv in cli_calls()]

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cstree.cli.main(argv)
        return code, out.getvalue()

    @staticmethod
    def answer(argv, out):
        return list(out)

    @staticmethod
    def check(argv, out) -> bool:
        """Exit 0 (done) or 2 (property violated); 1 is an error report."""
        return out[0] in (0, 2)


WORKLOADS = {"sweep": Sweep, "balance": Balance, "cli": Cli}
