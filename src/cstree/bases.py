"""Binomial generating sets for the toric ideal of a balanced tree.

Three routes: minors of saturated separation statements over the minimal
context graphs, the quadratic-plus-lift construction level by level, and the
saturated route after perfecting each graph.  All binomials live in the
plain outcome-coordinate ring.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from .csi import CsiStatement, is_saturated
from .errors import PreconditionError, UnbalancedError, UnbalancedWarning
from .graphs import saturated_statements, to_perfect
from .model import (
    Context,
    CStreeSpec,
    VariableSystem,
    format_outcome,
)
from .algebra import _compile, _minor_cells, is_balanced
from .contexts import minimal_contexts
from .poly import Monomial, SparsePoly


@dataclass(frozen=True)
class SaturatedBinomial:
    """p_{u1} p_{u2} - p_{v1} p_{v2} in canonical form.

    Within each pair the outcomes are sorted and the lex-smaller pair
    carries the plus sign.  ``source`` records how the binomial arose
    (``quad``, ``lift``, or ``sat``); ``context`` the statement's context
    for the saturated route.  Neither participates in deduplication.
    """

    plus: tuple
    minus: tuple
    source: str = "sat"
    context: Context | None = None

    def key(self) -> tuple:
        return (self.plus, self.minus)

    def to_poly(self) -> SparsePoly:
        return SparsePoly(
            {Monomial.of(*self.plus): 1, Monomial.of(*self.minus): -1}
        )

    def as_text(self) -> str:
        u1, u2 = self.plus
        v1, v2 = self.minus
        return (
            f"p{format_outcome(u1)}*p{format_outcome(u2)}"
            f" - p{format_outcome(v1)}*p{format_outcome(v2)}"
        )

    def __str__(self):
        return self.as_text()


def canonical_binomial(plus, minus, source="sat", context=None):
    """Build the canonical form, or None when the two pairs coincide."""
    plus = tuple(sorted(tuple(x) for x in plus))
    minus = tuple(sorted(tuple(x) for x in minus))
    if plus == minus:
        return None
    if minus < plus:
        plus, minus = minus, plus
    return SaturatedBinomial(plus, minus, source, context)


def statement_binomials(statement: CsiStatement, system: VariableSystem) -> tuple:
    """The minors of a saturated statement, which are pure binomials, one
    per minor.  Non-saturated statements are refused: their minors are not
    binomial.
    """
    if not is_saturated(statement, system):
        raise PreconditionError(f"statement {statement} is not saturated")
    # Saturated: every variable is pinned, so each cell is one outcome.
    # x_A < y_A and x_B < y_B put S1 below S2, S3 and S4 in lex order, so
    # (S1, S2) is sorted and carries the plus sign, and no minor is degenerate.
    cells = _minor_cells(statement, system, lambda axes: tuple(itertools.product(*axes)))
    return tuple(
        SaturatedBinomial((u1, u2), (v1, v2) if v1 < v2 else (v2, v1), "sat", statement.context)
        for (u1,), (u2,), (v1,), (v2,) in cells
    )


def _dedup(binomials) -> tuple:
    seen = set()
    out = []
    for binomial in binomials:
        if binomial and binomial.key() not in seen:
            seen.add(binomial.key())
            out.append(binomial)
    return tuple(out)


def _saturated_route(tree: CStreeSpec, transform, word: str) -> tuple:
    balanced, witness = is_balanced(tree)
    if not balanced:
        warnings.warn(
            UnbalancedWarning(
                f"tree is not balanced ({witness}); "
                f"the {word} binomials may not generate"
            )
        )
    out = []
    for cdag in minimal_contexts(tree):
        for statement in saturated_statements(transform(cdag.dag), cdag.context):
            out.extend(statement_binomials(statement, tree.system))
    return _dedup(out)


def markov_basis_saturated(tree: CStreeSpec) -> tuple:
    """Minors of every saturated separation statement of every minimal
    context graph.  An unbalanced tree gets a warning and the binomials
    anyway; they still lie in the kernel but need not generate it.
    """
    return _saturated_route(tree, lambda dag: dag, "saturated")


def perfect_context_basis(tree: CStreeSpec) -> tuple:
    """Same as the saturated route, but each context graph is first closed
    under directed moralization, enlarging parent sets until perfect."""
    return _saturated_route(tree, lambda dag: to_perfect(dag)[0], "perfected")


def quad_lift_basis(tree: CStreeSpec) -> tuple:
    """Kernel generators built level by level on the compiled stage ids.

    Quad: per stage of level k, the minors mixing two member vertices and
    two outcomes.  Lift: each generator of the levels before k, its minus
    pair aligned with the plus pair stage by stage, extended by every pair
    of level-k outcomes.  Unbalanced trees are refused, since the
    stage-wise grading the lift relies on breaks down.
    """
    balanced, witness = is_balanced(tree)
    if not balanced:
        raise UnbalancedError(f"tree is not balanced: {witness}")
    basis = ()
    compiled = _compile(tree)
    system = tree.system
    levels = zip(system.variables, system.cards, compiled.first, compiled.stages)
    for var, d, stage_id, stages in itertools.islice(levels, 1, None):
        produced = []
        for members in stages.values():
            for x, y in itertools.combinations(members, 2):
                for k1, k2 in itertools.combinations(range(d), 2):
                    produced.append(
                        canonical_binomial(
                            (x + (k1,), y + (k2,)),
                            (x + (k2,), y + (k1,)),
                            "quad",
                        )
                    )
        for g in basis:
            a, b = g.plus
            c1, c2 = g.minus
            s_a, s_b = stage_id[a], stage_id[b]
            s_c1, s_c2 = stage_id[c1], stage_id[c2]
            alignments = set()
            if s_a == s_c1 and s_b == s_c2:
                alignments.add((c1, c2))
            if s_a == s_c2 and s_b == s_c1:
                alignments.add((c2, c1))
            if not alignments:
                raise UnbalancedError(
                    f"no stage-aligned lift for {g.as_text()} at level {var}"
                )
            for m1, m2 in sorted(alignments):
                for z1 in range(d):
                    for z2 in range(d):
                        produced.append(
                            canonical_binomial(
                                (a + (z1,), b + (z2,)),
                                (m1 + (z1,), m2 + (z2,)),
                                "lift",
                            )
                        )
        basis = _dedup(produced)
    return basis


def basis_to_json(binomials) -> dict:
    return {
        "binomials": [
            {
                "plus": [format_outcome(u) for u in binomial.plus],
                "minus": [format_outcome(v) for v in binomial.minus],
                "source": binomial.source,
                "context": (
                    str(binomial.context) if binomial.context is not None else None
                ),
            }
            for binomial in binomials
        ]
    }


def basis_to_text(binomials) -> str:
    return "\n".join(binomial.as_text() for binomial in binomials) + "\n"
