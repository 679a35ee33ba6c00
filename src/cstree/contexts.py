"""Context-specific graphs: the stage-line rule and minimal-context detection."""

from __future__ import annotations

import functools
import itertools

from .csi import CsiStatement
from .errors import BadIndexError
from .graphs import ContextDag, Dag, saturated_statements
from .model import Context, CStreeSpec, VariableSystem
from .algebra import (
    _compile,
    outcome_probabilities,
    random_point,
    statement_holds,
    statement_zero_at,
)


def context_dag(tree: CStreeSpec, context=Context()) -> ContextDag:
    """The DAG over the unpinned variables read off the staging.

    An earlier unpinned variable i parents j when some pair of vertices of
    j's layer, agreeing with the context's earlier pins and differing only
    in coordinate i, has two different compiled stage ids; a constant line
    means j ignores i there.  This is the empty-context graph of
    ``context_subtree(tree, context)``, read off the tree's own compiled
    form.  An unknown variable, a value out of range, or a context pinning
    every variable raises BadIndexError.
    """
    ctx = Context.of(context)
    system = tree.system
    pinned = system.pinned(ctx)
    if len(pinned) == system.p:
        raise BadIndexError("cannot pin every variable")
    free = [pos for pos in range(system.p) if pos not in pinned]
    first = _compile(tree).first
    edges = set()
    for n, j in enumerate(free):
        ids = first[j]
        axes = [(pinned[k],) if k in pinned else range(system.cards[k]) for k in range(j)]
        for i in free[:n]:
            line = axes[:i] + [(0,)] + axes[i + 1 :]
            if any(
                ids[v[:i] + (x,) + v[i + 1 :]] != ids[v]
                for v in itertools.product(*line)
                for x in range(1, system.cards[i])
            ):
                edges.add((system.variables[i], system.variables[j]))
    return ContextDag(ctx, Dag.of((system.variables[pos] for pos in free), edges))


def all_contexts(system: VariableSystem) -> tuple:
    """Every context on a proper subset of the variables, ordered by size
    then lexicographically."""
    out = [Context()]
    for size in range(1, system.p):
        for vars_ in itertools.combinations(system.variables, size):
            for vals in itertools.product(*(range(system.card(v)) for v in vars_)):
                out.append(Context(tuple(zip(vars_, vals))))
    return tuple(out)


def _oracle(tree: CStreeSpec):
    """Memoized semantic validity of statements on one tree.

    The one question decided, and memoized by (A, B, context), is the
    marginal independence A _||_ B in a context: one exact rational point
    refutes it whenever some minor is nonzero there, and every survivor is
    confirmed by the symbolic vanishing check, so the verdict is never a
    guess.  ``holds(a, b, s, ctx)`` is the AND of these answers over x_S in
    lex order: A _||_ B | S [C] has exactly the minors of A _||_ B in the
    contexts C, S = x_S.
    """
    system = tree.system
    probs = outcome_probabilities(tree, random_point(tree))

    @functools.cache
    def independent(a, b, ctx: Context) -> bool:
        st = CsiStatement(a, b, frozenset(), ctx)
        return statement_zero_at(st, system, probs) and statement_holds(tree, st)

    def holds(a, b, s, ctx: Context) -> bool:
        s = sorted(s)
        return all(
            independent(a, b, Context.of(ctx.items + tuple(zip(s, xs))))
            for xs in itertools.product(*(range(system.card(v)) for v in s))
        )

    return holds


def _context_statements(system: VariableSystem, ctx: Context):
    """Candidate statements within one context, canonical pairs only.

    Unassigned free variables are marginalized out, so this ranges over
    every (A, B, S) choice, saturated or not.
    """
    free = [v for v in system.variables if ctx.get(v) is None]
    for split in itertools.product((0, 1, 2, 3), repeat=len(free)):
        a = frozenset(v for v, t in zip(free, split) if t == 0)
        b = frozenset(v for v, t in zip(free, split) if t == 1)
        if not a or not b or min(a) > min(b):
            continue
        s = frozenset(v for v, t in zip(free, split) if t == 2)
        yield CsiStatement(a, b, s, ctx)


def minimal_contexts(tree: CStreeSpec) -> tuple:
    """The contexts that carry irreducible independence, with their graphs.

    A context is kept when some statement valid in it stays tied to it:
    un-pinning any nonempty part T of the context, that is moving T into
    the conditioning set, breaks the statement.  The wider statement holds
    exactly when the statement holds in every sibling context re-pinning T,
    so it is enough to try each pinned variable alone: a T that absorbs
    makes each of its variables absorb.  The empty context always leads the
    list (a complete graph when no global statement holds).  Validity is
    decided by the semantic oracle; the graphs come from ``context_dag``.
    The search runs once per compiled tree, which keeps its result, so the
    bases, ``contexts`` and the census share it.
    """
    compiled = _compile(tree)
    if compiled.minimal_contexts is None:
        compiled.minimal_contexts = _minimal_contexts(tree)
    return compiled.minimal_contexts


def _minimal_contexts(tree: CStreeSpec) -> tuple:
    """The search behind ``minimal_contexts``, uncached."""
    holds = _oracle(tree)
    kept = [context_dag(tree, Context())]
    for ctx in all_contexts(tree.system)[1:]:
        for st in _context_statements(tree.system, ctx):
            if holds(st.a, st.b, st.s, ctx) and not any(
                holds(st.a, st.b, st.s | {v}, ctx.drop((v,))) for v in ctx.keys
            ):
                kept.append(context_dag(tree, ctx))
                break
    return tuple(kept)


def separation_disagreements(tree: CStreeSpec, cdags) -> tuple:
    """Separation claims of context graphs that the semantic oracle refutes.

    A sound graph produces nothing: every saturated statement it separates
    is true of the model.  The reverse direction is not audited, since the
    staging genuinely carries more independence than any one graph shows.
    Graphs of contexts pinning late variables can overclaim (conditioning
    on a later outcome reweights the earlier levels), which is exactly what
    this surfaces.
    """
    holds = _oracle(tree)
    out = []
    for cdag in cdags:
        for statement in saturated_statements(cdag.dag, cdag.context):
            if not holds(statement.a, statement.b, statement.s, statement.context):
                out.append((cdag.context, statement))
    return tuple(out)
