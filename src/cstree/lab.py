"""Exhaustive and randomized studies over small variable systems.

Enumeration walks every staging of a system level by level.  ``census``
yields each staging as a ``Staging`` whose facts (balance, perfect graphs,
the audit of the perfected graphs, the three bases and their checks) are
decided on first read, so a census pays only for the facts it counts.  The
three-variable report, the search for balanced trees with a non-perfect
graph and the four-variable census tool fold their counts from it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

from .errors import BudgetExceededError, GapError, NotP3Error, PreconditionError, UnbalancedWarning
from .graphs import ContextDag, Dag, is_perfect, to_perfect
from .model import (
    Context,
    CStreeSpec,
    Stage,
    VariableSystem,
    _resolve_level,
    spec_to_json,
    stage_members,
    tree_of_dag,
    validate,
)
from .algebra import _MAX_OUTCOMES, _nonvanishing, exponent_matrix, fibers_connected, is_balanced
from .bases import markov_basis_saturated, perfect_context_basis, quad_lift_basis
from .contexts import minimal_contexts, separation_disagreements


def _subsets(positions):
    for size in range(len(positions) + 1):
        yield from itertools.combinations(positions, size)


def _cylinders(system: VariableSystem, pos: int, uncovered, v):
    """The stages of layer ``pos`` with least member ``v`` (zero at every
    free position) and all members uncovered, with those members, in (size,
    lex) context order.  A candidate's members come from per-position axes;
    its context and stage are built only when it fits."""
    nonzero = {i for i in range(pos) if v[i]}
    full = [range(d) for d in system.cards[:pos]]
    for fixed in _subsets(tuple(range(pos))):
        if not nonzero.issubset(fixed):
            continue
        axes = list(full)
        for i in fixed:
            axes[i] = (v[i],)
        members = frozenset(itertools.product(*axes))
        if members <= uncovered:
            ctx = Context(tuple((system.variables[i], v[i]) for i in fixed))
            yield Stage(system.variables[pos], ctx), members


def _level_partitions(system: VariableSystem, pos: int):
    """All partitions of layer ``pos`` into context cylinders.

    Splits on the lex-smallest uncovered vertex, trying every admissible
    cylinder around it in turn, so each partition appears once and the
    order is deterministic.  One uncovered set and the chosen stages are
    changed in place and restored on the way back, and the next uncovered
    vertex is found by advancing an index, so a partition costs time linear
    in the layer's width.  The walk keeps its own stack, one entry per stage
    chosen so far, so no recursion limit bounds a partition's size.
    """
    layer = list(system.level_vertices(pos))
    uncovered = set(layer)
    chosen = []
    stack = [(0, _cylinders(system, pos, uncovered, layer[0]))]
    while stack:
        i, options = stack[-1]
        option = next(options, None)
        if option is None:
            stack.pop()
            if chosen:
                uncovered |= chosen.pop()[1]
            continue
        stage, members = option
        uncovered -= members
        if uncovered:
            chosen.append(option)
            while layer[i] not in uncovered:
                i += 1
            stack.append((i, _cylinders(system, pos, uncovered, layer[i])))
        else:
            yield (*(st for st, _ in chosen), stage)
            uncovered |= members


def validate_level_partition(system: VariableSystem, var: int, stages) -> tuple:
    """Check an explicit stage list partitions its layer.

    Raises Overlap on collisions, Gap on uncovered vertices, and the usual
    stage errors for bad stages; returns the resolved stages.
    """
    pos = system.position(var)
    resolved = _resolve_level(system, var, stages)
    covered = {m for st in resolved for m in stage_members(system, st)}
    missing = set(system.level_vertices(pos)) - covered
    if missing:
        raise GapError(f"layer {pos} vertices {sorted(missing)} are uncovered")
    return tuple(resolved)


def _partitions(system: VariableSystem, max_trees) -> list:
    """Every layer's partitions, drawn in turn under the budget.

    Raises BudgetExceededError as soon as the partitions drawn so far, times
    the earlier layers' counts, exceed ``max_trees``: no layer is drawn past
    the budget.  A negative budget raises PreconditionError, and a layer
    wider than the outcomes a tree may compile to raises
    BudgetExceededError, before any layer is drawn."""
    if max_trees is not None and max_trees < 0:
        raise PreconditionError(f"budget must be non-negative, got {max_trees}")
    widest = math.prod(system.cards[:-1])
    if widest > _MAX_OUTCOMES:
        raise BudgetExceededError(f"a layer of {widest} vertices, budget is {_MAX_OUTCOMES}")
    per_level = []
    total = 1
    for pos in range(system.p):
        parts = []
        for part in _level_partitions(system, pos):
            parts.append(part)
            if max_trees is not None and total * len(parts) > max_trees:
                raise BudgetExceededError(
                    f"at least {total * len(parts)} stagings, budget is {max_trees}"
                )
        per_level.append(parts)
        total *= len(parts)
    return per_level


def enumerate_cstrees(system: VariableSystem, max_trees=200_000):
    """Every staging of the system, validated, in deterministic order: the
    product of the layers' partitions, the last layer varying fastest.

    Refuses to start once the partition-count product exceeds the budget.
    """
    per_level = _partitions(system, max_trees)
    return (
        validate(CStreeSpec(system, levels)) for levels in itertools.product(*per_level)
    )


def count_cstrees(system: VariableSystem, max_trees=200_000) -> int:
    return math.prod(len(parts) for parts in _partitions(system, max_trees))


class Staging:
    """One staging of a census, each fact decided on its first read.

    The bases are built with ``UnbalancedWarning`` ignored; ``quad_lift``
    raises ``UnbalancedError`` on an unbalanced tree, as does
    ``equal_bases``.  Minimal contexts are read through
    ``minimal_contexts``, which keeps them on the compiled tree.
    """

    def __init__(self, tree: CStreeSpec):
        self.tree = tree

    @cached_property
    def balanced(self) -> bool:
        return is_balanced(self.tree)[0]

    @cached_property
    def all_perfect(self) -> bool:
        return all(is_perfect(cd.dag) for cd in minimal_contexts(self.tree))

    @cached_property
    def disagrees(self) -> bool:
        """Whether some perfected minimal-context graph claims a separation
        the model refutes."""
        cdags = minimal_contexts(self.tree)
        perfected = [ContextDag(cd.context, to_perfect(cd.dag)[0]) for cd in cdags]
        return bool(separation_disagreements(self.tree, perfected))

    def _basis(self, build) -> tuple:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnbalancedWarning)
            return build(self.tree)

    @cached_property
    def saturated(self) -> tuple:
        return self._basis(markov_basis_saturated)

    @cached_property
    def perfected(self) -> tuple:
        return self._basis(perfect_context_basis)

    @cached_property
    def quad_lift(self) -> tuple:
        return self._basis(quad_lift_basis)

    def connected(self, basis) -> bool:
        """Whether ``basis`` connects every fiber at bound 2."""
        return fibers_connected(exponent_matrix(self.tree), basis, bound=2).connected

    def nonvanishing(self, basis) -> int:
        """How many binomials of ``basis`` do not vanish on the model."""
        return sum(1 for _ in _nonvanishing(self.tree, basis))

    @property
    def equal_bases(self) -> bool:
        """Whether the three bases are one set of binomials."""
        keys = {b.key() for b in self.saturated}
        return keys == {b.key() for b in self.quad_lift} == {b.key() for b in self.perfected}


def census(system: VariableSystem, max_trees=200_000):
    """Every staging of the system as a ``Staging``, in enumeration order."""
    return map(Staging, enumerate_cstrees(system, max_trees))


def random_cstree(system: VariableSystem, rng) -> CStreeSpec:
    """One random staging: each layer is carved by repeatedly choosing a
    random admissible cylinder around its smallest uncovered vertex.  Not
    uniform, but every staging has positive probability."""
    levels = []
    for pos in range(system.p):
        layer = list(system.level_vertices(pos))
        uncovered = set(layer)
        stages = []
        i = 0
        while uncovered:
            while layer[i] not in uncovered:
                i += 1
            options = tuple(_cylinders(system, pos, uncovered, layer[i]))
            stage, members = options[rng.randrange(len(options))]
            uncovered -= members
            stages.append(stage)
        levels.append(tuple(stages))
    return validate(CStreeSpec(system, tuple(levels)))


def random_dag(vertices, rng, edge_prob=0.5) -> Dag:
    """A random order-respecting DAG; ``vertices`` may be a count or names."""
    if isinstance(vertices, int):
        vertices = tuple(range(1, vertices + 1))
    edges = {
        (u, v)
        for u, v in itertools.combinations(sorted(vertices), 2)
        if rng.random() < edge_prob
    }
    return Dag.of(vertices, edges)


@dataclass(frozen=True)
class Classification:
    """Which bucket a three-variable tree falls into.

    ``kind`` is ``dag_tree`` or ``family_1`` .. ``family_4``; DAG trees
    carry their graph, families the context variable and the pinned
    outcome set I.
    """

    kind: str
    dag: Dag | None = None
    variable: int | None = None
    outcomes: tuple = ()


_COLLIDER_EDGES = frozenset({(1, 3), (2, 3)})


def _family_tree(system: VariableSystem, collider: bool, var: int, outcomes) -> CStreeSpec:
    level2 = () if not collider else (Stage(2, Context()),)
    level3 = tuple(Stage(3, Context(((var, x),))) for x in sorted(outcomes))
    return validate(CStreeSpec(system, ((), level2, level3)))


def classify_p3(tree: CStreeSpec) -> Classification:
    """Sort a three-variable tree into the DAG bucket or one of the four
    one-variable-context families, verifying by reconstruction.

    Family 1: first level pooled, third staged by X2 = x for x in I.
    Family 2: the same with X1 as the context variable.
    Families 3 and 4: likewise, but with the first level fully split.
    """
    system = tree.system
    if system.p != 3 or system.variables != (1, 2, 3):
        raise NotP3Error(f"need variables (1, 2, 3), got {system.variables}")
    return _classify(tree, minimal_contexts(tree))


def _classify(tree: CStreeSpec, contexts) -> Classification:
    """``classify_p3`` given the tree's minimal contexts."""
    system = tree.system
    if len(contexts) == 1:
        graph = contexts[0].dag
        if tree == tree_of_dag(graph, system.cards):
            return Classification("dag_tree", dag=graph)
        raise NotP3Error(f"{spec_to_json(tree)} escapes every bucket")
    graph = contexts[0].dag
    complete = len(graph.edges) == 3
    collider = graph.edges == _COLLIDER_EDGES
    keys = {cd.context.keys for cd in contexts[1:]}
    if (complete or collider) and len(keys) == 1:
        (key,) = keys
        if len(key) == 1:
            var = key[0]
            outcomes = tuple(sorted(cd.context.get(var) for cd in contexts[1:]))
            if var in (1, 2) and tree == _family_tree(system, collider, var, outcomes):
                number = {
                    (False, 2): 1,
                    (False, 1): 2,
                    (True, 2): 3,
                    (True, 1): 4,
                }[(collider, var)]
                return Classification(
                    f"family_{number}", variable=var, outcomes=outcomes
                )
    raise NotP3Error(f"{spec_to_json(tree)} escapes every bucket")


@dataclass
class TheoremReport:
    """Census of a three-variable system.

    ``violations`` lists trees where balancedness and all-context-graphs-
    perfect disagree; the claim is that it stays empty.
    """

    total: int = 0
    balanced: int = 0
    perfect_contexts: int = 0
    histogram: dict = field(default_factory=dict)
    violations: tuple = ()

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "balanced": self.balanced,
            "perfect_contexts": self.perfect_contexts,
            "histogram": dict(sorted(self.histogram.items())),
            "violations": list(self.violations),
        }


def check_theorem_p3(cards=(2, 2, 2), max_trees=200_000) -> TheoremReport:
    """Exhaustively compare balancedness against perfectness of all minimal
    context graphs, and classify every tree, over one p = 3 system."""
    system = VariableSystem(tuple(cards))
    if system.p != 3:
        raise NotP3Error(f"need exactly three variables, got {system.p}")
    report = TheoremReport()
    for st in census(system, max_trees):
        report.total += 1
        report.balanced += st.balanced
        report.perfect_contexts += st.all_perfect
        if st.balanced != st.all_perfect:
            report.violations += (
                {
                    "tree": spec_to_json(st.tree),
                    "balanced": st.balanced,
                    "perfect_contexts": st.all_perfect,
                },
            )
        kind = _classify(st.tree, minimal_contexts(st.tree)).kind
        report.histogram[kind] = report.histogram.get(kind, 0) + 1
    return report


def find_nonperfect_balanced(system: VariableSystem, max_trees=200_000):
    """Balanced trees with some non-perfect minimal context graph.

    None exist on three variables, hence the precondition; on four or more
    this yields counterexamples to the tempting converse.
    """
    if system.p < 4:
        raise PreconditionError("needs at least four variables")
    yield from (st.tree for st in census(system, max_trees) if st.balanced and not st.all_perfect)
