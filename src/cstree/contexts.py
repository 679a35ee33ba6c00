"""Context-specific graphs: the stage-line rule and minimal-context detection."""

from __future__ import annotations

import itertools

from .csi import CsiStatement
from .errors import BadIndexError
from .graphs import ContextDag, Dag, saturated_statements
from .model import Context, CStreeSpec, VariableSystem
from .algebra import _compile, _integer_probabilities, statement_holds


def _line_parents(compiled, vec: tuple, j: int) -> int:
    """The stage-line rule for head j, pinned or free, in the slice ``vec``
    (per-position values, -1 where free) of a compiled tree: the mask of
    free i < j such that some vertex of j's layer agreeing with the slice's
    earlier pins has an i-line carrying two compiled stage ids.  A constant
    line means j ignores i there; a pinned position gets edges in but never
    out.  Read off the tree's ``lines`` bitsets: the pins select their
    vertices by one AND per pinned position."""
    varies, eq = compiled.lines[j]
    within = -1
    for k, x in enumerate(vec[:j]):
        if x >= 0:
            within &= eq[k][x]
    return sum(1 << i for i, x in enumerate(vec[:j]) if x < 0 and varies[i] & within)


def context_dag(tree: CStreeSpec, context=Context()) -> ContextDag:
    """The DAG over the unpinned variables read off the staging.

    An earlier unpinned variable i parents a later unpinned j when the
    stage-line rule (``_line_parents``, asked for the unpinned heads only)
    draws i -> j in the context's slice: the rule is kept as bitsets on the
    tree's compiled form, built at the first call.  This is the
    empty-context graph of ``context_subtree(tree, context)``.  An unknown
    variable, a value out of range, or a context pinning every variable
    raises BadIndexError.
    """
    ctx = Context.of(context)
    system = tree.system
    pinned = system.pinned(ctx)
    if len(pinned) == system.p:
        raise BadIndexError("cannot pin every variable")
    vec = tuple(pinned.get(pos, -1) for pos in range(system.p))
    free = [pos for pos, x in enumerate(vec) if x < 0]
    names = system.variables
    compiled = _compile(tree)
    edges = (
        (names[i], names[j]) for j in free for i in _bits(_line_parents(compiled, vec, j))
    )
    return ContextDag(ctx, Dag.of((names[pos] for pos in free), edges))


def _context_vectors(system: VariableSystem):
    """Every context on a proper subset of the variables as per-position
    values, -1 where free, ordered by size then lexicographically."""
    for size in range(system.p):
        for places in itertools.combinations(range(system.p), size):
            for vals in itertools.product(*(range(system.cards[i]) for i in places)):
                vec = [-1] * system.p
                for i, x in zip(places, vals):
                    vec[i] = x
                yield tuple(vec)


def _context(system: VariableSystem, vec: tuple) -> Context:
    """The context of a per-position value vector."""
    names = system.variables
    return Context(tuple((names[i], x) for i, x in enumerate(vec) if x >= 0))


def all_contexts(system: VariableSystem) -> tuple:
    """Every context on a proper subset of the variables, ordered by size
    then lexicographically."""
    return tuple(_context(system, vec) for vec in _context_vectors(system))


def _bits(mask: int):
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _inside(a: int, b: int, a0: int, b0: int) -> bool:
    """Whether the pair (A, B) sits inside (A0, B0) either way round."""
    return not (a & ~a0 or b & ~b0) or not (a & ~b0 or b & ~a0)


def _bicliques(adjacency, rest: int) -> list:
    """Every canonical pair (A, B) of disjoint nonempty position masks
    within ``rest`` whose cross pairs are all edges, largest first.

    ``adjacency[i]`` is the neighbor mask of position i, loop-free.
    Canonical means A holds the lowest position of A | B, as in
    ``CsiStatement.canonicalize``.  B ranges over the nonempty submasks of
    A's common neighbors above min(A); a common neighbor of A is never in A.
    """
    common = {0: rest}
    out = []
    for i in _bits(rest):
        for a, shared in list(common.items()):
            shared &= adjacency[i]
            if not shared:
                continue
            a |= 1 << i
            common[a] = shared
            low = a & -a
            above = shared & ~((low << 1) - 1)
            b = above
            while b:
                out.append((a, b))
                b = (b - 1) & above
    out.sort(key=lambda ab: -(ab[0].bit_count() + ab[1].bit_count()))
    return out


def _rank_one(table: dict, rows: int, cols: int) -> bool:
    """Whether every 2x2 minor of a table keyed (row, col) vanishes: pairs of
    rows, then pairs of columns, each in increasing order."""
    return all(
        table[r1, c1] * table[r2, c2] == table[r1, c2] * table[r2, c1]
        for r1, r2 in itertools.combinations(range(rows), 2)
        for c1, c2 in itertools.combinations(range(cols), 2)
    )


def _cube(vec: tuple, s: int) -> tuple:
    """The cube of a context and a conditioning mask S: the context vector
    with the positions of S marked -2.  A cube with no mark is a slice."""
    cube = list(vec)
    for i in _bits(s):
        cube[i] = -2
    return tuple(cube)


class _Oracle:
    """Exact validity of A _||_ B | S [C] on one tree, decided pair first.

    A _||_ B | S [C] has exactly the minors of the marginal independences
    A _||_ B in the slices C, S = x_S, and those minors are the 2x2 minors
    of the slice's A x B table: the outcomes agreeing with the slice, summed
    by (x_A, x_B).  At one exact point a nonzero minor refutes the
    statement.  In a slice, every variable pair (a, b) is screened at once:
    one pass over the slice's outcomes sums every pair's table, and a pair
    survives when its table has rank one.  Decomposition makes a refuted
    pair refute every (A, B) that contains it, so only the bicliques of the
    surviving pairs are ever decided, each once per slice.  The survivors
    of (C, S) are kept per cube: the AND, over the values of the lowest
    position of S, of the survivors of the cubes pinning it, so a sibling
    context's cubes and a wider S reuse what is already screened.

    A candidate is first tried on the slice's graph: the stage-line rule
    (``_line_parents``) with edges into pinned positions kept.  In the slice
    the outcome probability is a product of one factor per free position
    given its parents and one per pinned position given its parents, a
    Bayesian network whose pinned positions are observed sinks; so when A
    and B are d-separated given the pinned positions, A _||_ B holds at
    every parameter value and every minor vanishes identically.  The
    separation runs on parent masks (``_separated``).  What the graph
    cannot show (independence that is context-specific within the slice)
    is decided symbolically (``statement_holds``).  Either way the verdict
    on a candidate is exact.

    The point is ``_integer_probabilities``: ``random_point``'s outcome
    table times one positive integer, built in integers, so each minor is
    scaled by one positive constant and keeps its zero pattern.  Positions
    stand for variables and masks for sets; a context is a tuple of
    per-position values, -1 where free.
    """

    def __init__(self, tree: CStreeSpec):
        self.tree = tree
        self.system = system = tree.system
        self.compiled = _compile(tree)
        self.probs = _integer_probabilities(tree)
        self.p = system.p
        self._pairs = {}  # cube -> mask of surviving pairs, bit i*p + j both ways
        self._decided = {}  # (A, B, slice) -> verdict

    def _statement(self, a: int, b: int, vec: tuple) -> CsiStatement:
        """The marginal independence A _||_ B in a slice."""
        names = self.system.variables
        a, b = (frozenset(names[i] for i in _bits(part)) for part in (a, b))
        return CsiStatement(a, b, (), _context(self.system, vec))

    def pairs(self, cube: tuple) -> int:
        """The pairs of free positions that survive the point in every
        slice of a cube.  A slice is screened in one pass over its
        outcomes, which sums every pair's 2-way table, keyed (x_i, x_j)."""
        mask = self._pairs.get(cube)
        if mask is None:
            cards = self.system.cards
            if -2 in cube:
                i = cube.index(-2)
                mask = -1
                for x in range(cards[i]):
                    mask &= self.pairs(cube[:i] + (x,) + cube[i + 1 :])
            else:
                probs, p = self.probs, self.p
                free = [i for i, x in enumerate(cube) if x < 0]
                pairs = list(itertools.combinations(free, 2))
                tables = [{} for _ in pairs]
                axes = [range(d) if x < 0 else (x,) for x, d in zip(cube, cards)]
                for x in itertools.product(*axes):
                    w = probs[x]
                    for (i, j), table in zip(pairs, tables):
                        k = x[i], x[j]
                        table[k] = table.get(k, 0) + w
                mask = 0
                for (i, j), table in zip(pairs, tables):
                    if _rank_one(table, cards[i], cards[j]):
                        mask |= 1 << (i * p + j) | 1 << (j * p + i)
            self._pairs[cube] = mask
        return mask

    def slices(self, vec: tuple, s: int) -> list:
        """The slices C, S = x_S of a context, x_S in lex order."""
        places = list(_bits(s))
        out = []
        for xs in itertools.product(*(range(self.system.cards[i]) for i in places)):
            sliced = list(vec)
            for i, x in zip(places, xs):
                sliced[i] = x
            out.append(tuple(sliced))
        return out

    def candidates(self, cube: tuple, rest: int) -> list:
        """Canonical (A, B) within ``rest``, the free positions outside S,
        whose every cross pair survives in every slice of the cube,
        largest first."""
        graph = self.pairs(cube)
        if not graph:
            return []
        row = (1 << self.p) - 1
        adjacency = [(graph >> (i * self.p)) & row & rest for i in range(self.p)]
        return _bicliques(adjacency, rest)

    def _separated(self, a: int, b: int, vec: tuple) -> bool:
        """Whether the slice's graph d-separates A from B given the pinned
        positions Z: a proof that A _||_ B holds in the slice at every
        parameter value.  Parents come before their children, so one
        descending pass closes A | B | Z under parents; A then must not
        reach B in the moral graph of that closure without passing Z."""
        pinned = sum(1 << i for i, x in enumerate(vec) if x >= 0)
        closure = a | b | pinned
        parents = {}
        for j in range(self.p - 1, -1, -1):
            if closure >> j & 1:
                parents[j] = _line_parents(self.compiled, vec, j)
                closure |= parents[j]
        adjacency = [0] * self.p
        for j, mask in parents.items():
            adjacency[j] |= mask
            for i in _bits(mask):
                adjacency[i] |= mask & ~(1 << i) | 1 << j
        reached = frontier = a
        while frontier:
            step = 0
            for i in _bits(frontier):
                step |= adjacency[i]
            frontier = step & ~pinned & ~reached
            reached |= frontier
        return not reached & b

    def _independent(self, a: int, b: int, vec: tuple) -> bool:
        """A _||_ B in one slice, every cross pair having survived there."""
        key = (a, b, vec)
        verdict = self._decided.get(key)
        if verdict is None:
            verdict = self._separated(a, b, vec) or statement_holds(
                self.tree, self._statement(a, b, vec)
            )
            self._decided[key] = verdict
        return verdict

    def holds(self, a: int, b: int, s: int, vec: tuple) -> bool:
        """A _||_ B | S in the context: the AND over its slices."""
        p = self.p
        cross = 0
        for i in _bits(a):
            cross |= b << (i * p)
        return not cross & ~self.pairs(_cube(vec, s)) and all(
            self._independent(a, b, v) for v in self.slices(vec, s)
        )

    def tied(self, vec: tuple) -> bool:
        """Whether some statement valid in the context stays tied to it:
        un-pinning any one context variable into S breaks it.

        A statement absorbed by a variable has every sub-statement absorbed
        by it, so a candidate inside one already found absorbed is skipped,
        and the largest are tried first.  The slices of (C, S) are listed
        only once a candidate must be decided on them.
        """
        free = sum(1 << i for i, x in enumerate(vec) if x < 0)
        pinned = [i for i, x in enumerate(vec) if x >= 0]
        s = free
        while True:
            rest = free & ~s
            if rest.bit_count() >= 2:
                absorbed = []
                slices = None
                for a, b in self.candidates(_cube(vec, s), rest):
                    if any(_inside(a, b, a0, b0) for a0, b0 in absorbed):
                        continue
                    if slices is None:
                        slices = self.slices(vec, s)
                    if not all(self._independent(a, b, v) for v in slices):
                        continue
                    if not any(
                        self.holds(a, b, s | 1 << i, vec[:i] + (-1,) + vec[i + 1 :])
                        for i in pinned
                    ):
                        return True
                    absorbed.append((a, b))
            if not s:
                return False
            s = (s - 1) & free


def minimal_contexts(tree: CStreeSpec) -> tuple:
    """The contexts that carry irreducible independence, with their graphs.

    A context is kept when some statement valid in it stays tied to it:
    un-pinning any nonempty part T of the context, that is moving T into
    the conditioning set, breaks the statement.  The wider statement holds
    exactly when the statement holds in every sibling context re-pinning T,
    so it is enough to try each pinned variable alone: a T that absorbs
    makes each of its variables absorb.  The empty context always leads the
    list (a complete graph when no global statement holds).  Validity is
    decided by the semantic oracle, which tries only the statements whose
    variable pairs all survive its point screens (kept per (context, S)
    cube), and proves each by d-separation on its slices' graphs, as
    bitmasks, before it expands any minor; the graphs come from
    ``context_dag``.  Contexts leaving one variable free are never visited:
    they hold no pair to tie, and they come last in the order.
    The search runs once per compiled tree, which keeps its result, so the
    bases, ``contexts`` and the census share it.
    """
    compiled = _compile(tree)
    if compiled.minimal_contexts is None:
        compiled.minimal_contexts = _minimal_contexts(tree)
    return compiled.minimal_contexts


def _minimal_contexts(tree: CStreeSpec) -> tuple:
    """The search behind ``minimal_contexts``, uncached."""
    oracle = _Oracle(tree)
    kept = [context_dag(tree, Context())]
    vectors = itertools.islice(_context_vectors(tree.system), 1, None)
    for vec in itertools.takewhile(lambda vec: vec.count(-1) >= 2, vectors):
        if oracle.tied(vec):
            kept.append(context_dag(tree, _context(tree.system, vec)))
    return tuple(kept)


def separation_disagreements(tree: CStreeSpec, cdags) -> tuple:
    """Separation claims of context graphs that the model refutes.

    Each graph's saturated statements, read off its moral graph, are asked
    of ``statement_holds`` directly: the audit shares no screen and no memo
    with the minimal-context search it checks.  A sound graph produces
    nothing: every saturated statement it separates is true of the model.
    The reverse direction is not audited, since the staging genuinely
    carries more independence than any one graph shows.  Graphs of contexts
    pinning late variables can overclaim (conditioning on a later outcome
    reweights the earlier levels), which is exactly what this surfaces.  A
    claim naming a variable the tree lacks, or pinning a value out of
    range, raises BadIndexError.
    """
    return tuple(
        (cdag.context, statement)
        for cdag in cdags
        for statement in saturated_statements(cdag.dag, cdag.context)
        if not statement_holds(tree, statement)
    )
