"""Context-specific graphs: the stage-line rule and minimal-context detection."""

from __future__ import annotations

import itertools
import math

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


def _splits(rest: int):
    """Every canonical pair (A, B) of disjoint nonempty position masks
    within ``rest``: A holds the lowest position of A | B, as in
    ``CsiStatement.canonicalize``.  Each union U of two or more positions
    is split every way that leaves min(U) in A."""
    union = rest
    while union:
        above = union & (union - 1)
        b = above
        while b:
            yield union ^ b, b
            b = (b - 1) & above
        union = (union - 1) & rest


def _rank_one(rows: list) -> bool:
    """Whether every 2x2 minor of a table of positive entries, given as its
    rows, vanishes: checked on adjacent rows and adjacent columns only.
    With every entry positive, a vanishing minor on rows r, r' and columns
    c, c + 1 says r'[c] / r[c] = r'[c + 1] / r[c + 1], so adjacent rows are
    proportional, hence all rows are, and the table has rank one.  A zero
    entry breaks the argument: [[1, 0, 0], [0, 0, 1]] has no nonzero
    adjacent minor, yet rank two."""
    return all(
        r1[c] * r2[c + 1] == r1[c + 1] * r2[c]
        for r1, r2 in itertools.pairwise(rows)
        for c in range(len(r1) - 1)
    )


def _margins(cards: tuple, probs: dict) -> list:
    """The outcome table summed over every subset of positions: a flat list
    in mixed radix (c_0 + 1, ..., c_(p-1) + 1), first position most
    significant, where digit c_i at position i means summed over i.  Built
    one axis at a time, last first: each block of the axis's c_i slabs gets
    their sum appended as slab c_i."""
    flat = [probs[x] for x in itertools.product(*map(range, cards))]
    inner = 1
    for c in reversed(cards):
        block = c * inner
        out = []
        for o in range(0, len(flat), block):
            slabs = [flat[o + k * inner : o + (k + 1) * inner] for k in range(c)]
            out += flat[o : o + block]
            out += map(sum, zip(*slabs))
        flat = out
        inner *= c + 1
    return flat


def _cube(vec: tuple, s: int) -> tuple:
    """The cube of a context and a conditioning mask S: the context vector
    with the positions of S marked -2.  A cube with no mark is a slice."""
    cube = list(vec)
    for i in _bits(s):
        cube[i] = -2
    return tuple(cube)


def _cross(a: int, b: int, p: int) -> int:
    """The pair mask of the cross pairs of (A, B), bit i*p + j for i in A
    and j in B."""
    cross = 0
    for i in _bits(a):
        cross |= b << (i * p)
    return cross


class _Oracle:
    """Exact validity of A _||_ B | S [C] on one tree, decided pair first.

    A _||_ B | S [C] has exactly the minors of the marginal independences
    A _||_ B in the slices C, S = x_S, and those minors are the 2x2 minors
    of the slice's A x B table.  At one exact point a nonzero minor refutes
    the statement.  In a slice, every variable pair (a, b) is screened at
    once: it survives when its 2-way table, read off the margin cube
    (``_margins``), has rank one.  Decomposition makes a refuted pair refute
    every (A, B) that contains it.

    A surviving pair is then tried on the slice's graph: the stage-line
    rule (``_line_parents``) with edges into pinned positions kept.  In the
    slice the outcome probability is a product of one factor per position
    given its parents, a Bayesian network whose pinned positions are
    observed sinks; so when a and b are d-separated given the pinned
    positions (``_separated``), a _||_ b holds at every parameter value.
    Set d-separation is the AND of pairwise d-separation, so A _||_ B is
    proved in a slice when every cross pair is.

    Both pair masks, the survivors and the proven pairs, are kept per cube:
    the AND over the values of the lowest position of S of the cubes
    pinning it, so sibling contexts and a wider S reuse them.  A statement
    is decided on its cube (``holds``): a refuted cross pair refutes it, a
    cube proving every cross pair proves it, and what the graphs cannot
    show (independence that is context-specific within a slice) is decided
    symbolically (``statement_holds``), so every verdict is exact.  The
    masks only release a (C, S) (``released``); a context is kept only by
    the definition, statement by statement (``by_candidates``).

    The point is ``_integer_probabilities``: ``random_point``'s outcome
    table times one positive integer, so each minor keeps its zero pattern.
    Positions stand for variables and masks for sets; a context is a tuple
    of per-position values, -1 where free.
    """

    def __init__(self, tree: CStreeSpec):
        self.tree = tree
        self.system = system = tree.system
        self.compiled = _compile(tree)
        self.probs = _integer_probabilities(tree)
        self.p = system.p
        self.margins = _margins(system.cards, self.probs)
        self.strides = [math.prod(c + 1 for c in system.cards[i + 1 :]) for i in range(self.p)]
        self._pairs = {}  # cube -> mask of surviving pairs, bit i*p + j both ways
        self._proven = {}  # cube -> mask of the surviving pairs its slice graphs separate
        self._decided = {}  # (A, B, S, context) -> symbolic verdict

    def _statement(self, a: int, b: int, s: int, vec: tuple) -> CsiStatement:
        """The statement A _||_ B | S in a context."""
        names = self.system.variables
        a, b, s = (frozenset(names[i] for i in _bits(part)) for part in (a, b, s))
        return CsiStatement(a, b, s, _context(self.system, vec))

    def _masked(self, memo: dict, leaf, cube: tuple) -> int:
        """A cube's pair mask kept in ``memo``: ``leaf`` of a slice, the AND
        over the values of the lowest marked position of a cube."""
        mask = memo.get(cube)
        if mask is None:
            if -2 in cube:
                i = cube.index(-2)
                mask = -1
                for x in range(self.system.cards[i]):
                    mask &= self._masked(memo, leaf, cube[:i] + (x,) + cube[i + 1 :])
            else:
                mask = leaf(cube)
            memo[cube] = mask
        return mask

    def pairs(self, cube: tuple) -> int:
        """The pairs of free positions that survive the point in every
        slice of a cube."""
        return self._masked(self._pairs, self._screen, cube)

    def proven(self, cube: tuple) -> int:
        """The surviving pairs that every slice graph of a cube
        d-separates."""
        return self._masked(self._proven, self._prove, cube)

    def _screen(self, vec: tuple) -> int:
        """The pairs of a slice whose 2-way table has rank one, each table
        read off the margin cube: the slice's pins as digits, every other
        free position summed."""
        cards, strides, margins, p = self.system.cards, self.strides, self.margins, self.p
        free = [i for i, x in enumerate(vec) if x < 0]
        base = sum((c if x < 0 else x) * st for x, c, st in zip(vec, cards, strides))
        mask = 0
        for i, j in itertools.combinations(free, 2):
            si, sj, cj = strides[i], strides[j], cards[j]
            start = base - cards[i] * si - cj * sj
            rows = [margins[r : r + cj * sj : sj] for r in range(start, start + cards[i] * si, si)]
            if _rank_one(rows):
                mask |= 1 << (i * p + j) | 1 << (j * p + i)
        return mask

    def _prove(self, vec: tuple) -> int:
        """The surviving pairs of a slice that its graph d-separates."""
        p = self.p
        mask = 0
        for k in _bits(self.pairs(vec)):
            i, j = divmod(k, p)
            if i < j and self._separated(1 << i, 1 << j, vec):
                mask |= 1 << k | 1 << (j * p + i)
        return mask

    def _separated(self, a: int, b: int, vec: tuple) -> bool:
        """Whether the slice's graph d-separates A from B given the pinned
        positions Z: a proof that A _||_ B holds in the slice at every
        parameter value.  Parents come before their children, so one
        descending pass closes A | B | Z under parents; A then must not
        reach B in the moral graph of that closure without passing Z.  The
        walk need not stop at Z: a pinned position has free parents and no
        children in a slice graph, so its moral neighbours are its parents,
        married to each other, and the free position it was reached from
        already reaches every one of them."""
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
            frontier = step & ~reached
            reached |= frontier
        return not reached & b

    def holds(self, a: int, b: int, s: int, vec: tuple) -> bool:
        """A _||_ B | S in the context, decided on its cube: false when some
        cross pair is refuted in a slice (decomposition), true when every
        cross pair is proven in every slice (d-separation composes over
        pairs and slices), else by one symbolic check."""
        cross = _cross(a, b, self.p)
        cube = _cube(vec, s)
        if cross & ~self.pairs(cube):
            return False
        if not cross & ~self.proven(cube):
            return True
        key = (a, b, s, vec)
        if key not in self._decided:
            self._decided[key] = statement_holds(self.tree, self._statement(a, b, s, vec))
        return self._decided[key]

    def released(self, vec: tuple, s: int, rest: int, pinned: list) -> bool:
        """Whether the pair masks show that no statement of (C, S) within
        ``rest`` stays tied to C.  Let g be the pairs within ``rest`` that
        survive every slice of (C, S): every candidate's cross pairs lie in
        g.  None is tied when g is empty, or when some pinned i has all of g
        proven in the wider cube (C - i, S + i): every candidate holds
        there, d-separation composing over its cross pairs, so i releases
        it.  The pairs within ``rest`` are its cross pairs with itself: the
        diagonal bits this adds are never set in a pair mask."""
        cube = _cube(vec, s)
        g = self.pairs(cube) & _cross(rest, rest, self.p)
        return not g or any(
            not g & ~self.proven(cube[:i] + (-2,) + cube[i + 1 :]) for i in pinned
        )

    def by_candidates(self, vec: tuple, s: int, rest: int, pinned: list) -> bool:
        """Whether some statement of (C, S) within ``rest`` stays tied to C,
        by the definition: some canonical (A, B) holds in (C, S) while, for
        every pinned i, it fails in the wider (C - i, S + i), each decided
        on its cube by ``holds``."""
        return any(
            self.holds(a, b, s, vec)
            and not any(
                self.holds(a, b, s | 1 << i, vec[:i] + (-1,) + vec[i + 1 :]) for i in pinned
            )
            for a, b in _splits(rest)
        )

    def tied(self, vec: tuple) -> bool:
        """Whether some statement valid in the context stays tied to it:
        un-pinning any one context variable into S breaks it.  An S the pair
        masks do not release asks the candidates."""
        free = sum(1 << i for i, x in enumerate(vec) if x < 0)
        pinned = [i for i, x in enumerate(vec) if x >= 0]
        s = free
        while True:
            rest = free & ~s
            if rest.bit_count() >= 2 and not self.released(vec, s, rest, pinned):
                if self.by_candidates(vec, s, rest, pinned):
                    return True
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
    decided by the semantic oracle, which keeps two pair masks per
    (context, S) cube: the pairs that survive its point screens and those
    its slices' graphs d-separate.  The masks only release: S is skipped
    when no pair survives it, or when some pinned variable proves every
    surviving pair in the wider cube.  Every other S asks each statement in
    turn, and the context is kept only when one holds and no pinned
    variable releases it.  Each statement is decided on its cube: a refuted
    pair refutes it, a cube proving every cross pair proves it, and only
    the rest are decided on their minors' cell ids (``statement_holds``);
    the graphs come from ``context_dag``.
    Contexts leaving one variable free are never visited: they hold no
    pair to tie, and they come last in the order.  The search runs once per
    compiled tree, which keeps its result, so the bases, ``contexts`` and
    the census share it.
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
