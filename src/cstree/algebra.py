"""Edge labels, interpolating polynomials, balance, and vanishing checks.

A tree's monomial parametrization sends each outcome coordinate p_x to the
product of edge labels along the root-to-leaf path of x.  Each validated
tree is compiled once (``_compile``, the module's single tree-keyed cache)
into integer form, in one pass over its layers: label ids in
``tree_labels`` order, each vertex's first label id, each stage's member
vertices, each outcome's path-label ids, and polynomials as
``dict[int, int]`` keyed by packed monomials, one ``_WIDTH``-bit exponent
field per label id (label i's exponent sits at bit ``_WIDTH * i``), so a
product of monomials is the sum of their keys.  Everything else the
compiled form holds is derived on first read (cached properties): each
outcome's packed path monomial (``keys``), the default ``is_balanced``
verdict (``balance``), the stage-line bitsets (``lines``, built in time
linear in each layer: closed forms for the value masks and each vertex's
stage pins for the lines that vary), the mask of the positions the
minimal-context search never pins (``symmetric``), and three tables.
One slot remains, filled from outside: the tree's minimal contexts, which
``contexts.minimal_contexts`` fills on its first search.  The tables:

- the factor ids (``factors``), per vertex the ids of the irreducible
  factors of its interpolant, the sum of its below-path label products in
  the plain label ring: balance compares multisets of ids, so no
  interpolant is built or multiplied to decide it, and ``interpolant``
  expands one vertex from its outcomes' paths on request;
- the eliminated image E(x) of every outcome: its path product with each
  stage's last label replaced by one minus the stage's other labels, the
  sum-to-one relations taken into account (vanishing);
- the cell ids (``cells``), filled on demand by ``cell``: per cell of a
  statement's minors, the ids of the irreducible factors of its marginal
  M(S) = Σ_{x∈S} E(x) in the eliminated ring.

E sends every label to a linear form, the label itself or one minus its
stage's other labels; these are irreducible and pairwise non-associate, so
by unique factorization E(m1) = c·E(m2) only when the label monomials m1
and m2 are equal.  A binomial p_u1·p_u2 - p_v1·p_v2 thus vanishes on the
model exactly when key(u1) + key(u2) == key(v1) + key(v2), the move test
of the fiber sweep.  ``vanishes`` collapses a polynomial's terms by path
monomial first and decides zero, one or two survivors at once; only three
or more are mapped to Σ c·Π E(x) and expanded.  The images are
multilinear, so the product of two of them has exponents of at most 2,
which a field holds; a product of d images has exponents up to d, so
``vanishes`` widens the fields to fit the polynomial's degree when the
tables' width is too narrow.  ``statement_holds`` decides every statement
on cell ids: a minor M(S1)·M(S2) - M(S3)·M(S4) vanishes exactly when the
multisets of its two sides' ids agree, the test balance runs on vertex
ids, so no marginal is built or multiplied and the verdict stays exact and
symbolic.  ``statement_zero_at`` evaluates the minors at one point
instead: the reference screen.  The library itself evaluates only at
``_integer_probabilities``, the outcome table of ``random_point`` times
one positive integer: the minimal-context search screens at seed 0, and
``verify``'s random vanishing at the seeds it draws.  ``SparsePoly`` and
``Monomial`` remain the public types; results are converted at the API
edge.

The fiber sweep (``fibers_connected``) packs too: a table over the outcomes
and its marginal over the labels are each one int, with one
``bound.bit_length()``-bit field per outcome or label and the first most
significant, so int order is tuple-lex order.  Each call enumerates its
tables, and their marginals, from ``combinations_with_replacement`` sums in
C; a move whose two sides' packed marginals are equal joins two tables one
addition apart, and only a witness is unpacked.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .csi import CsiStatement
from .errors import (
    BadIndexError,
    BoundTooLargeError,
    BudgetExceededError,
    NotSameStageError,
    PreconditionError,
    ShapeMismatchError,
)
from .model import (
    Context,
    CStreeSpec,
    Stage,
    VariableSystem,
    level_stage_map,
)
from .poly import Monomial, SparsePoly


@dataclass(frozen=True, order=True)
class EdgeLabel:
    """Symbolic parameter for one stage/outcome pair.

    Two edges share a label exactly when their source vertices share a
    stage and they emit the same outcome; the stage is carried by its
    defining context, so listed and implicit singleton stages coincide.
    """

    level: int
    stage_context: tuple
    outcome: int

    def __str__(self):
        ctx = ",".join(f"X{v}={x}" for v, x in self.stage_context) or "-"
        return f"q{self.level}({ctx};{self.outcome})"


def edge_label(stage: Stage, outcome: int) -> EdgeLabel:
    return EdgeLabel(stage.level, stage.context.items, outcome)


# Bits per label id in a packed monomial key: exponents up to 3.
_WIDTH = 2
_FIELD = (1 << _WIDTH) - 1


def _widen(key: int, width: int) -> int:
    """A packed monomial re-packed with ``width``-bit fields."""
    wide = i = 0
    while key:
        wide += (key & _FIELD) << width * i
        key >>= _WIDTH
        i += 1
    return wide


# The most outcomes a tree may have to be compiled.  The outcomes bound
# every layer's vertices and every level's labels, so no larger table is
# built.
_MAX_OUTCOMES = 1 << 20


class _Compiled:
    """One validated tree in integer form, built in one pass over the
    layers.

    Per depth k: ``first[k]`` maps each vertex to its stage's first label
    id, the vertices in lex (``itertools.product``) order, so its values
    read off layer k's vertices in product order; ``stages[k]`` maps each
    stage's first label id to its member vertices in lex order, the ids
    ascending (the stages' context order).  ``paths`` maps each outcome,
    in lex order, to its path's label ids.  A stage's labels get
    consecutive ids, so the label of vertex v and outcome o is
    ``first[k][v] + o``, and ids grow with the level: a path's ids come out
    sorted.  Balance reads the cached property ``factors``, built in one
    bottom-up sweep over the ``first`` tables, and keeps its default
    verdict as ``balance``.  ``statement_holds`` reads ``cell``, one
    bottom-up sweep per cell over the vertices its axes allow, which gives
    the ids of the cell marginal's irreducible factors in the eliminated
    ring and keeps them in ``cells``.  ``minimal_contexts`` is the one
    slot, filled by ``contexts.minimal_contexts``.
    """

    def __init__(self, tree: CStreeSpec):
        system = tree.system
        outcomes = math.prod(system.cards)
        if outcomes > _MAX_OUTCOMES:
            raise BudgetExceededError(f"{outcomes} outcomes, budget is {_MAX_OUTCOMES}")
        labels, self.first, self.stages = [], [], []
        paths = {(): ()}
        for var, d in zip(system.variables, system.cards):
            smap = level_stage_map(tree, var)
            start = {}
            for stage in sorted(set(smap.values()), key=lambda s: s.context.items):
                start[stage] = len(labels)
                labels.extend(edge_label(stage, o) for o in range(d))
            first, members, below = {}, {i: [] for i in start.values()}, {}
            for v, stage in smap.items():
                i = first[v] = start[stage]
                members[i].append(v)
                below.update((v + (o,), paths[v] + (i + o,)) for o in range(d))
            self.first.append(first)
            self.stages.append(members)
            paths = below
        self.system = system
        self.labels = tuple(labels)
        self.paths = paths
        # Filled by contexts.minimal_contexts, which this module cannot import.
        self.minimal_contexts = None

    @cached_property
    def keys(self) -> dict:
        """outcome -> its packed path monomial, the key of the label product
        along its path: each label at most once."""
        return {
            x: sum(1 << _WIDTH * i for i in ids) for x, ids in self.paths.items()
        }

    @cached_property
    def balance(self) -> tuple:
        """The default ``is_balanced`` verdict, decided on first read."""
        return _balance(self, False)

    @cached_property
    def lines(self) -> list:
        """Per depth j, the stage-line rule as bitsets over j's layer, bit n
        for the n-th vertex in product order, the order of ``first[j]``:
        ``(varies, eq)``, where ``varies[i]`` flags every vertex whose
        i-line (the vertices differing from it only in coordinate i)
        carries two stage ids and ``eq[k][c]`` flags the vertices with
        x_k = c.  Both are built in time linear in the layer.  ``eq[k][c]``
        is a closed form: a block of stride ones at offset c * stride,
        repeated every d * stride bits by a repunit.  ``varies[i]`` is read
        off each vertex's stage pins: its i-line carries two stage ids
        exactly when its stage's context pins i.  A stage is a cylinder, so
        one that leaves i free holds the whole line, and one that pins i
        holds no other vertex of it.  A stage pins the positions where its
        first and last members, in lex order, agree.  This is the paper's
        reading: j's parents in a slice are the free variables that some
        stage of X_j meeting the slice pins."""
        cards = self.system.cards
        out = []
        for j, ids in enumerate(self.first):
            pins = {
                i: [a == b for a, b in zip(members[0], members[-1])]
                for i, members in self.stages[j].items()
            }
            # Last vertex first: int(..., 2) reads its last digit as bit 0.
            row = list(reversed(ids.values()))
            size = stride = len(row)
            varies, eq = [], []
            for k, d in enumerate(cards[:j]):
                # Coordinate k of vertex n is n // stride % d.
                stride //= d
                digits = {i: "01"[pinned[k]] for i, pinned in pins.items()}
                varies.append(int("".join(map(digits.__getitem__, row)), 2))
                repunit = ((1 << size) - 1) // ((1 << d * stride) - 1)
                eq.append([((1 << stride) - 1) * repunit << c * stride for c in range(d)])
            out.append((varies, eq))
        return out

    @cached_property
    def symmetric(self) -> int:
        """The mask of the symmetric positions.  Position i is symmetric
        when, for every later layer j > i, the partition into stages of the
        vertices with x_i = x, each indexed by its other coordinates, is the
        same for every value x.  Read off the ``first`` tables: the vertices
        with x_i = x form one slab per x, in the same order, and two slabs
        give the same partition exactly when pairing their stage ids
        position by position is a bijection.  The last position is always
        symmetric, since no layer follows it.

        Why no context pinning a symmetric i is minimal.  Fix the other
        pins and let P_x be the slice distribution of the free positions
        given X_i = x.  Up to normalization it is
        ∏_{k<i} θ_k · θ_i(x | stage_i) · ∏_{k>i} θ_k(x_k | stage_k), where
        stage_i does not read x_i and each stage_k reads the vertex with
        x_i = x.  The layers k > i partition those vertices alike for x and
        for any other value y, so a bijection σ_k sends the stages of the
        x-slab to the y-slab's stages at the same vertices.  Given a
        parameter θ, let θ' agree with θ below i, put
        θ'_i(y | s) = θ_i(x | s) for each stage s of layer i (any value in
        (0, 1) is some distribution's, as the cards are at least 2), and
        give each stage σ_k(t) above i the distribution θ_k(· | t).  Then
        P_y at θ' is P_x at θ term by term, and symmetrically, so every
        value of X_i has the same set of slice distributions.  A statement
        A _||_ B | S valid in the context C, with C_i = x, is a fact about
        that set, so it is valid with X_i = y for every y, and
        A _||_ B | S + i holds in C - i: un-pinning i releases it.  So no
        statement is tied to C, and C is not minimal.  Every position of a
        DAG tree is symmetric: a parent's value picks a stage but never
        changes the partition.  So is every position of a tree of two
        variables, whose second layer indexes each slab by the empty
        tuple."""
        cards = self.system.cards
        rows = [list(first.values()) for first in self.first]
        mask = 0
        for i, d in enumerate(cards):
            # Coordinate i of layer j's vertex n is n // inner % d, inner the
            # product of the cards between them.
            inner = 1
            for j in range(i + 1, len(cards)):
                row, period = rows[j], d * inner
                slabs = [
                    [n for o in range(x * inner, len(row), period) for n in row[o : o + inner]]
                    for x in range(d)
                ]
                kinds = len(set(slabs[0]))
                if any(
                    len(set(zip(slabs[0], slab))) != kinds or len(set(slab)) != kinds
                    for slab in slabs[1:]
                ):
                    break
                inner *= cards[j]
            else:
                mask |= 1 << i
        return mask

    @cached_property
    def images(self) -> dict:
        """outcome -> E(x), the eliminated image of p_x."""
        layer = {(): {0: 1}}
        for k, d in enumerate(self.system.cards):
            first = self.first[k]
            nxt = {}
            for v, poly in layer.items():
                last = dict(poly)
                for o in range(d - 1):
                    bit = 1 << _WIDTH * (first[v] + o)
                    nxt[v + (o,)] = {m + bit: c for m, c in poly.items()}
                    last.update((m + bit, -c) for m, c in poly.items())
                nxt[v + (d - 1,)] = last
            layer = nxt
        return layer

    @cached_property
    def factors(self) -> list:
        """Per depth k, vertex -> F(v), the ids of its interpolant's
        irreducible factors, as a frozenset; leaves give none.  Built
        bottom-up: v of stage id i gets G = ⋂_o F(vo) and one new id,
        numbering (i, (F(vo) - G for each o)).

        Why this is exact.  The interpolant obeys
        t(v) = Σ_o θ_{i+o}·t(vo) and has degree one in each level's labels.
        So the gcd of the children's interpolants, the product of G's
        factors, splits off, and the rest, Σ_o θ_{i+o}·t(vo)/gcd, is
        irreducible: it has degree one in its stage's labels and its
        cofactors share no factor.  Two such factors are equal exactly when
        they have the same stage and the same cofactors, so the new id
        names one factor.  ℤ[θ] is a unique factorization domain and every
        coefficient is 0 or 1, so no unit blurs the ids, and each factor of
        t(v) carries levels no other one does, so F(v) is a set.  Hence
        t(vs)·t(wr) = t(vr)·t(ws) exactly when the multisets F(vs) ⊎ F(wr)
        and F(vr) ⊎ F(ws) agree."""
        ids = {}
        tables = [None] * self.system.p + [dict.fromkeys(self.paths, frozenset())]
        for k in range(self.system.p - 1, -1, -1):
            below, d = tables[k + 1], self.system.cards[k]
            layer = tables[k] = {}
            for v, i in self.first[k].items():
                children = [below[v + (o,)] for o in range(d)]
                common = frozenset.intersection(*children)
                cofactors = tuple(child - common for child in children)
                layer[v] = common | {ids.setdefault((i, cofactors), len(ids))}
        return tables

    @cached_property
    def cells(self) -> dict:
        """``cell``'s one memo, filled on demand: a cell's axes map to its
        ids, and a factor's key (stage id, allowed outcomes, cofactors) to
        its id.  The two kinds of key never compare equal, and an id is the
        table's size when its factor is first met, so no two factors share
        an id."""
        return {}

    def cell(self, axes) -> frozenset:
        """The ids of the irreducible factors of M(S) = Σ_{x∈S} E(x) in the
        eliminated ring, for the cell S = ∏ axes: per position, the pinned
        value as a 1-tuple or the full range.  The pins must be values of
        the system; ``_minor_cells`` checks them.

        One bottom-up sweep over the vertices the axes allow, from the last
        pinned level: below it every allowed set is full and the images sum
        to one, so the vertices there get no ids.  Vertex v of stage id i
        with allowed outcomes A gets G = ⋂_{o∈A} F(vo) and the cofactors
        F(vo) - G.  When A is full and every cofactor is empty, v gets G:
        its stage's labels sum to one.  Otherwise v gets G and one id more,
        numbering (i, A, cofactors).  ``statement_holds`` says why the ids
        name the factors."""
        axes = tuple(axes)
        memo = self.cells
        if axes in memo:
            return memo[axes]
        cards, empty = self.system.cards, frozenset()
        last = max((k for k, a in enumerate(axes) if len(a) < cards[k]), default=-1)
        below = {}
        for k in range(last, -1, -1):
            allowed, first = tuple(axes[k]), self.first[k]
            full = len(allowed) == cards[k]
            layer = {}
            for v in itertools.product(*axes[:k]):
                children = [below.get(v + (o,), empty) for o in allowed]
                common = frozenset.intersection(*children)
                cofactors = tuple(child - common for child in children)
                if full and not any(cofactors):
                    layer[v] = common
                else:
                    key = (first[v], allowed, cofactors)
                    layer[v] = common | {memo.setdefault(key, len(memo))}
            below = layer
        return memo.setdefault(axes, below.get((), empty))


@lru_cache(maxsize=64)
def _compile(tree: CStreeSpec) -> _Compiled:
    return _Compiled(tree)


def _vertex(compiled: _Compiled, vertex, outcome=False) -> tuple:
    """``vertex`` as a tuple, checked before any table is read: one of the
    tree's vertices, or with ``outcome`` one of its full outcomes, or
    BadIndexError."""
    vertex = tuple(vertex)
    k = len(vertex)
    layer = compiled.paths if outcome or k >= compiled.system.p else compiled.first[k]
    if vertex not in layer:
        kind = "an outcome" if outcome else "a vertex"
        raise BadIndexError(f"{vertex} is not {kind} of the tree")
    return vertex


def _product_into(acc: dict, f: dict, g: dict, sign: int) -> dict:
    """acc += sign·f·g over packed monomials; zeros may remain.  The
    fields must hold the product's exponents."""
    get = acc.get
    for m1, c1 in f.items():
        c1 *= sign
        for m2, c2 in g.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    return acc


def tree_labels(tree: CStreeSpec) -> tuple:
    """All labels of the tree, ordered by level, stage context, outcome."""
    return _compile(tree).labels


def psi_monomial(tree: CStreeSpec, outcome) -> Monomial:
    """Image of the coordinate p_x: the label product along x's path."""
    compiled = _compile(tree)
    ids = compiled.paths[_vertex(compiled, outcome, outcome=True)]
    return Monomial.of(*(compiled.labels[i] for i in ids))


def interpolant(tree: CStreeSpec, vertex) -> SparsePoly:
    """Sum over completions of the vertex of its below-path label products;
    leaves give 1.  A vertex outside the tree raises BadIndexError."""
    compiled = _compile(tree)
    vertex = _vertex(compiled, vertex)
    k = len(vertex)
    return SparsePoly(
        {
            Monomial.of(*(compiled.labels[i] for i in ids[k:])): 1
            for x, ids in compiled.paths.items()
            if x[:k] == vertex
        }
    )


def _same_product(a: frozenset, b: frozenset, c: frozenset, e: frozenset) -> bool:
    """Whether the factor-id sets a ⊎ b and c ⊎ e agree as multisets:
    exactly when the ids counted twice (in both sets) and once (in one)
    agree."""
    return a & b == c & e and a ^ b == c ^ e


def _failing_outcomes(table: dict, v: tuple, w: tuple, d: int):
    """The first outcome pair (s, r) where the cross-product identity of
    v and w fails, or None.  ``table`` holds the factor ids of the layer
    below (``_Compiled.factors``), and the identity holds exactly when
    F(vs) ⊎ F(wr) = F(vr) ⊎ F(ws)."""
    for s, r in itertools.combinations(range(d), 2):
        a, b, c, e = table[v + (s,)], table[w + (r,)], table[v + (r,)], table[w + (s,)]
        if not _same_product(a, b, c, e):
            return s, r
    return None


def balanced_pair(tree: CStreeSpec, v, w) -> bool:
    """Whether two same-stage vertices satisfy the cross-product identity
    t(v s) t(w r) = t(v r) t(w s) for every outcome pair, in the plain ring."""
    v, w = tuple(v), tuple(w)
    if len(v) != len(w):
        raise NotSameStageError(f"{v} and {w} are staged apart")
    compiled = _compile(tree)
    first = compiled.first[len(v)] if len(v) < tree.system.p else {}
    if v not in first or w not in first:
        raise BadIndexError(f"{v} and {w} must both be vertices of the tree")
    if first[v] != first[w]:
        raise NotSameStageError(f"{v} and {w} are staged apart")
    table = compiled.factors[len(v) + 1]
    return _failing_outcomes(table, v, w, tree.system.cards[len(v)]) is None


@dataclass(frozen=True)
class BalanceWitness:
    """An unbalanced same-stage pair: where, which vertices, which outcomes."""

    level: int
    context: Context
    pair: tuple
    outcomes: tuple

    def __str__(self):
        v, w = self.pair
        s, r = self.outcomes
        return (
            f"vertices {v} and {w} in stage [{self.context}] fail at outcomes {s},{r}"
        )


def is_balanced(tree: CStreeSpec, audit_all_pairs=False):
    """Check the cross-product identity across every stage.

    Returns (True, None) or (False, witness).  By default each stage is
    checked against a fixed representative, which suffices because the
    interpolants have positive coefficients and equality is transitive
    through the representative; ``audit_all_pairs`` checks every pair
    anyway.  The default verdict is kept on the compiled tree; an audit
    runs in full on every call.
    """
    compiled = _compile(tree)
    return _balance(compiled, True) if audit_all_pairs else compiled.balance


def _balance(compiled: _Compiled, audit_all_pairs: bool) -> tuple:
    """``is_balanced``'s check, run afresh."""
    tables, cards = compiled.factors, compiled.system.cards
    for k, stages in enumerate(compiled.stages):
        for i, members in stages.items():
            if audit_all_pairs:
                pairs = itertools.combinations(members, 2)
            else:
                rep = members[0]
                pairs = ((rep, m) for m in members[1:])
            for v, w in pairs:
                failing = _failing_outcomes(tables[k + 1], v, w, cards[k])
                if failing is not None:
                    context = Context(compiled.labels[i].stage_context)
                    return False, BalanceWitness(k, context, (v, w), failing)
    return True, None


def _minor_cells(statement: CsiStatement, system: VariableSystem, marginal):
    """The cells (M(S1), M(S2), M(S3), M(S4)) of each 2x2 minor of a
    statement; the one enumeration of its minors.  Minors run over pairs of
    A values, then pairs of B values, then S values, each in lex order, and
    a minor is M(S1)·M(S2) - M(S3)·M(S4) with S1 = (x_A, x_B, x_S),
    S2 = (y_A, y_B, x_S), S3 = (x_A, y_B, x_S) and S4 = (y_A, x_B, x_S).  A
    cell pins those values and the context and sums out the other
    variables: ``marginal(axes)`` gives its value from its axes, per
    position the pinned value as a 1-tuple or the full ``range``, whose
    product is the cell's outcomes in lex order, and runs at most once per
    cell.  A variable or context value outside the system raises
    BadIndexError."""
    template = [range(d) for d in system.cards]
    for i, x in system.pinned(statement.context).items():
        template[i] = (x,)
    blocks = [tuple(sorted(part)) for part in (statement.a, statement.b, statement.s)]
    ra, rb, rs = (
        tuple(itertools.product(*(range(system.card(v)) for v in block)))
        for block in blocks
    )
    places = [tuple(map(system.position, block)) for block in blocks]
    cells = {}

    def cell(*values):
        if values not in cells:
            axes = template.copy()
            for place, vals in zip(places, values):
                for i, x in zip(place, vals):
                    axes[i] = (x,)
            cells[values] = marginal(tuple(axes))
        return cells[values]

    for x_a, y_a in itertools.combinations(ra, 2):
        for x_b, y_b in itertools.combinations(rb, 2):
            for x_s in rs:
                yield (
                    cell(x_a, x_b, x_s),
                    cell(y_a, y_b, x_s),
                    cell(x_a, y_b, x_s),
                    cell(y_a, x_b, x_s),
                )


def statement_polynomials(statement: CsiStatement, system: VariableSystem) -> tuple:
    """Exact polynomial translation of a statement: every 2x2 minor of every
    conditional slice, in marginalized outcome coordinates.  Minors that
    expand to zero are dropped."""

    def marginal(axes):
        return SparsePoly({Monomial.of(x): 1 for x in itertools.product(*axes)})

    out = []
    for m1, m2, m3, m4 in _minor_cells(statement, system, marginal):
        poly = m1 * m2 - m3 * m4
        if not poly.is_zero():
            out.append(poly)
    return tuple(out)


def vanishes(tree: CStreeSpec, poly: SparsePoly) -> bool:
    """Whether a polynomial in outcome coordinates dies on the model.

    Each coordinate p_x maps to its eliminated image E(x), the path label
    product with each stage's last label replaced by one minus the stage's
    other labels.  Those replacements are linear forms, irreducible and
    pairwise non-associate, and so are the labels kept, so by unique
    factorization E(m1) = c·E(m2) only when m1 and m2 carry the same path
    monomial.  The terms are therefore first collapsed by path monomial
    (their packed keys summed, fields wide enough for the degree): none
    left means zero, and one or two left can never cancel, which decides
    every binomial the way the fiber sweep's move test does.  Three or more
    are expanded to the zero polynomial; a term of degree d has label
    exponents up to d, so the fields are at least d's bit length wide.
    Exact, no sampling involved.  A coordinate that is not an outcome of the
    tree raises BadIndexError.
    """
    compiled = _compile(tree)
    outcomes = {_vertex(compiled, x, outcome=True) for x in poly.variables()}
    width = poly.degree.bit_length()
    keys = compiled.keys
    if width > _WIDTH:
        keys = {x: _widen(keys[x], width) for x in outcomes}
    sums = {}
    for mono, coef in poly.terms.items():
        key = sum(keys[tuple(x)] * e for x, e in mono.powers)
        sums[key] = sums.get(key, 0) + coef
    left = sum(1 for c in sums.values() if c)
    if left < 3:
        return not left
    images = compiled.images
    if width > _WIDTH:
        images = {x: {_widen(m, width): c for m, c in images[x].items()} for x in keys}
    acc = {}
    for mono, coef in poly.terms.items():
        term = {0: coef}
        for x, e in mono.powers:
            for _ in range(e):
                term = _product_into({}, term, images[tuple(x)], 1)
        for m, c in term.items():
            acc[m] = acc.get(m, 0) + c
    return not any(acc.values())


def _nonvanishing(tree: CStreeSpec, binomials):
    """The binomials p_u1·p_u2 - p_v1·p_v2, given by their outcome pairs
    ``plus`` and ``minus``, that do not vanish on the model, in order.
    This is ``vanishes``' collapse step on packed keys with one compiled
    lookup for the batch: two distinct path monomials never cancel, so a
    binomial vanishes exactly when key(u1) + key(u2) == key(v1) + key(v2).
    Each label occurs at most once per path, so a sum of two keys fits the
    tables' fields."""
    keys = _compile(tree).keys
    for binomial in binomials:
        (u1, u2), (v1, v2) = binomial.plus, binomial.minus
        if keys[u1] + keys[u2] != keys[v1] + keys[v2]:
            yield binomial


def statement_holds(tree: CStreeSpec, statement: CsiStatement) -> bool:
    """Semantic ground truth: every minor M(S1)·M(S2) - M(S3)·M(S4) of the
    statement vanishes on the model, M(S) = Σ_{x∈S} E(x) in the eliminated
    ring.  Each cell S gets the ids of its marginal's irreducible factors
    (``_Compiled.cell``), and a minor vanishes exactly when the multisets
    of its two sides' ids agree, the test balance runs on vertex ids.  No
    marginal is built or multiplied; the verdict is exact.  A fully pinned
    cell's ids are its path's labels, so a saturated statement gets the
    key test.  See ``statement_zero_at`` for the fast negative check.

    Why the ids are exact.  ``cell`` gives vertex v of stage id i, with
    allowed outcomes A and cofactors F(vo) - G, the new factor
    f = Σ_{o∈A} E(θ_{i+o})·c_o, where c_o is the product of cofactor o's
    factors; the c_o use only deeper levels' labels.  With o* the stage's
    last outcome, f's part free of stage i's labels is [o*∈A]·c_{o*}, and
    for o < o* its coefficient of θ_{i+o} is [o∈A]·c_o - [o*∈A]·c_{o*}.
    So f = 1 exactly when A is full and every c_o = 1, the case that adds
    no id.  Otherwise f has degree at most one in stage i's labels; a
    factor free of those labels divides every coefficient, hence every c_o
    for o ∈ A, and the c_o have gcd 1, so f is irreducible.  It is
    primitive, since some c_o's coefficients appear in it (Gauss's lemma).
    f determines A and each c_o, and by induction its key; f is positive on
    the open simplex, which rules out the unit -1.  Each F holds at most
    one factor made per level, so F is a set.  By unique factorization in
    ℤ[θ], M(S1)·M(S2) = M(S3)·M(S4) exactly when the two id multisets
    agree."""
    cell = _compile(tree).cell
    return all(
        _same_product(*cells) for cells in _minor_cells(statement, tree.system, cell)
    )


def _stage_draws(compiled: _Compiled, seed) -> list:
    """Per depth, per stage in label order, (its label ids, their numerators
    drawn from 1..97): the one draw behind ``random_point``."""
    rng = random.Random(seed)
    return [
        [(range(i, i + d), [rng.randint(1, 97) for _ in range(d)]) for i in stages]
        for stages, d in zip(compiled.stages, compiled.system.cards)
    ]


def random_point(tree: CStreeSpec, seed=0) -> dict:
    """A deterministic exact parameter point: per stage, numerators drawn
    from 1..97 and normalized, so every label is a positive Fraction."""
    compiled = _compile(tree)
    point = {}
    for ids, nums in itertools.chain.from_iterable(_stage_draws(compiled, seed)):
        total = sum(nums)
        point.update((compiled.labels[i], Fraction(n, total)) for i, n in zip(ids, nums))
    return point


def _integer_probabilities(tree: CStreeSpec, seed=0) -> dict:
    """``outcome_probabilities(tree, random_point(tree, seed))`` times one
    positive integer, in integer arithmetic: the one exact outcome table the
    library evaluates at.  A binomial's two sides both scale by the
    integer's square, so each vanishes here exactly when it vanishes at
    ``random_point(tree, seed)``.

    A label weighs its numerator times L ÷ its stage's total, where L is the
    lcm of the stage totals of its level: the label's value times L.  An
    outcome's path meets each level once, so every outcome is scaled by the
    same product of the levels' L."""
    compiled = _compile(tree)
    weights = [0] * len(compiled.labels)
    for draws in _stage_draws(compiled, seed):
        lcm = math.lcm(*(sum(nums) for _, nums in draws))
        for ids, nums in draws:
            scale = lcm // sum(nums)
            for i, n in zip(ids, nums):
                weights[i] = n * scale
    return {
        x: math.prod(weights[i] for i in ids) for x, ids in compiled.paths.items()
    }


def outcome_probabilities(tree: CStreeSpec, point: dict) -> dict:
    """The outcome distribution p_x induced by a parameter point.  A label
    the point gives no value raises BadIndexError."""
    compiled = _compile(tree)
    for label in compiled.labels:
        if label not in point:
            raise BadIndexError(f"the point gives no value for {label}")
    values = [point[label] for label in compiled.labels]
    return {
        x: math.prod((values[i] for i in ids), start=Fraction(1))
        for x, ids in compiled.paths.items()
    }


def statement_zero_at(
    statement: CsiStatement, system: VariableSystem, probs: dict
) -> bool:
    """Whether every minor of the statement evaluates to zero at a table of
    outcome probabilities, or at that table times a positive constant,
    which scales every minor by the constant's square.  A nonzero minor
    refutes the statement exactly; all-zero only suggests it, so confirm
    symbolically.  A table missing an outcome of the system raises
    BadIndexError before any minor is evaluated."""
    for x in system.outcomes():
        if x not in probs:
            raise BadIndexError(f"the table gives no value for outcome {x}")

    def marginal(axes):
        return sum(probs[x] for x in itertools.product(*axes))

    return all(
        m1 * m2 == m3 * m4
        for m1, m2, m3, m4 in _minor_cells(statement, system, marginal)
    )


@dataclass(frozen=True)
class ExponentMatrix:
    """0/1 exponent matrix of the parametrization: rows are edge labels in
    canonical order, columns are full outcomes in lex order."""

    labels: tuple
    outcomes: tuple
    columns: tuple

    def marginal(self, table) -> tuple:
        """Row sums A u for a table aligned with ``outcomes``; a table of
        another length raises ShapeMismatchError."""
        if len(table) != len(self.outcomes):
            raise ShapeMismatchError(f"{len(table)} counts, not {len(self.outcomes)}")
        out = [0] * len(self.labels)
        for count, rows in zip(table, self.columns):
            if count:
                for r in rows:
                    out[r] += count
        return tuple(out)


def exponent_matrix(tree: CStreeSpec) -> ExponentMatrix:
    compiled = _compile(tree)
    return ExponentMatrix(
        compiled.labels, tuple(compiled.paths), tuple(compiled.paths.values())
    )


@dataclass(frozen=True)
class FiberReport:
    """Outcome of a fiber connectivity sweep."""

    connected: bool
    bound: int
    tables: int
    fibers: int
    witness: tuple | None

    def __str__(self):
        if self.connected:
            return (
                f"all {self.fibers} fibers of {self.tables} tables "
                f"(total <= {self.bound}) connected"
            )
        marg, t1, t2 = self.witness
        return f"disconnected fiber: {t1} and {t2} share marginal {marg}"


def _fields(width: int, count: int) -> list:
    """The unit of each of ``count`` packed fields ``width`` bits wide,
    field 0 most significant, so packed order is tuple-lex order."""
    return [1 << width * (count - 1 - i) for i in range(count)]


def _unpack(key: int, width: int, count: int) -> tuple:
    """The ``count`` fields of a packed key, field 0 first."""
    mask = (1 << width) - 1
    return tuple(key >> width * (count - 1 - i) & mask for i in range(count))


def _tables(total: int, units, columns):
    """(marginal, table) for every table of the given total, packed.  A
    table is a multiset of ``total`` outcomes; it sums their ``units`` as
    the table and their ``columns`` as its marginal, both in C.  The
    multisets come in ``combinations_with_replacement`` order, so with
    outcome 0 in the most significant field the tables run in descending
    lex order."""
    return zip(
        map(sum, itertools.combinations_with_replacement(columns, total)),
        map(sum, itertools.combinations_with_replacement(units, total)),
    )


_TABLE_BUDGET = 2_000_000


def _check_fiber_bound(matrix: ExponentMatrix, bound: int):
    """Refuse a fiber bound before any table is built: a negative bound
    raises PreconditionError, and one whose tables over the matrix's outcomes
    outnumber ``_TABLE_BUDGET`` raises BoundTooLargeError."""
    if bound < 0:
        raise PreconditionError(f"fiber bound must be non-negative, got {bound}")
    n = len(matrix.outcomes)
    expected = math.comb(n + bound, bound)
    if expected > _TABLE_BUDGET:
        raise BoundTooLargeError(
            f"{expected} tables at bound {bound} exceed the budget {_TABLE_BUDGET}"
        )


def fibers_connected(matrix: ExponentMatrix, moves, bound=2) -> FiberReport:
    """Check that a move set connects every fiber of small tables.

    Tables are nonnegative integer vectors over the outcomes with total at
    most ``bound``; a fiber collects tables with equal row marginals under
    the exponent matrix.  Moves apply in both directions wherever they keep
    the table nonnegative.  A disconnected fiber is reported through two
    tables from different components.  A negative bound raises
    PreconditionError, one whose tables outnumber ``_TABLE_BUDGET``
    (2,000,000) BoundTooLargeError, and a move naming an outcome outside
    the matrix BadIndexError, each before any table is built.

    Tables and marginals are packed with one ``bound.bit_length()``-bit
    field per outcome or label, which no count up to the bound overflows,
    so packing is injective and int order is tuple-lex order; only the
    witness is unpacked.  A move, its two sides' common outcomes
    cancelled, takes one multiset and gives another, the larger of size s.
    Within the bound it applies exactly to the tables r + take with r any
    table of total at most ``bound`` - s.  Marginals add, so when the
    signed sum of its outcomes' packed columns is zero the two sides share
    a marginal and r + take and r + give, each one addition, are two
    tables of one fiber; otherwise the move leaves every fiber and joins
    nothing.  One union-find runs over every table.  Since no join leaves
    a fiber, every fiber is connected exactly when the components are as
    many as the distinct marginals; only otherwise are the tables grouped
    by marginal, and the witness is the first split fiber in marginal
    order, its tables walked in lex order.
    """
    _check_fiber_bound(matrix, bound)
    width, n = bound.bit_length(), len(matrix.outcomes)
    units = _fields(width, n)
    rows = _fields(width, len(matrix.labels))
    columns = [sum(rows[r] for r in col) for col in matrix.columns]
    unit = dict(zip(matrix.outcomes, units))
    column = dict(zip(matrix.outcomes, columns))
    # Each move once for both directions: (size, take, give), take < give.
    joins = set()
    for move in moves:
        vec = {}
        for pair, sign in ((move.plus, 1), (move.minus, -1)):
            for x in pair:
                if x not in unit:
                    raise BadIndexError(f"a move names {x}, not an outcome")
                vec[x] = vec.get(x, 0) + sign
        size = max(
            sum(d for d in vec.values() if d > 0),
            sum(-d for d in vec.values() if d < 0),
        )
        # A move larger than the bound fits no table, nor its fields.
        if 0 < size <= bound and not sum(column[x] * d for x, d in vec.items()):
            give = sum(unit[x] * d for x, d in vec.items() if d > 0)
            take = sum(unit[x] * -d for x, d in vec.items() if d < 0)
            joins.add((size, min(take, give), max(take, give)))
    marginals, tables, by_total = [], [], []
    for total in range(bound + 1):
        start = len(tables)
        for marginal, table in _tables(total, units, columns):
            marginals.append(marginal)
            tables.append(table)
        by_total.append(tables[start:])
    ids = dict(zip(tables, range(len(tables))))
    fiber_count = len(set(marginals))
    parent = list(range(len(tables)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for size, take, give in joins:
        for total in range(bound - size + 1):
            for r in by_total[total]:
                parent[find(ids[r + take])] = find(ids[r + give])
    if sum(map(int.__eq__, parent, range(len(parent)))) > fiber_count:
        fibers = {}
        for marginal, table in zip(marginals, tables):
            fibers.setdefault(marginal, []).append(table)
        for marginal, members in sorted(fibers.items()):
            roots = {}
            for t in sorted(members):
                roots.setdefault(find(ids[t]), t)
            if len(roots) > 1:
                t1, t2 = list(roots.values())[:2]
                witness = (
                    _unpack(marginal, width, len(matrix.labels)),
                    _unpack(t1, width, n),
                    _unpack(t2, width, n),
                )
                return FiberReport(False, bound, len(tables), fiber_count, witness)
    return FiberReport(True, bound, len(tables), fiber_count, None)
