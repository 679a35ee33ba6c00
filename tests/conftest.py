import itertools
import pathlib

import pytest

from cstree import Context, CsiStatement, VariableSystem, load_spec
from cstree.algebra import FiberReport, _check_fiber_bound

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


def load(name: str):
    return load_spec(fixture_path(name))


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


def _line_edges(compiled, vec: tuple, heads) -> set:
    """The stage-line rule walked line by line, the reference for the
    bitset rule: in the slice ``vec`` (per-position values, -1 where free),
    (i, j) for each head j and each free i < j when some pair of vertices
    of j's layer, agreeing with the slice's earlier pins and differing only
    in coordinate i, has two different compiled stage ids."""
    cards, first = compiled.system.cards, compiled.first
    free = [i for i, x in enumerate(vec) if x < 0]
    edges = set()
    for j in heads:
        ids = first[j]
        axes = [range(d) if x < 0 else (x,) for x, d in zip(vec[:j], cards)]
        for i in free:
            if i >= j:
                break
            line = axes[:i] + [(0,)] + axes[i + 1 :]
            if any(
                ids[v[:i] + (x,) + v[i + 1 :]] != ids[v]
                for v in itertools.product(*line)
                for x in range(1, cards[i])
            ):
                edges.add((i, j))
    return edges



# The tuple fiber sweep that the packed one replaced, kept as the reference
# the fiber exactness gates compare against.  Its grouping is kept per bound
# in a dict the caller passes.
def _reference_tables(total: int, length: int):
    """Nonnegative integer vectors of the given length and total, in lex
    order.  A vector counts a multiset of positions, and of two vectors the
    lex-smaller one has the lex-larger sorted positions, so the multisets
    run backwards."""
    for units in reversed(
        list(itertools.combinations_with_replacement(range(length), total))
    ):
        table = [0] * length
        for k in units:
            table[k] += 1
        yield tuple(table)


def _reference_fiber_groups(matrix, bound: int, cache: dict) -> tuple:
    """(table count, fiber count, the fibers of two or more tables) at a
    checked bound.  Each such fiber is (marginal, tables, table -> position,
    the positions each table is nonzero at), tables in lex order, fibers in
    marginal order."""
    if bound in cache:
        return cache[bound]
    n = len(matrix.outcomes)
    fibers = {}
    total_tables = 0
    for total in range(bound + 1):
        for table in _reference_tables(total, n):
            total_tables += 1
            fibers.setdefault(matrix.marginal(table), []).append(table)
    shared = tuple(
        (
            marginal,
            tables,
            {t: i for i, t in enumerate(tables)},
            tuple(tuple(k for k, c in enumerate(t) if c) for t in tables),
        )
        for marginal, tables in sorted(fibers.items())
        if len(tables) > 1
    )
    cache[bound] = (total_tables, len(fibers), shared)
    return cache[bound]


def _reference_fibers_connected(matrix, moves, bound=2, cache=None) -> FiberReport:
    """Check that a move set connects every fiber of small tables, on
    tuples.  ``cache`` keeps the grouping per bound for one matrix."""
    _check_fiber_bound(matrix, bound)
    n = len(matrix.outcomes)
    position = {x: i for i, x in enumerate(matrix.outcomes)}
    vectors = set()
    for move in moves:
        vec = [0] * n
        for pair, sign in ((move.plus, 1), (move.minus, -1)):
            for x in pair:
                vec[position[x]] += sign
        if any(vec):
            vec = tuple(vec)
            vectors.add(vec)
            vectors.add(tuple(-d for d in vec))
    # Each move as (what it takes, nonzero entries), filed under the first
    # entry it takes: a move applies to a table only if that entry is in the
    # table's support, and is skipped at the first entry it would take below
    # zero.  A move that takes nothing raises the total, so it leaves every
    # fiber.
    by_first = {}
    for vec in vectors:
        entries = tuple((i, d) for i, d in enumerate(vec) if d)
        takes = tuple((i, -d) for i, d in entries if d < 0)
        if takes:
            by_first.setdefault(takes[0][0], []).append((takes, entries))
    total_tables, fiber_count, groups = _reference_fiber_groups(
        matrix, bound, {} if cache is None else cache
    )
    for marginal, tables, index, supports in groups:
        parent = list(range(len(tables)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, (t, support) in enumerate(zip(tables, supports)):
            i = find(i)
            for first in support:
                for takes, entries in by_first.get(first, ()):
                    for k, need in takes:
                        if t[k] < need:
                            break
                    else:
                        moved = list(t)
                        for k, d in entries:
                            moved[k] += d
                        j = index.get(tuple(moved))
                        if j is not None:
                            parent[find(j)] = i
        roots = {}
        for t in tables:
            roots.setdefault(find(index[t]), t)
        if len(roots) > 1:
            first, second = list(roots.values())[:2]
            return FiberReport(
                False, bound, total_tables, fiber_count, (marginal, first, second)
            )
    return FiberReport(True, bound, total_tables, fiber_count, None)

@pytest.fixture
def fig1():
    return load("fig1.json")


@pytest.fixture
def fig3():
    return load("fig3.json")


@pytest.fixture
def fig4():
    return load("fig4.json")


@pytest.fixture
def fig5_tree():
    return load("fig5_tree.json")


@pytest.fixture
def chain():
    return load("chain123.json")
