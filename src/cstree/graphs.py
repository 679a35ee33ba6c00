"""Order-respecting DAGs, separation checks, and moralization."""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field

from .csi import CsiStatement
from .errors import BadGraphError, PreconditionError
from .model import Context, _fixture_context, _shaped


@dataclass(frozen=True)
class Dag:
    """A DAG whose edges all point from smaller to larger vertex.

    Acyclicity is structural: a backward edge is rejected outright, so the
    vertex order is always a topological order.  Parents and children are
    computed once, at construction.
    """

    vertices: tuple
    edges: frozenset
    _parents: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = tuple(int(v) for v in self.vertices)
        object.__setattr__(self, "vertices", vertices)
        if list(vertices) != sorted(set(vertices)):
            raise BadGraphError(f"vertices must be strictly increasing: {vertices}")
        known = set(vertices)
        edges = frozenset((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        parents = {v: set() for v in vertices}
        children = {v: set() for v in vertices}
        for u, v in edges:
            if u not in known or v not in known:
                raise BadGraphError(f"edge ({u},{v}) uses unknown vertices")
            if u >= v:
                raise BadGraphError(f"edge ({u},{v}) does not respect the order")
            parents[v].add(u)
            children[u].add(v)
        for name, adj in (("_parents", parents), ("_children", children)):
            object.__setattr__(self, name, {v: frozenset(ws) for v, ws in adj.items()})

    @classmethod
    def of(cls, vertices, edges=()) -> "Dag":
        return cls(tuple(vertices), frozenset(tuple(e) for e in edges))

    def parents(self, v) -> frozenset:
        return self._parents[v]

    def children(self, v) -> frozenset:
        return self._children[v]

    def adjacent(self, u, v) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def sorted_edges(self) -> tuple:
        return tuple(sorted(self.edges))


@dataclass(frozen=True)
class UndirectedGraph:
    """Plain undirected graph; edges stored as (u, v) with u < v."""

    vertices: tuple
    edges: frozenset

    def __post_init__(self):
        vertices = tuple(int(v) for v in self.vertices)
        object.__setattr__(self, "vertices", vertices)
        if list(vertices) != sorted(set(vertices)):
            raise BadGraphError(f"vertices must be strictly increasing: {vertices}")
        known = set(vertices)
        edges = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v or u not in known or v not in known:
                raise BadGraphError(f"bad undirected edge ({u},{v})")
            edges.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(edges))

    def adjacent(self, u, v) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> tuple:
        return tuple(sorted(self.edges))


@dataclass(frozen=True)
class ContextDag:
    """A DAG over the unpinned variables, tagged with its context."""

    context: Context
    dag: Dag


def _check_query(dag: Dag, a, b, s):
    known = set(dag.vertices)
    if not a or not b:
        raise BadGraphError("separation query needs two nonempty sets")
    if (a | b | s) - known:
        raise BadGraphError(f"unknown vertices {sorted((a | b | s) - known)}")
    if a & b or a & s or b & s:
        raise BadGraphError("separation query sets must be disjoint")


def _reach(adjacency, seed) -> set:
    """The seed and every vertex reachable from it along ``adjacency``."""
    closed = set(seed)
    frontier = list(closed)
    while frontier:
        for w in adjacency[frontier.pop()]:
            if w not in closed:
                closed.add(w)
                frontier.append(w)
    return closed


def _unmarried(dag: Dag):
    """Each co-parent pair (x, y), x < y, with no edge between them.

    A pair with several common children comes once per child.
    """
    for v in dag.vertices:
        for x, y in itertools.combinations(sorted(dag._parents[v]), 2):
            if (x, y) not in dag.edges:
                yield x, y


def descendants(dag: Dag, v) -> frozenset:
    """Strict descendants of a vertex."""
    return frozenset(_reach(dag._children, dag._children[v]))


def d_separated(dag: Dag, a, b, s=()) -> bool:
    """Separation of two vertex sets given a third, via the moral graph of
    their ancestral closure.  The three sets must be disjoint and the first
    two nonempty."""
    a, b, s = frozenset(a), frozenset(b), frozenset(s)
    _check_query(dag, a, b, s)
    closure = _reach(dag._parents, a | b | s)
    adj = {v: set() for v in closure}
    for v in closure:
        # the closure is ancestral, so each family lies inside it
        for x, y in itertools.combinations(dag._parents[v] | {v}, 2):
            adj[x].add(y)
            adj[y].add(x)
    return not _reach({v: adj[v] - s for v in closure}, a) & b


def d_separated_bayes_ball(dag: Dag, a, b, s=()) -> bool:
    """Separation by directed reachability (ball passing).

    Independent of ``d_separated`` on purpose, so the two implementations
    can vouch for each other in tests.
    """
    a, b, s = frozenset(a), frozenset(b), frozenset(s)
    _check_query(dag, a, b, s)
    parents, children = dag._parents, dag._children
    anc_s = _reach(parents, s)
    queue = deque((v, "up") for v in a)
    visited = set()
    while queue:
        v, direction = queue.popleft()
        if (v, direction) in visited:
            continue
        visited.add((v, direction))
        if v in b and v not in s:
            return False
        if direction == "up" and v not in s:
            for u in parents[v]:
                queue.append((u, "up"))
            for w in children[v]:
                queue.append((w, "down"))
        elif direction == "down":
            if v not in s:
                for w in children[v]:
                    queue.append((w, "down"))
            if v in anc_s:
                for u in parents[v]:
                    queue.append((u, "up"))
    return True


def local_markov(dag: Dag, context=Context()) -> tuple:
    """One statement per vertex: independent of its non-descendant
    non-parents given its parents.  Vacuous statements drop out."""
    out = []
    parents = dag._parents
    for v in dag.vertices:
        rest = set(dag.vertices) - {v} - descendants(dag, v) - parents[v]
        if rest:
            out.append(
                CsiStatement(
                    frozenset({v}), frozenset(rest), parents[v], context
                )
            )
    return tuple(out)


def moralize(dag: Dag) -> UndirectedGraph:
    """Drop directions and marry all co-parents: the skeleton of one
    ``directed_moralize`` pass."""
    return UndirectedGraph(dag.vertices, dag.edges | set(_unmarried(dag)))


def directed_moralize(dag: Dag):
    """Marry unmarried co-parents with an edge from the smaller vertex.

    One simultaneous pass over the current graph; returns the new graph and
    the sorted tuple of edges added.
    """
    added = set(_unmarried(dag))
    return Dag(dag.vertices, dag.edges | added), tuple(sorted(added))


def to_perfect(dag: Dag):
    """Iterate directed moralization to its fixed point.

    Returns (graph, passes) where ``passes`` lists the edges added per
    round; the result has every parent set complete.
    """
    passes = []
    graph = dag
    n = len(dag.vertices)
    for _ in range(n * (n - 1) // 2 + 1):
        graph, added = directed_moralize(graph)
        if not added:
            return graph, tuple(passes)
        passes.append(added)
    raise PreconditionError("directed moralization failed to stabilize")


def is_perfect(dag: Dag) -> bool:
    """Every parent set induces a complete subgraph."""
    return next(_unmarried(dag), None) is None


def saturated_statements(dag, context=Context()) -> tuple:
    """All A _||_ B | S with A, B, S partitioning the vertices that hold by
    separation, canonicalized (min(A) < min(B)) and duplicate-free.

    For a partition the ancestral closure is every vertex, so
    ``d_separated``'s criterion reads: no edge of the moral graph joins A
    and B, that is A and B are unions of the components of the moral graph
    minus S.  So each S deals its components between A and B, the one
    holding the least vertex outside S going to A, and the splits come out
    in ``itertools.product`` order over (A, B, S) per vertex.  Accepts a
    bare Dag plus an optional context, or a ContextDag carrying its own.
    """
    if isinstance(dag, ContextDag):
        dag, context = dag.dag, dag.context
    verts = dag.vertices
    index = {v: n for n, v in enumerate(verts)}
    adjacent = [[] for _ in verts]
    for u, v in moralize(dag).edges:
        adjacent[index[u]].append(index[v])
        adjacent[index[v]].append(index[u])
    splits = []
    for in_s in itertools.product((False, True), repeat=len(verts)):
        component = [None] * len(verts)
        count = 0
        for k in range(len(verts)):
            if in_s[k] or component[k] is not None:
                continue
            component[k] = count
            members = [k]
            for u in members:
                for w in adjacent[u]:
                    if not in_s[w] and component[w] is None:
                        component[w] = count
                        members.append(w)
            count += 1
        if count < 2:
            continue
        for deal in itertools.product((0, 1), repeat=count - 1):
            if 1 in deal:
                sides = (0, *deal)
                splits.append(
                    tuple(2 if c is None else sides[c] for c in component)
                )
    out = []
    for split in sorted(splits):
        a = frozenset(v for v, t in zip(verts, split) if t == 0)
        b = frozenset(v for v, t in zip(verts, split) if t == 1)
        s = frozenset(v for v, t in zip(verts, split) if t == 2)
        out.append(CsiStatement(a, b, s, context))
    return tuple(out)


@dataclass(frozen=True)
class ObstructionReport:
    """Structures around a non-adjacent pair that survive one marrying pass.

    ``case1`` holds (k, l) pairs and ``case2`` holds (k, l1, l2) triples
    with l1 the child of i; the report is empty exactly when the saturated
    pair statement still holds after one pass of directed moralization.
    """

    i: int
    j: int
    case1: tuple
    case2: tuple

    @property
    def n1(self) -> int:
        return len(self.case1)

    @property
    def n2(self) -> int:
        return len(self.case2)

    @property
    def clear(self) -> bool:
        return not (self.case1 or self.case2)


def moralization_obstructions(dag: Dag, i, j) -> ObstructionReport:
    """Find the patterns that give i and j a common child after one pass.

    Requires i and j non-adjacent with no common child.  Case 1 is a pair
    k < l above both with the induced graph {i->k, j->l, k->l} (or its
    mirror); case 2 is a triple k < l1, l2 with the induced graph
    {i->l1, j->l2, k->l1, k->l2}.
    """
    i, j = int(i), int(j)
    known = set(dag.vertices)
    if i == j or i not in known or j not in known:
        raise BadGraphError(f"need two distinct vertices, got {i}, {j}")
    i, j = min(i, j), max(i, j)
    children = dag._children
    if dag.adjacent(i, j):
        raise PreconditionError(f"{i} and {j} are adjacent")
    if children[i] & children[j]:
        raise PreconditionError(f"{i} and {j} already share a child")

    def induced(sub):
        return {e for e in dag.edges if e[0] in sub and e[1] in sub}

    case1 = []
    for k in dag.vertices:
        if k <= j:
            continue
        for l in dag.vertices:
            if l <= k:
                continue
            got = induced({i, j, k, l})
            if got in ({(i, k), (j, l), (k, l)}, {(i, l), (j, k), (k, l)}):
                case1.append((k, l))
    case2 = []
    for k in dag.vertices:
        if k <= j:
            continue
        for l1, l2 in itertools.combinations(dag.vertices, 2):
            if l1 <= k:
                continue
            got = induced({i, j, k, l1, l2})
            if got == {(i, l1), (j, l2), (k, l1), (k, l2)}:
                case2.append((k, l1, l2))
            elif got == {(i, l2), (j, l1), (k, l1), (k, l2)}:
                case2.append((k, l2, l1))
    return ObstructionReport(i, j, tuple(case1), tuple(case2))


def _dot(kind, arrow, graph, label) -> str:
    lines = [f"{kind} G {{"]
    if label:
        lines.append(f'  label="{label}";')
    lines.extend(f"  {v};" for v in graph.vertices)
    lines.extend(f"  {u} {arrow} {v};" for u, v in graph.sorted_edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def dag_to_dot(dag: Dag, label="") -> str:
    """Deterministic DOT text for a directed graph."""
    return _dot("digraph", "->", dag, label)


def undirected_to_dot(graph: UndirectedGraph, label="") -> str:
    """Deterministic DOT text for an undirected graph."""
    return _dot("graph", "--", graph, label)


def context_dag_to_dot(cdag: ContextDag) -> str:
    return dag_to_dot(cdag.dag, label=str(cdag.context))


def dag_to_json(value) -> dict:
    """Serialize a Dag or ContextDag."""
    if isinstance(value, ContextDag):
        out = dag_to_json(value.dag)
        out["context"] = {str(v): x for v, x in value.context.items}
        return out
    return {
        "vertices": list(value.vertices),
        "edges": [list(e) for e in value.sorted_edges()],
    }


def _edge(value) -> tuple:
    edge = _shaped(value, list, "an edge", BadGraphError)
    if len(edge) != 2:
        raise BadGraphError(f"an edge must be a pair of vertices, got {value!r}")
    return tuple(_shaped(v, int, "an edge end", BadGraphError) for v in edge)


def dag_from_json(data):
    """Parse a Dag, or a ContextDag when a ``context`` field is present.

    ``{"vertices": [1, 2, 3], "edges": [[1, 3]], "context": {"4": 0}}``; a
    field of the wrong JSON type raises BadGraphError (BadIndexError for
    the context)."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if "vertices" not in _shaped(data, dict, "a DAG fixture", BadGraphError):
        raise BadGraphError("DAG fixture needs a 'vertices' list")
    vertices = _shaped(data["vertices"], list, "'vertices'", BadGraphError)
    dag = Dag.of(
        (_shaped(v, int, "a vertex", BadGraphError) for v in vertices),
        map(_edge, _shaped(data.get("edges", ()), list, "'edges'", BadGraphError)),
    )
    if "context" in data:
        return ContextDag(_fixture_context(data["context"]), dag)
    return dag


def dags_from_json(data) -> tuple:
    """Parse a ``{"dags": [...]}`` collection into ContextDags.

    Entries without a context get the empty one.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if "dags" not in _shaped(data, dict, "a DAG collection", BadGraphError):
        raise BadGraphError("DAG collection needs a 'dags' list")
    out = []
    for entry in _shaped(data["dags"], list, "'dags'", BadGraphError):
        parsed = dag_from_json(entry)
        if isinstance(parsed, Dag):
            parsed = ContextDag(Context(), parsed)
        out.append(parsed)
    return tuple(out)
