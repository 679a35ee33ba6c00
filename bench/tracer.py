"""Per-layer spans recorded from outside cstree.

``install`` wraps the public functions the benchmark attributes time to,
in every ``cstree`` namespace that binds them (``contexts`` imports
``statement_holds`` by name, ``cli._METHODS`` holds the basis functions),
and patches the ``SparsePoly`` kernel methods on the class.  Nothing under
``src/`` changes.

Every wrapped call becomes a span with a name, a start, an end and a
parent, kept in memory until the pass ends.  A span's self time is its
duration minus the durations of its child spans.  The ``cli.<command>``
spans are transparent: they report their total only, and their children
count against ``cli.main``, so that ``cli.main`` self time is what the CLI
does outside the library (argument parsing, JSON read and emit).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array


class Tracer:
    """Spans of one pass, stored as parallel arrays until ``summary``."""

    def __init__(self):
        self.names = []
        self.transparent = set()
        self.counts = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []

    def wrap(self, fn, name, count=None, transparent=False):
        """``fn`` recording one span per call; ``count(counts, result,
        *args)`` runs after the span closes."""
        nid = len(self.names)
        self.names.append(name)
        if transparent:
            self.transparent.add(nid)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, result, *args)
            return result

        return traced

    def summary(self, loop_start: float, loop_end: float) -> dict:
        """Calls, total and self seconds per span name, the counters, and
        the self time of spans that ran inside [loop_start, loop_end]."""
        n = len(self._start)
        child = [0.0] * n
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        transparent = self.transparent
        for i in range(n):
            if names[i] in transparent:
                continue
            p = parents[i]
            while p >= 0 and names[p] in transparent:
                p = parents[p]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        table = {name: [0, 0.0, 0.0] for name in self.names}
        loop_self = 0.0
        for i in range(n):
            row = table[self.names[names[i]]]
            duration = ends[i] - starts[i]
            row[0] += 1
            row[1] += duration
            if names[i] not in transparent:
                own = duration - child[i]
                row[2] += own
                if loop_start <= starts[i] and ends[i] <= loop_end:
                    loop_self += own
        return {
            "spans": table,
            "counts": dict(self.counts),
            "loop_self_s": loop_self,
            "span_count": n,
        }


def _count_mul(counts, result, a, b):
    nb = int(bool(b)) if isinstance(b, int) else len(b.terms)
    counts["poly.mul.term_products"] += len(a.terms) * nb
    counts["poly.mul.max_terms"] = max(
        counts["poly.mul.max_terms"], len(a.terms), nb, len(result.terms)
    )


def _count_refuted(counts, result, *args):
    counts["algebra.statement_zero_at.refuted"] += not result


def _count_confirmed(counts, result, *args):
    counts["algebra.statement_holds.confirmed"] += bool(result)


def _count_balanced(counts, result, *args):
    counts["algebra.is_balanced.balanced"] += bool(result[0])


def _count_fibers(counts, result, *args):
    counts["algebra.fibers_connected.tables"] += result.tables
    counts["algebra.fibers_connected.fibers"] += result.fibers


def _count_contexts(counts, result, tree, *args):
    # Contexts on proper subsets of the variables, the empty one included:
    # the candidates minimal_contexts walks.
    cards = tree.system.cards
    counts["contexts.minimal_contexts.tried"] += math.prod(c + 1 for c in cards) - math.prod(cards)
    counts["contexts.minimal_contexts.kept"] += len(result)


def _count_binomials(counts, result, *args):
    counts["bases.binomials"] += len(result)


# (span name = cstree module and function, counter)
FUNCTIONS = [
    ("algebra.is_balanced", _count_balanced),
    ("algebra.statement_zero_at", _count_refuted),
    ("algebra.statement_holds", _count_confirmed),
    ("algebra.statement_polynomials", None),
    ("algebra.vanishes", None),
    ("algebra.outcome_probabilities", None),
    ("algebra.fibers_connected", _count_fibers),
    ("algebra.exponent_matrix", None),
    ("contexts.minimal_contexts", _count_contexts),
    ("contexts.context_dag", None),
    ("contexts.separation_disagreements", None),
    ("bases.markov_basis_saturated", _count_binomials),
    ("bases.quad_lift_basis", _count_binomials),
    ("bases.perfect_context_basis", _count_binomials),
    ("bases.statement_binomials", None),
    ("graphs.is_perfect", None),
    ("graphs.to_perfect", None),
    ("graphs.saturated_statements", None),
    ("model.validate", None),
    ("model.context_subtree", None),
    ("model.level_stage_map", None),
    ("lab.random_cstree", None),
    ("lab.check_theorem_p3", None),
    ("lab.classify_p3", None),
    ("cli.main", None),
]

CLI_COMMANDS = (
    "validate", "contexts", "balance", "basis", "verify", "moralize", "subtree", "enumerate",
)

# SparsePoly methods patched on the class (``__rmul__`` is ``__mul__``).
METHODS = [
    ("__mul__", "poly.mul", _count_mul),
    ("__add__", "poly.add", None),
    ("substitute", "poly.substitute", None),
]

COUNTERS = (
    "poly.mul.term_products",
    "poly.mul.max_terms",
    "algebra.is_balanced.balanced",
    "algebra.statement_zero_at.refuted",
    "algebra.statement_holds.confirmed",
    "algebra.fibers_connected.tables",
    "algebra.fibers_connected.fibers",
    "contexts.minimal_contexts.tried",
    "contexts.minimal_contexts.kept",
    "bases.binomials",
)


def _rebind(original, traced):
    """Point every cstree binding of ``original`` at ``traced``, including
    values of module-level dicts such as ``cli._METHODS``."""
    for name, module in list(sys.modules.items()):
        if name != "cstree" and not name.startswith("cstree."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, traced)
            elif isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = traced


def install(tracer: Tracer) -> None:
    """Wrap the listed cstree functions and SparsePoly methods."""
    import cstree.cli  # noqa: F401  (binds every module the CLI uses)
    from cstree.poly import SparsePoly

    for key in COUNTERS:
        tracer.counts[key] = 0
    for name, count in FUNCTIONS:
        module, func = name.split(".")
        original = getattr(sys.modules[f"cstree.{module}"], func)
        _rebind(original, tracer.wrap(original, name, count))
    for command in CLI_COMMANDS:
        original = getattr(sys.modules["cstree.cli"], f"_cmd_{command}")
        _rebind(original, tracer.wrap(original, f"cli.{command}", transparent=True))
    for method, name, count in METHODS:
        original = SparsePoly.__dict__[method]
        traced = tracer.wrap(original, name, count)
        for attr, value in list(SparsePoly.__dict__.items()):
            if value is original:
                setattr(SparsePoly, attr, traced)
