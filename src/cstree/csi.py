"""Context-specific conditional independence statements and inference rules.

A statement reads X_A independent of X_B given X_S in the context X_C = x_C.
The rule functions each take statements whose shapes already match the rule
pattern and return the conclusion; shape problems raise instead of silently
producing nonsense.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import (
    IncompleteFamilyError,
    OverlappingSetsError,
    ShapeMismatchError,
)
from .model import Context, VariableSystem


@dataclass(frozen=True)
class CsiStatement:
    """X_A _||_ X_B | X_S in the context ``context``.

    A and B are nonempty; A, B, S, and the context keys are pairwise
    disjoint.  ``canonicalize`` orders the pair so min(A) < min(B).
    """

    a: frozenset
    b: frozenset
    s: frozenset = frozenset()
    context: Context = Context()

    def __post_init__(self):
        a = frozenset(int(v) for v in self.a)
        b = frozenset(int(v) for v in self.b)
        s = frozenset(int(v) for v in self.s)
        ctx = Context.of(self.context)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "context", ctx)
        if not a or not b:
            raise ShapeMismatchError("both independence blocks must be nonempty")
        blocks = (a, b, s, frozenset(ctx.keys))
        if len(a | b | s | blocks[3]) != sum(len(x) for x in blocks):
            raise OverlappingSetsError(f"overlapping blocks in {a}, {b}, {s}, {ctx}")

    def canonicalize(self) -> "CsiStatement":
        if min(self.a) <= min(self.b):
            return self
        return CsiStatement(self.b, self.a, self.s, self.context)

    def variables(self) -> frozenset:
        return self.a | self.b | self.s | frozenset(self.context.keys)

    def __str__(self):
        return format_statement(self)


def is_saturated(statement: CsiStatement, system: VariableSystem) -> bool:
    """Whether the statement touches every variable of the system."""
    return statement.variables() == frozenset(system.variables)


def format_statement(statement: CsiStatement) -> str:
    """Render like ``3 _||_ 1 | 2 [X2=0]``.

    The bar lists the conditioning variables, pinned ones included; the
    bracket carries the pinned values.
    """
    a = ",".join(str(v) for v in sorted(statement.a))
    b = ",".join(str(v) for v in sorted(statement.b))
    text = f"{a} _||_ {b}"
    cond = sorted(statement.s | set(statement.context.keys))
    if cond:
        text += " | " + ",".join(str(v) for v in cond)
    if statement.context:
        text += f" [{statement.context}]"
    return text


_CTX_ENTRY = re.compile(r"X(\d+)=(\d+)")


def _parse_vars(text: str) -> frozenset:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise ShapeMismatchError(f"bad variable list {text!r}") from None


def parse_statement(text: str) -> CsiStatement:
    """Inverse of ``format_statement``; returns the canonicalized statement.

    The conditioning list after the bar holds S plus the context variables;
    the bracket pins the context values.  Context entries absent from the
    bar are tolerated.
    """
    body = text.strip()
    ctx = Context()
    bracket = re.search(r"\[([^\]]*)\]\s*$", body)
    if bracket:
        pairs = {}
        for part in bracket.group(1).split(","):
            m = _CTX_ENTRY.fullmatch(part.strip())
            if not m:
                raise ShapeMismatchError(f"bad context entry {part.strip()!r}")
            pairs[int(m.group(1))] = int(m.group(2))
        ctx = Context.of(pairs)
        body = body[: bracket.start()].strip()
    if "_||_" not in body:
        raise ShapeMismatchError(f"no independence symbol in {text!r}")
    a_text, rest = body.split("_||_", 1)
    if "|" in rest:
        b_text, cond_text = rest.split("|", 1)
        cond = _parse_vars(cond_text)
    else:
        b_text, cond = rest, frozenset()
    a, b = _parse_vars(a_text), _parse_vars(b_text)
    s = cond - frozenset(ctx.keys)
    return CsiStatement(a, b, s, ctx).canonicalize()


def symmetry(statement: CsiStatement) -> CsiStatement:
    """A _||_ B | S  gives  B _||_ A | S."""
    return CsiStatement(statement.b, statement.a, statement.s, statement.context)


def decomposition(statement: CsiStatement, drop) -> CsiStatement:
    """Forget part of the second block: A _||_ B u D | S  gives  A _||_ B | S."""
    drop = frozenset(drop)
    if not drop or not drop < statement.b:
        raise ShapeMismatchError("must drop a nonempty proper subset of the second block")
    return CsiStatement(statement.a, statement.b - drop, statement.s, statement.context)


def weak_union(statement: CsiStatement, move) -> CsiStatement:
    """A _||_ B u D | S  gives  A _||_ B | S u D."""
    move = frozenset(move)
    if not move or not move < statement.b:
        raise ShapeMismatchError("must move a nonempty proper subset of the second block")
    return CsiStatement(
        statement.a, statement.b - move, statement.s | move, statement.context
    )


def contraction(first: CsiStatement, second: CsiStatement) -> CsiStatement:
    """A _||_ B | S u D  with  A _||_ D | S  gives  A _||_ B u D | S."""
    if first.context != second.context or first.a != second.a:
        raise ShapeMismatchError("contraction inputs must share the first block and context")
    d = second.b
    if not d <= first.s or second.s != first.s - d:
        raise ShapeMismatchError(
            "the second statement's block must be the first's extra conditioning"
        )
    return CsiStatement(first.a, first.b | d, second.s, first.context)


def intersection(first: CsiStatement, second: CsiStatement) -> CsiStatement:
    """A _||_ B | S u D  with  A _||_ S | B u D  gives  A _||_ B u S | D."""
    if first.context != second.context or first.a != second.a:
        raise ShapeMismatchError("intersection inputs must share the first block and context")
    s_part = second.b
    if not s_part <= first.s:
        raise ShapeMismatchError("the second block must come from the first's conditioning")
    d = first.s - s_part
    if second.s != first.b | d:
        raise ShapeMismatchError("conditioning sets do not interlock")
    return CsiStatement(first.a, first.b | s_part, d, first.context)


def specialization(statement: CsiStatement, assignment) -> CsiStatement:
    """Pin part of the conditioning set at fixed values.

    A _||_ B | S u T  gives  A _||_ B | S in the context X_T = x_T.
    """
    extra = Context.of(assignment)
    pinned = frozenset(extra.keys)
    if not pinned or not pinned <= statement.s:
        raise ShapeMismatchError("can only pin variables from the conditioning set")
    return CsiStatement(
        statement.a,
        statement.b,
        statement.s - pinned,
        statement.context.merge(extra),
    )


def absorption(family, variables, system: VariableSystem) -> CsiStatement:
    """Merge a complete outcome family over T back into the conditioning set.

    ``family`` must contain, for every assignment x_T, the statement
    A _||_ B | S in the context extending the common residue by X_T = x_T;
    the conclusion conditions on T instead.  Missing assignments raise
    IncompleteFamily.
    """
    t = tuple(sorted(set(int(v) for v in variables)))
    if not t:
        raise ShapeMismatchError("need at least one variable to absorb")
    family = list(family)
    if not family:
        raise IncompleteFamilyError("empty statement family")
    base = family[0]
    residue = base.context.drop(t)
    seen = {}
    for st in family:
        if (st.a, st.b, st.s) != (base.a, base.b, base.s):
            raise ShapeMismatchError("family members disagree outside the context")
        if st.context.drop(t) != residue:
            raise ShapeMismatchError("family members disagree on the residual context")
        vals = tuple(st.context.get(v) for v in t)
        if any(x is None for x in vals):
            raise ShapeMismatchError(f"family member does not pin all of {t}")
        seen[vals] = st
    full = set(itertools.product(*(range(system.card(v)) for v in t)))
    missing = full - set(seen)
    if missing:
        raise IncompleteFamilyError(f"missing assignments {sorted(missing)} over {t}")
    return CsiStatement(base.a, base.b, base.s | set(t), residue)


def cstree_rule(first: CsiStatement, second: CsiStatement, system=None) -> CsiStatement:
    """Combine two full-context statements about one variable.

    With A u B u C covering every earlier variable,
    X_k _||_ X_A in the context x_B x_C together with
    X_k _||_ X_B in the context x_A x_C give X_k _||_ X_{A u B} | X_C = x_C.
    Both inputs need empty conditioning sets and matching pinned values.
    When ``system`` is given, the earlier variables are read off it;
    otherwise they are assumed to be 1..k-1.
    """
    for st in (first, second):
        if st.s:
            raise ShapeMismatchError("inputs must pin all conditioning in the context")
    singles = lambda st: {next(iter(x)) for x in (st.a, st.b) if len(x) == 1}
    shared = singles(first) & singles(second)
    if not shared:
        raise ShapeMismatchError("no shared singleton variable")
    k = max(shared)
    key = frozenset({k})
    a = first.b if first.a == key else first.a
    b = second.b if second.a == key else second.a
    if a & b:
        raise ShapeMismatchError("the two free blocks overlap")
    keys1 = frozenset(first.context.keys)
    keys2 = frozenset(second.context.keys)
    if not (b <= keys1 and a <= keys2):
        raise ShapeMismatchError("each context must pin the other statement's block")
    c = keys1 - b
    if c != keys2 - a:
        raise ShapeMismatchError("residual contexts disagree")
    if first.context.restrict(c) != second.context.restrict(c):
        raise ShapeMismatchError("pinned values disagree on the shared context")
    prior = (
        frozenset(system.prior_variables(k))
        if system is not None
        else frozenset(range(1, k))
    )
    if a | b | c != prior:
        raise ShapeMismatchError(
            f"blocks {sorted(a | b | c)} do not cover the variables before X{k}"
        )
    return CsiStatement(key, a | b, frozenset(), first.context.restrict(c))


_AXIOMS = {
    "symmetry": symmetry,
    "decomposition": decomposition,
    "weak-union": weak_union,
    "contraction": contraction,
    "intersection": intersection,
    "specialization": specialization,
    "absorption": absorption,
    "cstree-rule": cstree_rule,
}


def apply_axiom(name: str, *args, **kwargs) -> CsiStatement:
    """Dispatch a rule by name; see the individual functions for shapes."""
    try:
        rule = _AXIOMS[name]
    except KeyError:
        raise ShapeMismatchError(f"unknown rule {name!r}") from None
    return rule(*args, **kwargs)
