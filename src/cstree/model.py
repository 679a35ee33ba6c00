"""Variable systems, contexts, stages, and staged event trees.

The central object is a tree over ordered discrete variables X_1 < ... < X_p.
After observing the first k-1 variables we sit at a vertex of layer k-1, and
the distribution of X_k is attached to the *stage* of that vertex.  Stages
must be cylinder sets: all prefixes agreeing with a fixed assignment of some
subset of the earlier variables.  Vertices not covered by a listed stage are
their own singleton stages, so specs only list the coarse stages.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import (
    BadCardinalityError,
    BadIndexError,
    NotACylinderError,
    OverlapError,
)


@dataclass(frozen=True, order=True)
class Context:
    """A fixed assignment of outcomes to a subset of the variables.

    ``items`` is a tuple of (variable, value) pairs sorted by variable, so
    equal assignments compare equal and contexts order deterministically.
    The empty context is ``Context()``.
    """

    items: tuple = ()

    def __post_init__(self):
        items = tuple((int(v), int(x)) for v, x in self.items)
        object.__setattr__(self, "items", items)
        keys = [v for v, _ in items]
        if keys != sorted(set(keys)):
            raise BadIndexError(f"context keys must be distinct and sorted: {items}")

    @classmethod
    def of(cls, assignment) -> "Context":
        if isinstance(assignment, Context):
            return assignment
        if isinstance(assignment, dict):
            pairs = assignment.items()
        else:
            pairs = assignment
        return cls(tuple(sorted((int(v), int(x)) for v, x in pairs)))

    @property
    def keys(self) -> tuple:
        return tuple(v for v, _ in self.items)

    def as_dict(self) -> dict:
        return dict(self.items)

    def get(self, var, default=None):
        for v, x in self.items:
            if v == var:
                return x
        return default

    def merge(self, other) -> "Context":
        new = self.as_dict()
        for v, x in Context.of(other).items:
            if new.get(v, x) != x:
                raise BadIndexError(f"conflicting values for X{v}")
            new[v] = x
        return Context.of(new)

    def drop(self, variables) -> "Context":
        gone = set(variables)
        return Context(tuple((v, x) for v, x in self.items if v not in gone))

    def restrict(self, variables) -> "Context":
        keep = set(variables)
        return Context(tuple((v, x) for v, x in self.items if v in keep))

    def agrees_with(self, other) -> bool:
        """No conflicting value on any shared key."""
        mine = self.as_dict()
        return all(mine.get(v, x) == x for v, x in Context.of(other).items)

    def __str__(self):
        return ",".join(f"X{v}={x}" for v, x in self.items)

    def __bool__(self):
        return bool(self.items)


@dataclass(frozen=True)
class VariableSystem:
    """Ordered discrete variables with their outcome counts.

    ``variables`` holds the strictly increasing variable names (default
    1..p).  Outcomes are 0-based and every variable needs at least two.
    """

    cards: tuple
    variables: tuple = ()

    def __post_init__(self):
        cards = tuple(int(c) for c in self.cards)
        object.__setattr__(self, "cards", cards)
        if not cards:
            raise BadCardinalityError("need at least one variable")
        if any(c < 2 for c in cards):
            raise BadCardinalityError(f"every cardinality must be at least 2: {cards}")
        variables = tuple(int(v) for v in self.variables) or tuple(range(1, len(cards) + 1))
        object.__setattr__(self, "variables", variables)
        if len(variables) != len(cards):
            raise BadCardinalityError(
                f"{len(variables)} variables but {len(cards)} cardinalities"
            )
        if any(v <= 0 for v in variables) or list(variables) != sorted(set(variables)):
            raise BadIndexError(f"variable names must be strictly increasing: {variables}")

    @property
    def p(self) -> int:
        return len(self.cards)

    def position(self, var: int) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise BadIndexError(f"unknown variable X{var}") from None

    def card(self, var: int) -> int:
        return self.cards[self.position(var)]

    def pinned(self, context: Context) -> dict:
        """{position: value} for a context; an unknown variable or a value
        out of range raises BadIndexError."""
        out = {}
        for v, x in context.items:
            pos = self.position(v)
            if not 0 <= x < self.cards[pos]:
                raise BadIndexError(f"context value {x} out of range for X{v}")
            out[pos] = x
        return out

    def prior_variables(self, var: int) -> tuple:
        return self.variables[: self.position(var)]

    def outcomes(self):
        """All full outcome tuples, lexicographically."""
        return itertools.product(*(range(c) for c in self.cards))

    def level_vertices(self, length: int):
        """All prefixes of the given length, lexicographically."""
        return itertools.product(*(range(c) for c in self.cards[:length]))


@dataclass(frozen=True)
class Stage:
    """One stage: the cylinder of a fixed context, governing one variable.

    ``level`` names the governed variable X_k; the member vertices live one
    layer earlier and are exactly the prefixes agreeing with ``context``.
    ``members`` may carry an explicit vertex set before validation;
    ``validate`` resolves it to a context or rejects it.
    """

    level: int
    context: Context | None = None
    members: tuple | None = None


@dataclass(frozen=True)
class CStreeSpec:
    """A staged tree, given by the listed (non-singleton) stages per level.

    ``levels[i]`` collects the stages governing ``system.variables[i]``.
    After ``validate`` the listing is canonical: every stage intensional,
    singletons dropped, stages sorted by context, so equal trees compare
    equal as dataclasses.
    """

    system: VariableSystem
    levels: tuple = ()

    def listed_stages(self, var: int) -> tuple:
        pos = self.system.position(var)
        return self.levels[pos] if pos < len(self.levels) else ()


def stage_members(system: VariableSystem, stage: Stage) -> tuple:
    """The vertices covered by an intensional stage, in lex order."""
    pos = system.position(stage.level)
    pinned = {system.position(v): x for v, x in stage.context.items}
    axes = [
        (pinned[i],) if i in pinned else range(system.cards[i]) for i in range(pos)
    ]
    return tuple(itertools.product(*axes))


def level_stage_map(tree: CStreeSpec, var: int) -> dict:
    """vertex -> stage for one layer, in lex vertex order, implicit
    singletons filled in.  The one place that decides stage membership."""
    system = tree.system
    pos = system.position(var)
    listed = {}
    for stage in tree.listed_stages(var):
        for v in stage_members(system, stage):
            listed[v] = stage
    prior = system.variables[:pos]
    return {
        v: listed.get(v) or Stage(var, Context(tuple(zip(prior, v))))
        for v in system.level_vertices(pos)
    }


def _resolve_stage(system: VariableSystem, stage: Stage) -> Stage:
    var = stage.level
    pos = system.position(var)
    if stage.context is not None:
        ctx = Context.of(stage.context)
        for v, x in ctx.items:
            if v not in system.variables[:pos]:
                raise BadIndexError(f"context key X{v} does not come before X{var}")
            if not 0 <= x < system.card(v):
                raise BadIndexError(f"context value {x} out of range for X{v}")
        resolved = Stage(var, ctx)
        if stage.members is not None:
            given = tuple(sorted(tuple(int(x) for x in m) for m in stage.members))
            if given != stage_members(system, resolved):
                raise NotACylinderError(
                    f"members at level {var} disagree with the context {ctx}"
                )
        return resolved
    if not stage.members:
        raise BadIndexError(f"stage at level {var} needs a context or members")
    members = [tuple(int(x) for x in m) for m in stage.members]
    for m in members:
        if len(m) != pos:
            raise BadCardinalityError(
                f"member {m} has length {len(m)}, level {var} needs {pos}"
            )
        for i, x in enumerate(m):
            if not 0 <= x < system.cards[i]:
                raise BadIndexError(f"member digit {x} out of range at position {i}")
    if len(set(members)) != len(members):
        raise OverlapError(f"repeated member vertex at level {var}")
    fixed = [i for i in range(pos) if len({m[i] for m in members}) == 1]
    ctx = Context(tuple((system.variables[i], members[0][i]) for i in fixed))
    resolved = Stage(var, ctx)
    if tuple(sorted(members)) != stage_members(system, resolved):
        raise NotACylinderError(
            f"members {sorted(members)} at level {var} are not a context cylinder"
        )
    return resolved


def _resolve_level(system: VariableSystem, var: int, stages) -> list:
    """The resolved stages listed under level ``var``.

    Each must govern ``var`` (BadIndex) and resolve to a cylinder; two
    cylinders of one layer are disjoint exactly when their contexts
    conflict somewhere, so pairwise agreement raises Overlap.
    """
    resolved = []
    for st in stages:
        if st.level != var:
            raise BadIndexError(f"stage for level {st.level} listed under level {var}")
        resolved.append(_resolve_stage(system, st))
    for a, b in itertools.combinations(resolved, 2):
        if a.context.agrees_with(b.context):
            raise OverlapError(
                f"stages [{a.context}] and [{b.context}] at level {var} overlap"
            )
    return resolved


def validate(tree: CStreeSpec) -> CStreeSpec:
    """Check the staging contract and return the canonical form.

    Extensional member sets must be exactly the cylinder of some context
    (NotACylinder) and are resolved; stage contexts may only pin earlier
    variables (BadIndex); listed stages at one level must be pairwise
    disjoint (Overlap), which for cylinders means their contexts conflict
    somewhere.  More levels than variables raise BadIndex; fewer are legal,
    an omitted level being all singletons.  Stages pinning every earlier
    variable are singletons and are dropped from the listing.
    """
    system = tree.system
    if len(tree.levels) > system.p:
        raise BadIndexError(f"{len(tree.levels)} levels listed for {system.p} variables")
    new_levels = []
    for pos, var in enumerate(system.variables):
        stages = tree.levels[pos] if pos < len(tree.levels) else ()
        resolved = _resolve_level(system, var, stages)
        kept = tuple(
            sorted(
                (s for s in resolved if len(s.context.items) < pos),
                key=lambda s: s.context.items,
            )
        )
        new_levels.append(kept)
    return CStreeSpec(system, tuple(new_levels))


def stage_statement(tree: CStreeSpec, stage: Stage):
    """The independence statement a stage encodes, or None.

    A stage with context (C, x_C) at level k says X_k is independent of the
    unpinned earlier variables given that context; when every earlier
    variable is pinned there is nothing to say.
    """
    from .csi import CsiStatement

    system = tree.system
    pos = system.position(stage.level)
    rest = tuple(v for v in system.variables[:pos] if stage.context.get(v) is None)
    if not rest:
        return None
    return CsiStatement(
        frozenset({stage.level}), frozenset(rest), frozenset(), stage.context
    )


def tree_statements(tree: CStreeSpec) -> tuple:
    """The non-vacuous statements of all listed stages, level by level."""
    out = []
    for var in tree.system.variables:
        for stage in tree.listed_stages(var):
            statement = stage_statement(tree, stage)
            if statement is not None:
                out.append(statement)
    return tuple(out)


def tree_of_dag(dag, cards) -> CStreeSpec:
    """The staged tree whose stages mirror a DAG's parent structure.

    Each level gets one stage per assignment of the governed variable's
    parents; a full parent set makes the level all singletons, so nothing
    is listed for it.  ``cards`` aligns with ``dag.vertices``.
    """
    system = VariableSystem(tuple(cards), tuple(dag.vertices))
    levels = []
    for pos, var in enumerate(system.variables):
        pa = sorted(dag.parents(var))
        if len(pa) == pos:
            levels.append(())
            continue
        stages = tuple(
            Stage(var, Context(tuple(zip(pa, vals))))
            for vals in itertools.product(*(range(system.card(u)) for u in pa))
        )
        levels.append(stages)
    return validate(CStreeSpec(system, tuple(levels)))


def context_subtree(tree: CStreeSpec, context) -> CStreeSpec:
    """The tree on the remaining variables after pinning a context.

    Branches disagreeing with the pinned values are deleted and the pinned
    levels contracted; a surviving stage keeps its context with the pinned
    keys dropped.  ``context_subtree(tree, Context())`` is the tree itself.
    """
    system = tree.system
    ctx = Context.of(context)
    pinned = system.pinned(ctx)
    keep = [v for pos, v in enumerate(system.variables) if pos not in pinned]
    if not keep:
        raise BadIndexError("cannot pin every variable")
    sub_system = VariableSystem(tuple(system.card(v) for v in keep), tuple(keep))
    levels = tuple(
        tuple(
            Stage(var, st.context.drop(ctx.keys))
            for st in tree.listed_stages(var)
            if st.context.agrees_with(ctx)
        )
        for var in keep
    )
    return validate(CStreeSpec(sub_system, levels))


def format_outcome(values) -> str:
    """Digit-string form of an outcome or vertex, '021' style.

    Falls back to dot-separated values once a digit would not fit.
    """
    values = tuple(values)
    if all(0 <= x <= 9 for x in values):
        return "".join(str(x) for x in values)
    return ".".join(str(x) for x in values)


_SHAPES = {int: "an integer", list: "a list", dict: "an object"}


def _shaped(value, shape, what, error=BadIndexError):
    """``value`` when it has the JSON shape ``shape`` (int, list or dict),
    else a typed error naming the field: the fixture parser's one check."""
    kinds = (list, tuple) if shape is list else shape
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise error(f"{what} must be {_SHAPES[shape]}, got {value!r}")
    return value


def _parse_member(value):
    if isinstance(value, str):
        if not value.isdecimal():
            raise BadCardinalityError(
                f"member string {value!r} must be decimal digits (cards <= 10)"
            )
        return tuple(int(ch) for ch in value)
    value = _shaped(value, list, "a member", BadCardinalityError)
    return tuple(_shaped(x, int, "a member digit", BadCardinalityError) for x in value)


def _fixture_context(value) -> Context:
    pairs = _shaped(value, dict, "'context'")
    for key in pairs:
        if not str(key).isdecimal():
            raise BadIndexError(f"context key {key!r} must be a variable name")
    return Context.of(
        {int(k): _shaped(x, int, "a context value") for k, x in pairs.items()}
    )


def spec_from_json(data) -> CStreeSpec:
    """Parse the fixture format and validate.

    ``{"p": 3, "cards": [2, 2, 2], "levels": [{"level": 3, "stages": [
    {"context": {"2": 0}}, {"members": ["01", "11"]}]}]}``

    Context keys are variable names as decimal strings; members are
    concatenated outcome digits (usable while every cardinality is at most
    10).  A stage entry giving both must have members equal to the
    context's cylinder.  An optional ``variables`` list names the variables
    when they are not 1..p; context-subtree output uses this.  A field of
    the wrong JSON type raises BadCardinalityError (cards, p, members) or
    BadIndexError.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict) or not isinstance(data.get("cards"), (list, tuple)):
        raise BadCardinalityError("fixture needs a 'cards' list")
    cards = tuple(
        _shaped(c, int, "a cardinality", BadCardinalityError) for c in data["cards"]
    )
    names = _shaped(data.get("variables", ()), list, "'variables'")
    system = VariableSystem(
        cards, tuple(_shaped(v, int, "a variable name") for v in names)
    )
    if "p" in data:
        if _shaped(data["p"], int, "'p'", BadCardinalityError) != system.p:
            raise BadCardinalityError(f"p={data['p']} but {system.p} cards given")
    levels = [[] for _ in range(system.p)]
    for entry in _shaped(data.get("levels", ()), list, "'levels'"):
        if "level" not in _shaped(entry, dict, "a level entry"):
            raise BadIndexError("level entry needs a 'level' key")
        var = _shaped(entry["level"], int, "'level'")
        pos = system.position(var)
        for raw in _shaped(entry.get("stages", ()), list, "'stages'"):
            context = members = None
            if "context" in _shaped(raw, dict, "a stage entry"):
                context = _fixture_context(raw["context"])
            if "members" in raw:
                given = _shaped(raw["members"], list, "'members'", BadCardinalityError)
                members = tuple(_parse_member(m) for m in given)
            levels[pos].append(Stage(var, context, members))
    return validate(CStreeSpec(system, tuple(tuple(l) for l in levels)))


def spec_to_json(tree: CStreeSpec) -> dict:
    """Inverse of ``spec_from_json`` on validated trees (context form only)."""
    system = tree.system
    out = {"p": system.p, "cards": list(system.cards)}
    if system.variables != tuple(range(1, system.p + 1)):
        out["variables"] = list(system.variables)
    levels = []
    for pos, var in enumerate(system.variables):
        stages = tree.levels[pos] if pos < len(tree.levels) else ()
        if not stages:
            continue
        levels.append(
            {
                "level": var,
                "stages": [
                    {"context": {str(v): x for v, x in st.context.items}}
                    for st in stages
                ],
            }
        )
    if levels:
        out["levels"] = levels
    return out


def load_spec(path) -> CStreeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))
