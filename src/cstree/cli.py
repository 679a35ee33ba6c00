"""Command line interface.

Every subcommand reads JSON inputs and prints a JSON report on stdout
(``basis --format text`` prints plain lines instead).  Exit codes: 0 when
the requested check passes or output is produced, 1 for usage, IO, or
validation problems, 2 when a property was checked and found violated.
Failures print one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import warnings

from . import __version__
from .errors import (
    BadCardinalityError,
    BadIndexError,
    CStreeError,
    PreconditionError,
    UsageError,
)
from .model import (
    Context,
    VariableSystem,
    context_subtree,
    format_outcome,
    spec_from_json,
    spec_to_json,
    tree_statements,
)
from .graphs import (
    ContextDag,
    context_dag_to_dot,
    dag_from_json,
    dag_to_json,
    dags_from_json,
    directed_moralize,
    is_perfect,
    to_perfect,
)
from .algebra import (
    _check_fiber_bound,
    _integer_probabilities,
    _nonvanishing,
    exponent_matrix,
    fibers_connected,
    is_balanced,
)
from .contexts import minimal_contexts, separation_disagreements
from .bases import (
    basis_to_json,
    basis_to_text,
    markov_basis_saturated,
    perfect_context_basis,
    quad_lift_basis,
)
from .lab import check_theorem_p3, classify_p3, count_cstrees


def _read(path):
    """One read per fixture, so pipes hash exactly what gets parsed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    envelope = {
        "tool": "cstree",
        "version": __version__,
        "fixture": {
            "path": str(path),
            "sha256": hashlib.sha256(raw).hexdigest(),
        },
    }
    return raw, envelope


def _load_tree(path):
    raw, envelope = _read(path)
    return spec_from_json(json.loads(raw)), envelope


def _emit(report: dict):
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _fail(exc: Exception):
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[:-5]
    json.dump({"error": {"type": name, "message": str(exc)}}, sys.stderr)
    sys.stderr.write("\n")


def _parse_context(text: str) -> Context:
    text = (text or "").strip()
    if not text:
        return Context()
    pairs = {}
    try:
        for part in text.split(","):
            name, _, val = part.partition("=")
            var = int(name.strip().lstrip("X"))
            if var in pairs:
                raise BadIndexError(f"X{var} is pinned twice in {text!r}")
            pairs[var] = int(val.strip())
    except ValueError:
        raise BadIndexError(f"context must look like '2=0,3=1', got {text!r}") from None
    return Context.of(pairs)


def _cmd_validate(args) -> int:
    tree, report = _load_tree(args.fixture)
    report.update(
        {
            "valid": True,
            "p": tree.system.p,
            "cards": list(tree.system.cards),
            "listed_stages": {
                str(var): len(tree.listed_stages(var))
                for var in tree.system.variables
                if tree.listed_stages(var)
            },
            "statements": [str(s) for s in tree_statements(tree)],
        }
    )
    _emit(report)
    return 0


def _cmd_contexts(args) -> int:
    tree, report = _load_tree(args.fixture)
    cdags = minimal_contexts(tree)
    report["contexts"] = [
        {
            "context": str(cd.context),
            "vertices": list(cd.dag.vertices),
            "edges": [list(e) for e in cd.dag.sorted_edges()],
            "perfect": is_perfect(cd.dag),
        }
        for cd in cdags
    ]
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        written = []
        for cd in cdags:
            name = f"g_{cd.context}.dot" if cd.context else "g_empty.dot"
            path = os.path.join(args.dot, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(context_dag_to_dot(cd))
            written.append(path)
        report["dot_files"] = written
    code = 0
    if args.check_oracle:
        mismatches = separation_disagreements(tree, cdags)
        report["oracle_disagreements"] = [
            {"context": str(ctx), "statement": str(st)} for ctx, st in mismatches
        ]
        if mismatches:
            code = 2
    _emit(report)
    return code


def _cmd_balance(args) -> int:
    tree, report = _load_tree(args.fixture)
    balanced, witness = is_balanced(tree, audit_all_pairs=args.audit_all_pairs)
    report["balanced"] = balanced
    if not balanced and args.witness:
        v, w = witness.pair
        report["witness"] = {
            "level": witness.level,
            "stage": str(witness.context),
            "vertices": [format_outcome(v), format_outcome(w)],
            "outcomes": list(witness.outcomes),
        }
    _emit(report)
    return 0 if balanced else 2


_METHODS = {
    "sat": markov_basis_saturated,
    "quad-lift": quad_lift_basis,
    "perfect": perfect_context_basis,
}


def _cmd_basis(args) -> int:
    tree, report = _load_tree(args.fixture)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis = _METHODS[args.method](tree)
    if args.format == "text":
        sys.stdout.write(basis_to_text(basis))
        return 0
    report.update(basis_to_json(basis))
    report["method"] = args.method
    report["count"] = len(basis)
    by_source = {}
    for binomial in basis:
        by_source[binomial.source] = by_source.get(binomial.source, 0) + 1
    report["count_by_source"] = by_source
    if caught:
        report["warnings"] = sorted(str(w.message) for w in caught)
    _emit(report)
    return 0


def _random_failures(tree, basis, seeds):
    """The basis binomials that do not vanish on the integer outcome table of
    each seed in turn.  A seed is drawn only when its table is needed, so
    the draws stop at the first failure."""
    for seed in seeds:
        probs = _integer_probabilities(tree, seed)
        for binomial in basis:
            (u1, u2), (v1, v2) = binomial.plus, binomial.minus
            if probs[u1] * probs[u2] != probs[v1] * probs[v2]:
                yield binomial


def _cmd_verify(args) -> int:
    tree, report = _load_tree(args.fixture)
    names = list(_METHODS) if args.method == "all" else [args.method]
    if args.trials < 1:
        raise PreconditionError(f"--trials must be at least 1, got {args.trials}")
    bound = args.fiber_bound
    cap = os.environ.get("CSTREE_MAX_FIBER")
    if cap is not None:
        try:
            cap = int(cap)
        except ValueError:
            raise PreconditionError(
                f"CSTREE_MAX_FIBER must be an integer, got {cap!r}"
            ) from None
        if cap < 0:
            raise PreconditionError(f"CSTREE_MAX_FIBER must be non-negative, got {cap}")
    capped = cap is not None and bound > cap
    if capped:
        bound = cap
    matrix = exponent_matrix(tree)
    _check_fiber_bound(matrix, bound)
    rng = random.Random(args.seed)
    run_random = args.random or not args.symbolic
    # The bases largely coincide, so each distinct move set is swept once.
    sweeps = {}
    results = {}
    all_ok = True
    for name in names:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            basis = _METHODS[name](tree)
        entry = {"count": len(basis)}
        checks = {}
        if run_random:
            seeds = (rng.randrange(1 << 30) for _ in range(args.trials))
            checks["random"] = _random_failures(tree, basis, seeds)
        if args.symbolic:
            checks["symbolic"] = _nonvanishing(tree, basis)
        for kind, failures in checks.items():
            failure = next(failures, None)
            if failure is not None:
                entry[f"{kind}_failure"] = failure.as_text()
            entry[f"{kind}_vanishing"] = failure is None
            all_ok = all_ok and failure is None
        moves = frozenset(binomial.key() for binomial in basis)
        if moves not in sweeps:
            sweeps[moves] = fibers_connected(matrix, basis, bound=bound)
        fiber = sweeps[moves]
        entry["fibers"] = {
            "connected": fiber.connected,
            "bound": fiber.bound,
            "tables": fiber.tables,
            "count": fiber.fibers,
        }
        if capped:
            entry["fibers"]["fiber_bound_capped"] = True
        if not fiber.connected:
            _, t1, t2 = fiber.witness
            entry["fibers"]["witness_tables"] = [list(t1), list(t2)]
        all_ok = all_ok and fiber.connected
        results[name] = entry
    report["methods"] = results
    report["ok"] = all_ok
    _emit(report)
    return 0 if all_ok else 2


def _load_dag(path, index):
    raw, envelope = _read(path)
    data = json.loads(raw)
    if isinstance(data, dict) and "dags" in data:
        dags = dags_from_json(data)
        if not 0 <= index < len(dags):
            raise BadIndexError(f"--index {index} out of range for {len(dags)} DAGs")
        return dags[index].dag, envelope
    parsed = dag_from_json(data)
    return (parsed.dag if isinstance(parsed, ContextDag) else parsed), envelope


def _cmd_moralize(args) -> int:
    dag, report = _load_dag(args.fixture, args.index)
    if args.iterate:
        final, passes = to_perfect(dag)
        report["passes"] = [[list(e) for e in round_] for round_ in passes]
    else:
        final, added = directed_moralize(dag)
        report["added"] = [list(e) for e in added]
    report["edges"] = [list(e) for e in final.sorted_edges()]
    report["perfect"] = is_perfect(final)
    _emit(report)
    return 0


def _cmd_subtree(args) -> int:
    tree, _ = _load_tree(args.fixture)
    sub = context_subtree(tree, _parse_context(args.context))
    _emit(spec_to_json(sub))
    return 0


def _cmd_enumerate(args) -> int:
    try:
        cards = tuple(int(c) for c in args.cards.split(","))
    except ValueError:
        raise BadCardinalityError(
            f"--cards must be comma-separated integers, got {args.cards!r}"
        ) from None
    report = {"tool": "cstree", "version": __version__, "cards": list(cards)}
    if args.census or args.classify:
        census = check_theorem_p3(cards, args.budget).as_dict()
        if args.census:
            report.update(census)
        else:
            report.update(total=census["total"], histogram=census["histogram"])
    else:
        report["total"] = count_cstrees(VariableSystem(cards), args.budget)
    _emit(report)
    return 2 if report.get("violations") else 0


def _cmd_classify(args) -> int:
    tree, report = _load_tree(args.fixture)
    result = classify_p3(tree)
    report["kind"] = result.kind
    if result.dag is not None:
        report["dag"] = dag_to_json(result.dag)
    if result.variable is not None:
        report["variable"] = result.variable
        report["outcomes"] = list(result.outcomes)
    _emit(report)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2, so
    usage errors end like every other failure: one JSON object, exit 1.
    Subcommand parsers inherit the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at the first ``main`` call."""
    parser = _Parser(
        prog="cstree",
        description="Staged event trees: validation, context graphs, "
        "balance, moralization, and binomial Markov bases.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for verify's random points"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a tree fixture, list its statements")
    p.add_argument("fixture")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("contexts", help="minimal contexts and their graphs")
    p.add_argument("fixture")
    p.add_argument("--dot", metavar="DIR", help="write one DOT file per graph")
    p.add_argument(
        "--check-oracle",
        action="store_true",
        help="ask statement_holds of every saturated statement the graphs separate",
    )
    p.set_defaults(func=_cmd_contexts)

    p = sub.add_parser("balance", help="exact balancedness check")
    p.add_argument("fixture")
    p.add_argument("--witness", action="store_true", help="report a failing pair")
    p.add_argument(
        "--audit-all-pairs",
        action="store_true",
        help="check every pair instead of one representative per stage",
    )
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("basis", help="generate a binomial basis")
    p.add_argument("fixture")
    p.add_argument("--method", choices=tuple(_METHODS), default="sat")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("verify", help="check bases: vanishing and fibers")
    p.add_argument("fixture")
    p.add_argument("--method", choices=("all",) + tuple(_METHODS), default="all")
    p.add_argument(
        "--symbolic", action="store_true", help="exact symbolic vanishing"
    )
    p.add_argument(
        "--random", action="store_true", help="random-point vanishing (default)"
    )
    p.add_argument("--trials", type=int, default=3, help="random points per basis")
    p.add_argument(
        "--fiber-bound",
        type=int,
        default=2,
        help="largest table total for the fiber sweep "
        "(CSTREE_MAX_FIBER caps it)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("moralize", help="directed moralization of a DAG fixture")
    p.add_argument("fixture")
    p.add_argument("--iterate", action="store_true", help="run to the fixed point")
    p.add_argument(
        "--index", type=int, default=0, help="entry to use in a collection fixture"
    )
    p.set_defaults(func=_cmd_moralize)

    p = sub.add_parser("subtree", help="pin a context, print the subtree fixture")
    p.add_argument("fixture")
    p.add_argument("--context", required=True, help='e.g. "2=0,3=1"')
    p.set_defaults(func=_cmd_subtree)

    p = sub.add_parser("enumerate", help="count or sweep all stagings")
    p.add_argument("--cards", required=True, help='e.g. "2,2,2"')
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument(
        "--census",
        action="store_true",
        help="p=3 only: compare balancedness with perfect context graphs "
        "on every staging",
    )
    p.add_argument(
        "--classify", action="store_true", help="p=3 only: bucket histogram"
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", help="bucket a three-variable tree")
    p.add_argument("fixture")
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (CStreeError, OSError, ValueError) as exc:
        _fail(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
