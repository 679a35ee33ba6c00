"""Staged discrete event trees with context-specific independence.

Build and validate staged trees, read context-specific graphs off the
staging, test balancedness exactly, perfect graphs by directed
moralization, and generate and verify binomial Markov bases.
"""

from .errors import (
    BadCardinalityError,
    BadGraphError,
    BadIndexError,
    BoundTooLargeError,
    BudgetExceededError,
    CStreeError,
    GapError,
    IncompleteFamilyError,
    NotACylinderError,
    NotP3Error,
    NotSameStageError,
    OverlapError,
    OverlappingSetsError,
    PreconditionError,
    ShapeMismatchError,
    UnbalancedError,
    UnbalancedWarning,
    UsageError,
)
from .model import (
    Context,
    CStreeSpec,
    Stage,
    VariableSystem,
    context_subtree,
    format_outcome,
    level_stage_map,
    load_spec,
    spec_from_json,
    spec_to_json,
    stage_members,
    stage_statement,
    tree_of_dag,
    tree_statements,
    validate,
)
from .csi import (
    CsiStatement,
    absorption,
    apply_axiom,
    contraction,
    cstree_rule,
    decomposition,
    format_statement,
    intersection,
    is_saturated,
    parse_statement,
    specialization,
    symmetry,
    weak_union,
)
from .graphs import (
    ContextDag,
    Dag,
    ObstructionReport,
    UndirectedGraph,
    context_dag_to_dot,
    d_separated,
    d_separated_bayes_ball,
    dag_from_json,
    dag_to_dot,
    dag_to_json,
    dags_from_json,
    descendants,
    directed_moralize,
    is_perfect,
    local_markov,
    moralization_obstructions,
    moralize,
    saturated_statements,
    to_perfect,
    undirected_to_dot,
)
from .poly import Monomial, SparsePoly
from .algebra import (
    BalanceWitness,
    EdgeLabel,
    ExponentMatrix,
    FiberReport,
    balanced_pair,
    edge_label,
    exponent_matrix,
    fibers_connected,
    interpolant,
    is_balanced,
    outcome_probabilities,
    psi_monomial,
    random_point,
    statement_holds,
    statement_polynomials,
    statement_zero_at,
    tree_labels,
    vanishes,
)
from .contexts import (
    all_contexts,
    context_dag,
    minimal_contexts,
    separation_disagreements,
)
from .bases import (
    SaturatedBinomial,
    basis_to_json,
    basis_to_text,
    canonical_binomial,
    markov_basis_saturated,
    perfect_context_basis,
    quad_lift_basis,
    statement_binomials,
)
from .lab import (
    Classification,
    TheoremReport,
    check_theorem_p3,
    classify_p3,
    count_cstrees,
    enumerate_cstrees,
    find_nonperfect_balanced,
    random_cstree,
    random_dag,
    validate_level_partition,
)

__version__ = "0.1.0"
