"""Stochastic constraint optimization over ordered binary decision diagrams.

Monotone probabilistic events are compiled into reduced ordered decision
diagrams; a derivative-based propagator enforces domain consistency on
threshold constraints over them in time linear in the diagram, and one
depth-first search solves satisfaction problems and, by branch-and-bound
on the objective's threshold, optimization problems.  A naive
re-evaluation propagator and an interval propagator on the circuit
decomposition are included as reference points.
"""

from .errors import CapacityError, ParseError, ScopddError, StructureError
from .obdd import (
    Cube,
    DECISION,
    FALSE_NODE,
    Obdd,
    STOCHASTIC,
    TRUE_NODE,
    VariableTable,
    VarInfo,
    dump_dot,
    dump_obdd,
    from_dnf,
    load_obdd,
)
from .evaluate import (
    BOTH,
    DomainState,
    FALSE_ONLY,
    TRUE_ONLY,
    evaluate,
    model_probability,
)
from .propagate import (
    ConstraintTerm,
    FAILED,
    OK,
    PropagationResult,
    PropagationScratch,
    THRESHOLD_EPS,
    compute_derivatives,
    compute_path_weights,
    compute_values,
    constraint_scratch,
    dc_propagate,
    incremental_fix,
    naive_propagate,
)
from .baseline import (
    Affine,
    BoundsResult,
    DecisionEquation,
    LinearSystem,
    bounds_propagate,
    decompose,
)
from .solver import (
    Constraint,
    Problem,
    SearchStats,
    cardinality_propagate,
    propagation_loop,
    solve_opt,
    solve_sat,
    strategy_value,
)
from .model_io import (
    CompileRecord,
    Edge,
    ParsedModel,
    ProbNetwork,
    Query,
    build_problem,
    parse_network,
    st_path_dnf,
    with_order,
)

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "BOTH",
    "BoundsResult",
    "CapacityError",
    "CompileRecord",
    "Constraint",
    "ConstraintTerm",
    "Cube",
    "DECISION",
    "DecisionEquation",
    "DomainState",
    "Edge",
    "FAILED",
    "FALSE_NODE",
    "FALSE_ONLY",
    "LinearSystem",
    "OK",
    "Obdd",
    "ParseError",
    "ParsedModel",
    "ProbNetwork",
    "Problem",
    "PropagationResult",
    "PropagationScratch",
    "Query",
    "STOCHASTIC",
    "ScopddError",
    "SearchStats",
    "StructureError",
    "THRESHOLD_EPS",
    "TRUE_NODE",
    "TRUE_ONLY",
    "VarInfo",
    "VariableTable",
    "bounds_propagate",
    "build_problem",
    "cardinality_propagate",
    "compute_derivatives",
    "compute_path_weights",
    "compute_values",
    "constraint_scratch",
    "dc_propagate",
    "decompose",
    "dump_dot",
    "dump_obdd",
    "evaluate",
    "from_dnf",
    "incremental_fix",
    "load_obdd",
    "model_probability",
    "naive_propagate",
    "parse_network",
    "propagation_loop",
    "solve_opt",
    "solve_sat",
    "st_path_dnf",
    "strategy_value",
    "with_order",
]
