"""The package's public surface, pinned: a name added to or dropped from
``scopdd.__all__`` shows up as an edit of this list."""

import scopdd as sc

PUBLIC = {
    # diagrams and the exchange format
    "Cube", "DECISION", "FALSE_NODE", "Obdd", "STOCHASTIC", "TRUE_NODE",
    "VarInfo", "VariableTable", "dump_dot", "dump_obdd", "from_dnf", "load_obdd",
    # evaluation and domains
    "BOTH", "DomainState", "FALSE_ONLY", "TRUE_ONLY", "evaluate", "model_probability",
    # propagation
    "ConstraintTerm", "FAILED", "OK", "PropagationResult", "PropagationScratch",
    "THRESHOLD_EPS", "compute_derivatives", "compute_path_weights", "compute_values",
    "constraint_scratch", "dc_propagate", "incremental_fix", "naive_propagate",
    # the interval baseline
    "Affine", "BoundsResult", "DecisionEquation", "LinearSystem", "bounds_propagate",
    "decompose",
    # search
    "Constraint", "Problem", "SearchStats", "cardinality_propagate", "propagation_loop",
    "solve_opt", "solve_sat", "strategy_value",
    # problem files
    "CompileRecord", "Edge", "ParsedModel", "ProbNetwork", "Query", "build_problem",
    "parse_network", "st_path_dnf", "with_order",
    # errors
    "CapacityError", "ParseError", "ScopddError", "StructureError",
}


def test_all_is_pinned_and_resolves():
    assert sorted(sc.__all__) == sorted(PUBLIC)  # and no name is listed twice
    for name in sc.__all__:
        assert hasattr(sc, name), name
