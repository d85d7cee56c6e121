"""Feasibility programs and protocol reconstruction for unitary discrimination.

Given a finite family of unitaries and a classification of them, the package
decides whether q oracle calls suffice to identify the class within a given
error, produces certificates for either answer, turns feasible solutions
into explicit protocols, verifies them by exact simulation, and computes
spectral lower bounds on the needed number of calls.
"""

__version__ = "0.1.0"

from .adversary import (
    AdversaryReport,
    WitnessError,
    check_block_schur_identity,
    make_dual_witness,
    perron_vector,
    search_gamma,
    spectral_bound,
)
from .linalg import (
    align_purifications,
    complete_to_unitary,
    conditional_vectors,
    eig_hermitian,
    hermitize,
    partial_trace,
    purify,
)
from .problem import (
    DerivedConstants,
    QueryProblem,
    ValidationReport,
    build_constants,
    build_omega,
    phase_query_problem,
    problem_from_dict,
    problem_to_dict,
    validate,
)
from .programs import (
    Block,
    BlockMap,
    ConicFeasibilityProgram,
    Row,
    build_dual,
    build_dual_relaxed,
    build_primal,
    build_primal_relaxed,
    certificate_to_dual_point,
    pair_name,
)
from .reconstruct import (
    ReconstructionError,
    ReconstructionResult,
    algorithm_from_dict,
    algorithm_to_dict,
    backward_chain,
    extract_final_states,
    output_shares,
    reconstruct_algorithm,
    validate_algorithm,
)
from .sdpa import SdpaData, export_sdpa, parse_sdpa, sdpa_to_program, write_sdpa
from .simulate import (
    QuantumQueryAlgorithm,
    SimulationTrace,
    SuccessReport,
    extended_state,
    run,
    success_report,
    trace_to_dict,
    trace_to_primal_point,
)
from .solver import (
    FeasibilityOutcome,
    PointReport,
    SolverConfig,
    SolverError,
    solve,
    verify_point,
)

__all__ = [
    "__version__",
    "AdversaryReport",
    "WitnessError",
    "check_block_schur_identity",
    "make_dual_witness",
    "perron_vector",
    "search_gamma",
    "spectral_bound",
    "align_purifications",
    "complete_to_unitary",
    "conditional_vectors",
    "eig_hermitian",
    "hermitize",
    "partial_trace",
    "purify",
    "DerivedConstants",
    "QueryProblem",
    "ValidationReport",
    "build_constants",
    "build_omega",
    "phase_query_problem",
    "problem_from_dict",
    "problem_to_dict",
    "validate",
    "Block",
    "BlockMap",
    "ConicFeasibilityProgram",
    "Row",
    "build_dual",
    "build_dual_relaxed",
    "build_primal",
    "build_primal_relaxed",
    "certificate_to_dual_point",
    "pair_name",
    "ReconstructionError",
    "ReconstructionResult",
    "algorithm_from_dict",
    "algorithm_to_dict",
    "backward_chain",
    "extract_final_states",
    "output_shares",
    "reconstruct_algorithm",
    "validate_algorithm",
    "SdpaData",
    "export_sdpa",
    "parse_sdpa",
    "sdpa_to_program",
    "write_sdpa",
    "QuantumQueryAlgorithm",
    "SimulationTrace",
    "SuccessReport",
    "extended_state",
    "run",
    "success_report",
    "trace_to_dict",
    "trace_to_primal_point",
    "FeasibilityOutcome",
    "PointReport",
    "SolverConfig",
    "SolverError",
    "solve",
    "verify_point",
]
