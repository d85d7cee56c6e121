"""Two 3-bit phase-query problems on which the start-state face matters.

xor12 (g = x1 ⊕ x2) and all-equal (g = 1 exactly when x1 = x2 = x3) are
feasible at q=1, eps 0.1, and their existence programs must say so at
solver seeds 0-9, and their exact witness programs must be certified at
seeds 0-2; all-equal at eps 0 is infeasible, and its certificate must be
a strictly feasible witness point at s=8, n=3. Both problems live in
conftest's START_FACE_PROBLEMS.
"""

import pytest

from qqc.programs import build_dual, build_primal
from qqc.reconstruct import reconstruct_algorithm
from qqc.simulate import run, success_report, trace_to_primal_point
from qqc import solver
from qqc.solver import SolverConfig, solve, verify_point

from conftest import START_FACE_PROBLEMS


@pytest.mark.parametrize("pname", sorted(START_FACE_PROBLEMS))
@pytest.mark.parametrize("seed", range(10))
def test_one_query_protocol_is_found_and_rebuilt(pname, seed):
    p = START_FACE_PROBLEMS[pname]
    res = reconstruct_algorithm(p, 1, 0.1, SolverConfig(seed=seed))
    assert res.outcome.status == "FEASIBLE"
    report = success_report(run(res.algorithm, p), p, 0.1)
    assert report.min_success >= 0.9 - 1e-6
    rep = verify_point(build_primal(p, 1, 0.1), trace_to_primal_point(p, res.algorithm, 0.1))
    assert rep.max_residual <= 1e-6
    assert rep.min_block_eig >= -1e-6


@pytest.mark.parametrize("pname", sorted(START_FACE_PROBLEMS))
@pytest.mark.parametrize("seed", range(3))
def test_one_query_witness_program_is_certified(pname, seed):
    # the witness program is decided through its existence program, which
    # is FEASIBLE; swept directly, it ran all 50 000 sweeps UNDECIDED
    out = solve(build_dual(START_FACE_PROBLEMS[pname], 1, 0.1), SolverConfig(seed=seed))
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"


def test_all_equal_exact_certificate_lifts_to_a_witness():
    p = START_FACE_PROBLEMS["all_equal"]
    out = solve(build_primal(p, 1, 0.0))
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
    assert out.certificate["init"].shape == (1, 1)
    rep = verify_point(build_dual(p, 1, 0.0), out.certificate)
    assert rep.max_residual <= 1e-8
    assert rep.min_block_eig >= -1e-8
    assert rep.strict_slack > 0


@pytest.mark.parametrize("seed", [5, 8, 22])
def test_a_real_boundary_cell_is_polished_to_a_real_point_at_a_check(seed):
    # all-equal at q=1, eps 0.1 is real and sits on its boundary: its
    # FEASIBLE point is polished on the real coordinates, so it has no
    # imaginary part, meets every row within 1e-10, and comes at a check of
    # the usual schedule, a doubling of the first full check's sweeps
    prog = build_primal(START_FACE_PROBLEMS["all_equal"], 1, 0.1)
    assert solver._engine(prog).real
    out = solve(prog, SolverConfig(seed=seed))
    assert out.status == "FEASIBLE"
    assert not any(m.imag.any() for m in out.point.values())
    assert verify_point(prog, out.point).within(1e-10)
    checks = out.iterations // solver._FIRST_CHECK
    assert out.iterations % solver._FIRST_CHECK == 0 and checks & (checks - 1) == 0
