"""The q = 0 programs on the face of J.

With no query every final state is the start state, so the final Gram
matrix is the all-ones J and every block that holds a part of it is a
multiple of J. At eps > 0 `build_primal` holds each output share as a 1x1
[[c_z]], G_z = c_z·J/s, and `build_primal_relaxed` holds final_gram the
same way at every eps; init is then the 1x1 row sum c = s. The eps-0
exact program keeps its class-face shares and its s x s init. The best
success probability with no query is 1/k for k outputs (guess the
likeliest output), so P*(0) = 1/k sits at eps = 1 - 1/k.
"""

import numpy as np
import pytest

from qqc.adversary import make_dual_witness
from qqc.programs import build_dual, build_dual_relaxed, build_primal, build_primal_relaxed
from qqc.reconstruct import reconstruct_algorithm
from qqc.simulate import QuantumQueryAlgorithm, run, success_report, trace_to_primal_point
from qqc.solver import solve, verify_point

from conftest import FAMILIES, PROBLEMS, random_valid_gamma

ALL = {**PROBLEMS, **FAMILIES}


@pytest.mark.parametrize("pname", sorted(ALL))
def test_exact_shares_are_scalars_on_j(pname):
    p = ALL[pname]
    s = p.size
    prog = build_primal(p, 0, 0.1)
    assert [(b.name, b.dim, b.psd) for b in prog.blocks] == (
        [(f"output_part_{z}", 1, True) for z in p.outputs]
        + [(f"success_slack_{lab}", 1, True) for lab in p.labels])
    assert [(r.name, r.dim) for r in prog.rows] == (
        [("init", 1)] + [(f"success_{lab}", 1) for lab in p.labels])
    init = prog.rows[0]
    assert np.array_equal(init.rhs, [[s]])
    assert [(bj, m.kind, m.scale) for bj, m in init.terms] == [
        (k, "id", 1.0) for k in range(len(p.outputs))]


@pytest.mark.parametrize("pname", sorted(ALL))
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_relaxed_final_gram_is_a_scalar_on_j(pname, eps):
    p = ALL[pname]
    prog = build_primal_relaxed(p, 0, eps)
    assert (prog.blocks[0].name, prog.blocks[0].dim, prog.blocks[0].psd) == ("final_gram", 1, True)
    init = prog.rows[0]
    assert (init.name, init.dim) == ("init", 1)
    assert np.array_equal(init.rhs, [[p.size]])
    # every pair row reads final_gram through one term, and its slack if any
    for row in prog.rows[1:]:
        assert [m.kind for _, m in row.terms] == ["const_embed"] + ["id"] * (eps > 0)


@pytest.mark.parametrize("pname", sorted(ALL))
def test_exact_program_at_eps_zero_keeps_its_class_faces(pname):
    # chosen by the face map, not by the block size: ix's and pauli_id's
    # class faces are 1x1, and their init stays s x s
    p = ALL[pname]
    s = p.size
    prog = build_primal(p, 0, 0.0)
    assert [(b.name, b.dim) for b in prog.blocks] == [
        (f"output_part_{z}", len(p.class_indices(z))) for z in p.outputs]
    assert [(r.name, r.dim) for r in prog.rows] == [("init", s)]
    assert np.array_equal(prog.rows[0].rhs, np.ones((s, s)))
    assert all(m.kind == "conj_pt" for _, m in prog.rows[0].terms)


NEAR = [(name, eps) for name in ("deutsch", "or2", "pauli_class") for eps in (0.45, 0.55)] + [
    ("pauli_id", 0.70), ("pauli_id", 0.80), ("weyl3", 2 / 3 - 0.05), ("weyl3", 2 / 3 + 0.05)]


@pytest.mark.parametrize("pname,eps", NEAR)
def test_success_with_no_query_is_one_over_k(pname, eps):
    p = ALL[pname]
    below = eps < 1.0 - 1.0 / len(p.outputs)
    out = solve(build_primal(p, 0, eps))
    if below:
        assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
        assert out.iterations <= 1024
        rep = verify_point(build_dual(p, 0, eps), out.certificate)
        assert rep.within(1e-8) and rep.strict_slack > 0
    else:
        assert out.status == "FEASIBLE"
        res = reconstruct_algorithm(p, 0, eps)
        assert success_report(run(res.algorithm, p), p, eps).min_success >= 1.0 - eps


def _random_protocol(p, rng, w_dim=2):
    d = p.n * w_dim
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    owner = rng.integers(len(p.outputs), size=d)
    projectors = {z: np.diag((owner == k).astype(complex)) for k, z in enumerate(p.outputs)}
    return QuantumQueryAlgorithm(n=p.n, w_dim=w_dim, unitaries=[u], projectors=projectors)


@pytest.mark.parametrize("pname", sorted(ALL))
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_trace_point_holds_the_program_blocks(pname, eps):
    p = ALL[pname]
    alg = _random_protocol(p, np.random.default_rng(7))
    point = trace_to_primal_point(p, alg, eps)
    prog = build_primal(p, 0, eps)
    assert {name: v.shape for name, v in point.items()} == {
        b.name: (b.dim, b.dim) for b in prog.blocks}
    if eps:
        # on the face of J init holds for any protocol: its shares split J.
        # At eps 0 the class faces drop the shares' parts off their classes,
        # which only a protocol that never errs leaves at zero
        assert verify_point(prog, point).row_residuals["init"] <= 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_constant_protocol_point_verifies(const, eps):
    res = reconstruct_algorithm(const, 0, eps)
    assert res.algorithm.w_dim == 1
    rep = verify_point(build_primal(const, 0, eps), trace_to_primal_point(const, res.algorithm, eps))
    assert rep.within(1e-12)


@pytest.mark.parametrize("pname", sorted(set(ALL) - {"const"}))
def test_witness_at_no_query_verifies(pname):
    # const has no pair of inputs with different outputs, so no weighting
    p = ALL[pname]
    rng = np.random.default_rng(11)
    for _ in range(3):
        gamma = random_valid_gamma(p, rng)
        witness = make_dual_witness(p, gamma, 0, 0.1)
        assert witness["init"].shape == (1, 1)
        assert abs(witness["init"][0, 0]) <= 1e-12
        rep = verify_point(build_dual_relaxed(p, 0, 0.1), witness)
        assert rep.within(1e-8)
        assert rep.strict_slack > 0
