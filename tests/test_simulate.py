import numpy as np
import pytest

from conftest import hand_deutsch_algorithm
from qqc.programs import build_primal, share_maps
from qqc.reconstruct import reconstruct_algorithm
from qqc.simulate import (
    QuantumQueryAlgorithm,
    extended_state,
    run,
    success_report,
    trace_to_dict,
    trace_to_primal_point,
)
from qqc.solver import verify_point


def test_run_hand_deutsch_is_exact(deutsch):
    alg = hand_deutsch_algorithm()
    trace = run(alg, deutsch)
    assert trace.q == 1
    assert tuple(trace.labels) == deutsch.labels
    for lab in deutsch.labels:
        want = deutsch.g[lab]
        assert trace.probabilities[lab][want] == pytest.approx(1.0, abs=1e-12)
    rep = success_report(trace, deutsch, 0.0)
    assert rep.passed
    assert rep.min_success == pytest.approx(1.0, abs=1e-12)


def test_run_trace_invariants(deutsch):
    alg = hand_deutsch_algorithm()
    trace = run(alg, deutsch)
    s = deutsch.size
    for t in range(trace.q + 1):
        g = trace.grams[t]
        assert np.allclose(g, g.conj().T, atol=1e-12)
        assert np.allclose(np.diag(g).real, np.ones(s), atol=1e-9)
        assert np.linalg.eigvalsh(g)[0] >= -1e-10
    # before any query every branch is identical
    assert np.allclose(trace.grams[0], np.ones((s, s)), atol=1e-12)
    assert trace.states.shape == (trace.q + 1, s, alg.dim)
    for i, lab in enumerate(deutsch.labels):
        probs = trace.probabilities[lab]
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
        for t in range(trace.q + 1):
            assert np.linalg.norm(trace.states[t, i]) == pytest.approx(1.0, abs=1e-9)


def _per_input_states(alg, p):
    """Each input evolved alone through its own oracle U_x ⊗ I_w."""
    start = np.zeros(alg.dim, dtype=complex)
    start[0] = 1.0
    out = np.zeros((alg.q + 1, p.size, alg.dim), dtype=complex)
    for i, u in enumerate(p.unitaries):
        oracle = np.kron(u, np.eye(alg.w_dim))
        phi = alg.unitaries[0] @ start
        out[0, i] = phi
        for t in range(1, alg.q + 1):
            phi = alg.unitaries[t] @ (oracle @ phi)
            out[t, i] = phi
    return out


def test_run_matches_per_input_evolution(deutsch):
    # the hand circuit, and a reconstructed protocol with an 8-dimensional
    # workspace
    for alg in (hand_deutsch_algorithm(), reconstruct_algorithm(deutsch, 2, 0.1).algorithm):
        want = _per_input_states(alg, deutsch)
        trace = run(alg, deutsch)
        assert trace.states.shape == want.shape
        assert np.max(np.abs(trace.states - want)) <= 1e-13


def test_run_rejects_unmeasured_outputs(deutsch):
    alg = hand_deutsch_algorithm()
    renamed = QuantumQueryAlgorithm(
        n=2, w_dim=1, unitaries=list(alg.unitaries),
        projectors={"zero": alg.projectors["0"], "one": alg.projectors["1"]},
    )
    with pytest.raises(ValueError, match=r"no projector for outputs \['0', '1'\]"):
        run(renamed, deutsch)


def test_run_rejects_dimension_mismatch(deutsch):
    alg = hand_deutsch_algorithm()
    bad = QuantumQueryAlgorithm(n=3, w_dim=1, unitaries=[np.eye(3, dtype=complex)],
                                projectors={"0": np.eye(3, dtype=complex)})
    with pytest.raises(ValueError):
        run(bad, deutsch)
    del alg


def test_success_report_failing_threshold(deutsch):
    alg = hand_deutsch_algorithm()
    # swap the output projectors so every answer is wrong
    swapped = QuantumQueryAlgorithm(
        n=2, w_dim=1, unitaries=list(alg.unitaries),
        projectors={"0": alg.projectors["1"], "1": alg.projectors["0"]},
    )
    rep = success_report(run(swapped, deutsch), deutsch, 0.1)
    assert not rep.passed
    assert rep.min_success == pytest.approx(0.0, abs=1e-9)
    assert rep.worst_label in deutsch.labels


def test_extended_state_matches_trace_grams(deutsch):
    alg = hand_deutsch_algorithm()
    trace = run(alg, deutsch)
    s = deutsch.size
    for t in range(trace.q + 1):
        psi, rho_iq, rho_i = extended_state(deutsch, alg, t)
        assert psi.shape == (s * alg.n * alg.w_dim,)
        assert rho_iq.shape == (s * alg.n, s * alg.n)
        assert np.allclose(rho_i, trace.grams[t], atol=1e-10)
        assert np.trace(rho_i).real == pytest.approx(s, abs=1e-9)
    with pytest.raises(ValueError):
        extended_state(deutsch, alg, trace.q + 1)


def test_trace_to_primal_point_is_feasible(deutsch):
    # a perfect algorithm's trace satisfies the existence program at eps 0
    alg = hand_deutsch_algorithm()
    point = trace_to_primal_point(deutsch, alg, 0.0)
    prog = build_primal(deutsch, 1, 0.0)
    assert set(point) == {b.name for b in prog.blocks}
    rep = verify_point(prog, point)
    assert rep.max_residual <= 1e-10
    assert rep.min_block_eig >= -1e-10


def test_trace_to_primal_point_matches_extended_state(deutsch):
    # a reconstructed two-query protocol with a workspace (4-dimensional at
    # seed 0), so the (input, query) x workspace layout of the chain blocks
    # is exercised
    alg = reconstruct_algorithm(deutsch, 2, 0.1).algorithm
    assert alg.w_dim > 1
    point = trace_to_primal_point(deutsch, alg, 0.1)
    # the shared start state: the first joint state is J ⊗ rho_0
    rho_iq = extended_state(deutsch, alg, 0)[1]
    assert np.max(np.abs(np.kron(np.ones((4, 4)), point["rho_0"]) - rho_iq)) <= 1e-12
    for t in range(1, alg.q):
        rho_iq = extended_state(deutsch, alg, t)[1]
        assert np.max(np.abs(point[f"state_iq_{t}"] - rho_iq)) <= 1e-12
    # at eps > 0 the shares sit on the 2-dimensional reachable span, and read
    # back through their maps they sum to the final Gram matrix
    rho_i = extended_state(deutsch, alg, alg.q)[2]
    maps = share_maps(deutsch, 0.1, alg.q)
    assert all(point[f"output_part_{z}"].shape == (2, 2) for z in deutsch.outputs)
    final_gram = sum(m.apply(point[f"output_part_{z}"]) for z, m in maps.items())
    assert np.max(np.abs(final_gram - rho_i)) <= 1e-12


def test_trace_to_primal_point_slack_grows_with_eps(deutsch):
    alg = hand_deutsch_algorithm()
    # at eps 0 the program has no success slack: compare eps 0.1 and 0.2
    p0 = trace_to_primal_point(deutsch, alg, 0.1)
    p1 = trace_to_primal_point(deutsch, alg, 0.2)
    # success stays 1, so lowering the floor by 0.1 adds 0.1 to every success slack
    for lab in deutsch.labels:
        gap = p1[f"success_slack_{lab}"] - p0[f"success_slack_{lab}"]
        assert gap.shape == (1, 1)
        assert gap[0, 0].real == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_trace_to_primal_point_has_the_program_blocks(deutsch, q, eps):
    # the point holds exactly build_primal's blocks, in its order: at eps 0
    # no success slack
    hand = hand_deutsch_algorithm()
    alg = QuantumQueryAlgorithm(2, 1, hand.unitaries[:1] * (q + 1), hand.projectors)
    point = trace_to_primal_point(deutsch, alg, eps)
    assert list(point) == [b.name for b in build_primal(deutsch, q, eps).blocks]


def test_trace_to_dict_output_shapes(deutsch):
    alg = hand_deutsch_algorithm()
    trace = run(alg, deutsch)
    lean = trace_to_dict(trace)
    assert set(lean) == {"labels", "q", "grams", "probabilities"}
    assert len(lean["grams"]) == trace.q + 1
