import numpy as np
import pytest

from conftest import hand_deutsch_algorithm
from qqc import build_primal, verify_point
from qqc.reconstruct import QuantumQueryAlgorithm, reconstruct_algorithm
from qqc.simulate import (
    extended_state,
    run,
    success_report,
    trace_to_dict,
    trace_to_primal_point,
)


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
    for lab in deutsch.labels:
        probs = trace.probabilities[lab]
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
        for t in range(trace.q + 1):
            assert np.linalg.norm(trace.states[lab][t]) == pytest.approx(1.0, abs=1e-9)


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
    # a reconstructed two-query protocol with an 8-dimensional workspace, so
    # the (input, query) x workspace layout of the chain blocks is exercised
    alg = reconstruct_algorithm(deutsch, 2, 0.1).algorithm
    assert alg.w_dim == 8
    point = trace_to_primal_point(deutsch, alg, 0.1)
    for t in range(alg.q):
        rho_iq = extended_state(deutsch, alg, t)[1]
        assert np.max(np.abs(point[f"state_iq_{t}"] - rho_iq)) <= 1e-12
    rho_i = extended_state(deutsch, alg, alg.q)[2]
    assert np.max(np.abs(point["final_gram"] - rho_i)) <= 1e-12


def test_trace_to_primal_point_slack_grows_with_eps(deutsch):
    alg = hand_deutsch_algorithm()
    p0 = trace_to_primal_point(deutsch, alg, 0.0)
    p1 = trace_to_primal_point(deutsch, alg, 0.2)
    gap = p1["output_slack_0"] - p0["output_slack_0"]
    # success stays 1, so lowering the floor adds eps to the slack diagonal
    for i in deutsch.class_indices("0"):
        assert gap[i, i].real == pytest.approx(0.2, abs=1e-12)


def test_trace_to_dict_output_shapes(deutsch):
    alg = hand_deutsch_algorithm()
    trace = run(alg, deutsch)
    lean = trace_to_dict(trace)
    assert set(lean) == {"labels", "q", "grams", "probabilities"}
    assert len(lean["grams"]) == trace.q + 1
