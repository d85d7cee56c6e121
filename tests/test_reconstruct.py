"""Tests for turning feasible chain points back into runnable protocols."""

import numpy as np
import pytest

from qqc.reconstruct import (
    ReconstructionError,
    algorithm_from_dict,
    algorithm_to_dict,
    backward_chain,
    extract_final_states,
    output_shares,
    reconstruct_algorithm,
    validate_algorithm,
)
from qqc.simulate import run, success_report

from conftest import hand_deutsch_algorithm


def test_reconstruct_deutsch_round_trip(deutsch):
    res = reconstruct_algorithm(deutsch, 1, 0.0)
    alg = res.algorithm
    assert alg.q == 1
    assert alg.n == deutsch.n
    # workspace stays within the compression bound
    assert alg.w_dim <= max(deutsch.size * deutsch.n, -(-res.extracted_dim // deutsch.n))
    validate_algorithm(alg)
    rep = success_report(run(alg, deutsch), deutsch, 0.0)
    assert rep.passed
    assert rep.min_success >= 1.0 - 1e-6


def test_reconstruct_with_error_budget(deutsch):
    res = reconstruct_algorithm(deutsch, 2, 0.1)
    rep = success_report(run(res.algorithm, deutsch), deutsch, 0.1)
    assert rep.passed
    assert rep.min_success >= 0.9 - 1e-6


@pytest.mark.parametrize("pname,q", [("deutsch", 0), ("ix", 0)])
def test_reconstruct_infeasible_carries_status(pname, q):
    from conftest import PROBLEMS

    with pytest.raises(ReconstructionError) as info:
        reconstruct_algorithm(PROBLEMS[pname], q, 0.0)
    assert info.value.status == "INFEASIBLE_WITH_CERTIFICATE"


def test_output_sdp_shares(deutsch, cached_solve):
    out = cached_solve("deutsch", "primal", 1, 0.0)
    m = out.point["final_gram"]
    shares = output_shares(deutsch, out.point)
    assert set(shares) == set(deutsch.outputs)
    assert np.allclose(sum(shares.values()), m, atol=1e-6)


def test_extract_final_states_contract(deutsch, cached_solve):
    out = cached_solve("deutsch", "primal", 1, 0.0)
    m = out.point["final_gram"]
    shares = output_shares(deutsch, out.point)
    vectors, projectors, d = extract_final_states(deutsch, m, shares, 0.0)
    assert vectors.shape == (deutsch.size, d)
    assert set(projectors) == set(deutsch.outputs)
    # the extracted vectors reproduce the Gram matrix
    assert np.allclose(vectors @ vectors.conj().T, m, atol=1e-6)
    for z, pz in projectors.items():
        assert np.allclose(pz, pz.conj().T, atol=1e-10)
        assert np.allclose(pz @ pz, pz, atol=1e-8)
    for i, lab in enumerate(deutsch.labels):
        pz = projectors[deutsch.g[lab]]
        succ = np.real(np.vdot(vectors[i], pz @ vectors[i]))
        assert succ >= 1.0 - 1e-6


def test_extract_rejects_wrong_shape(deutsch):
    shares = {z: np.eye(3, dtype=complex) for z in deutsch.outputs}
    with pytest.raises(ValueError, match="shape"):
        extract_final_states(deutsch, np.eye(3, dtype=complex), shares, 0.0)


def test_extract_rejects_zero_gram(deutsch):
    s = deutsch.size
    shares = {z: np.zeros((s, s), dtype=complex) for z in deutsch.outputs}
    with pytest.raises(ReconstructionError, match="zero"):
        extract_final_states(deutsch, np.zeros((s, s), dtype=complex), shares, 0.0)


def test_backward_chain_checks_the_program_rows(deutsch, cached_solve):
    # a chain block off its row is caught before any unitary is chosen
    out = cached_solve("deutsch", "primal", 1, 0.0)
    assert out.status == "FEASIBLE"
    point = dict(out.point, state_iq_0=1.01 * out.point["state_iq_0"])
    finals = extract_final_states(deutsch, point["final_gram"], output_shares(deutsch, point), 0.0)
    with pytest.raises(ReconstructionError, match="'init'"):
        backward_chain(deutsch, 1, point, finals)


def test_validate_algorithm_accepts_hand_circuit():
    res = validate_algorithm(hand_deutsch_algorithm())
    assert max(res.values()) <= 1e-12


def test_validate_algorithm_flags_defects():
    alg = hand_deutsch_algorithm()
    alg.unitaries[0] = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(ReconstructionError, match="unitarity"):
        validate_algorithm(alg)
    alg = hand_deutsch_algorithm()
    alg.projectors["0"] = np.diag([0.5, 0.0]).astype(complex)
    with pytest.raises(ReconstructionError):
        validate_algorithm(alg)
    alg = hand_deutsch_algorithm()
    alg.projectors["1"] = np.zeros((3, 3), dtype=complex)
    with pytest.raises(ReconstructionError, match="shape"):
        validate_algorithm(alg)


def test_algorithm_dict_round_trip():
    alg = hand_deutsch_algorithm()
    back = algorithm_from_dict(algorithm_to_dict(alg))
    assert back.n == alg.n
    assert back.w_dim == alg.w_dim
    assert len(back.unitaries) == len(alg.unitaries)
    for a, b in zip(alg.unitaries, back.unitaries):
        assert np.allclose(a, b, atol=1e-15)
    for z in alg.projectors:
        assert np.allclose(alg.projectors[z], back.projectors[z], atol=1e-15)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("n"),
        lambda d: d.pop("unitaries"),
        lambda d: d["unitaries"].clear(),
        lambda d: d["unitaries"][0]["re"][0].pop(),
    ],
)
def test_algorithm_from_dict_rejects_malformed(mutate):
    data = algorithm_to_dict(hand_deutsch_algorithm())
    mutate(data)
    with pytest.raises(ValueError):
        algorithm_from_dict(data)


def test_algorithm_from_dict_real_only_entries():
    data = algorithm_to_dict(hand_deutsch_algorithm())
    for e in data["unitaries"]:
        del e["im"]
    back = algorithm_from_dict(data)
    assert np.allclose(back.unitaries[0].imag, 0.0)
