"""Tests for turning feasible chain points back into runnable protocols."""

import sys

import numpy as np
import pytest

import qqc.reconstruct
import qqc.simulate
from qqc.reconstruct import (
    ReconstructionError,
    algorithm_from_dict,
    algorithm_to_dict,
    backward_chain,
    extract_final_states,
    reconstruct_algorithm,
    validate_algorithm,
)
from qqc.linalg import align_purifications, partial_trace
from qqc.programs import ConicFeasibilityProgram, _query_chain, share_maps
from qqc.solver import verify_point
from qqc.simulate import run, success_report

from conftest import FAMILIES, FEASIBLE_CELLS, PROBLEMS, hand_deutsch_algorithm


def _shares(p, point, eps):
    # each s x s share as the last chain row reads its block: at eps 0 the
    # block is the share's class block
    return {z: m.apply(point[f"output_part_{z}"]) for z, m in share_maps(p, eps).items()}


def _with_final_gram(p, point, eps):
    # the point with the sum of its shares as final_gram, the chain's last block
    return dict(point, final_gram=sum(_shares(p, point, eps).values()))


def _projectors(p, owner, dim):
    # P_z is the diagonal projector on the coordinates output z owns; the
    # coordinates past owner are the padding, measured as p.outputs[0]
    owner_c = np.pad(owner, (0, dim - owner.size))
    return {z: np.diag((owner_c == k).astype(complex)) for k, z in enumerate(p.outputs)}


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
    with pytest.raises(ReconstructionError) as info:
        reconstruct_algorithm(PROBLEMS[pname], q, 0.0)
    assert info.value.status == "INFEASIBLE_WITH_CERTIFICATE"


def test_output_sdp_shares(deutsch, cached_solve):
    # the point's output_part blocks sum to the final Gram matrix of its
    # query chain, and reconstruct_algorithm factors exactly those shares
    out = cached_solve("deutsch", "primal", 1, 0.0)
    shares = _shares(deutsch, out.point, 0.0)
    m = sum(shares.values())
    chain = ConicFeasibilityProgram(*_query_chain(deutsch, 1))
    assert verify_point(chain, dict(out.point, final_gram=m)).max_residual <= 1e-10
    vectors, _ = extract_final_states(deutsch, m, shares, 0.0)
    assert reconstruct_algorithm(deutsch, 1, 0.0).extracted_dim == vectors.shape[1]


def test_extract_final_states_contract(deutsch, cached_solve):
    out = cached_solve("deutsch", "primal", 1, 0.0)
    shares = _shares(deutsch, out.point, 0.0)
    m = sum(shares.values())
    vectors, owner = extract_final_states(deutsch, m, shares, 0.0)
    d = vectors.shape[1]
    assert owner.shape == (d,)
    # every coordinate belongs to one output
    assert set(owner.tolist()) <= set(range(len(deutsch.outputs)))
    projectors = _projectors(deutsch, owner, d)
    assert np.array_equal(sum(projectors.values()), np.eye(d))
    # the extracted vectors reproduce the Gram matrix
    assert np.allclose(vectors @ vectors.conj().T, m, atol=1e-6)
    for i, lab in enumerate(deutsch.labels):
        pz = projectors[deutsch.g[lab]]
        succ = np.real(np.vdot(vectors[i], pz @ vectors[i]))
        assert succ >= 1.0 - 1e-6


@pytest.mark.parametrize("pname,q,eps", FEASIBLE_CELLS)
def test_extracted_vectors_factor_every_share(pname, q, eps, cached_solve):
    # d is the total share rank at the cut 1e-8 x the top eigenvalue of m,
    # and the vectors give back each share through the simulator's formula
    p = PROBLEMS[pname]
    out = cached_solve(pname, "primal", q, eps)
    shares = _shares(p, out.point, eps)
    m = sum(shares.values())
    vectors, owner = extract_final_states(p, m, shares, eps)
    d = vectors.shape[1]
    cut = 1e-8 * np.linalg.eigvalsh(m)[-1]
    assert d == sum(int(np.sum(np.linalg.eigvalsh(g) > cut)) for g in shares.values())
    assert owner.shape == (d,)
    for z, pz in _projectors(p, owner, d).items():
        assert np.linalg.norm(vectors @ pz.conj() @ vectors.conj().T - shares[z]) <= 1e-10


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
    point = _with_final_gram(deutsch, dict(out.point, rho_0=1.01 * out.point["rho_0"]), 0.0)
    finals = extract_final_states(deutsch, point["final_gram"], _shares(deutsch, point, 0.0), 0.0)
    with pytest.raises(ReconstructionError, match="'init'"):
        backward_chain(deutsch, 1, point, finals)


def test_reconstruction_runs_no_simulation(deutsch, monkeypatch):
    # the forward walk is the protocol's run; nothing simulates it again
    calls = []
    simulate_run = qqc.simulate.run

    def counted(*args):
        calls.append(args)
        return simulate_run(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qqc") and getattr(mod, "run", None) is simulate_run:
            monkeypatch.setattr(mod, "run", counted)
    reconstruct_algorithm(deutsch, 1, 0.0)
    assert calls == []


def test_backward_chain_checks_the_final_gram(deutsch, monkeypatch):
    # turning the first unitary by 1e-5 between the two query basis states
    # moves the final Gram matrix by ~3e-5: past the 1e-6 allowance, within
    # the next aligner's 1e-4 gate
    calls = []

    def turned(psi, target, dim_a, dim_b):
        u = align_purifications(psi, target, dim_a, dim_b)
        if not calls:
            turn = np.eye(dim_b, dtype=complex)
            c, s = np.cos(1e-5), np.sin(1e-5)
            turn[np.ix_([0, dim_b - 1], [0, dim_b - 1])] = [[c, -s], [s, c]]
            u = turn @ u
        calls.append(u)
        return u

    monkeypatch.setattr(qqc.reconstruct, "align_purifications", turned)
    with pytest.raises(ReconstructionError, match="final Gram matrix misses the chain's"):
        reconstruct_algorithm(deutsch, 1, 0.0)
    assert len(calls) == 2


@pytest.mark.parametrize("pname,q,eps", FEASIBLE_CELLS)
def test_forward_walk_starts_on_the_chain(pname, q, eps, cached_solve):
    # the first unitary maps |0> to a purification of the cleaned rho_0 (at
    # q = 0, to the common final vector), and the measurement is read off
    # the coordinate owners
    p = PROBLEMS[pname]
    point = _with_final_gram(p, cached_solve(pname, "primal", q, eps).point, eps)
    vectors, owner = extract_final_states(p, point["final_gram"], _shares(p, point, eps), eps)
    alg = backward_chain(p, q, point, (vectors, owner))
    start = run(alg, p).states[0, 0]
    if q:
        w, v = np.linalg.eigh(point["rho_0"])
        rho_0 = (v * np.clip(w, 0.0, None)) @ v.conj().T
        reduced = partial_trace(np.outer(start, start.conj()), (p.n, alg.w_dim))
        assert np.linalg.norm(reduced - rho_0) <= 1e-10
    else:
        for vec in vectors:
            assert np.linalg.norm(start[: vec.size] - vec) <= 1e-8
        assert np.linalg.norm(start[vectors.shape[1]:]) <= 1e-8
    expected = _projectors(p, owner, alg.dim)
    assert set(alg.projectors) == set(expected)
    for z, pz in alg.projectors.items():
        assert np.array_equal(pz, expected[z])


def _rank(m):
    # eigenvalues above 1e-10 of the largest, the cut purify keeps
    w = np.linalg.eigvalsh(m)
    return int(np.sum(w > 1e-10 * max(w[-1], 1e-300)))


@pytest.mark.parametrize(
    "pname,q,eps",
    FEASIBLE_CELLS + tuple((f, q, eps) for f in FAMILIES for q in (1, 2) for eps in (0.0, 0.1)),
)
def test_workspace_is_the_widest_purification_the_point_needs(pname, q, eps):
    # each chain state before a query is purified at its own rank, and the
    # final vectors fill n x w_dim coordinates; nothing pads beyond that
    p = {**PROBLEMS, **FAMILIES}[pname]
    res = reconstruct_algorithm(p, q, eps)
    point = res.outcome.point
    before = ["rho_0"] * (q > 0) + [f"state_iq_{t}" for t in range(1, q)]
    need = max([_rank(point[b]) for b in before] + [-(-res.extracted_dim // p.n)])
    assert res.algorithm.w_dim == need
    # at solver seed 0, reconstruct_algorithm's default
    seed0 = {("deutsch", 1, 0.0): 2, ("weyl3", 1, 0.0): 3}
    if (pname, q, eps) in seed0:
        assert res.algorithm.w_dim == seed0[(pname, q, eps)]


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
        # a 1x1 "im" must not broadcast over the 4x4 "re"
        lambda d: d["unitaries"][1].update(im=[[0.5]]),
    ],
)
def test_algorithm_from_dict_rejects_malformed(mutate):
    data = algorithm_to_dict(hand_deutsch_algorithm())
    mutate(data)
    with pytest.raises(ValueError):
        algorithm_from_dict(data)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["unitary", "projector"])
def test_algorithm_from_dict_rejects_non_finite(value, where):
    # a NaN read from JSON used to reach the simulation's eigh
    data = algorithm_to_dict(hand_deutsch_algorithm())
    entry = data["unitaries"][0] if where == "unitary" else data["projectors"]["1"]
    entry["im" if where == "unitary" else "re"][0][0] = value
    with pytest.raises(ValueError, match="non-finite"):
        algorithm_from_dict(data)


@pytest.mark.parametrize("where", ["unitary", "projector"])
def test_validate_algorithm_fails_non_finite_residuals(where):
    # max(0.0, nan) is 0.0, so a NaN residual used to pass
    alg = hand_deutsch_algorithm()
    if where == "unitary":
        alg.unitaries[0] = alg.unitaries[0].copy()
        alg.unitaries[0][0, 0] = np.nan
    else:
        alg.projectors["0"] = alg.projectors["0"].copy()
        alg.projectors["0"][1, 1] = np.nan
    with pytest.raises(ReconstructionError, match="nan"):
        validate_algorithm(alg)


def test_algorithm_from_dict_real_only_entries():
    data = algorithm_to_dict(hand_deutsch_algorithm())
    for e in data["unitaries"]:
        del e["im"]
    back = algorithm_from_dict(data)
    assert np.allclose(back.unitaries[0].imag, 0.0)
