"""Acceptance gate: one test per release criterion, each a single pass/fail line.

Every criterion runs on the standard fixture set (constant map, two-point
parity, OR on two phase bits, identity-vs-flip discrimination) at desk scale
and finishes well inside its time budget.
"""

import json
import math

import numpy as np
import pytest

from qqc.adversary import make_dual_witness, spectral_bound
from qqc.cli import main
from qqc.problem import build_omega, problem_to_dict
from qqc.programs import build_dual_relaxed, build_primal
from qqc.reconstruct import reconstruct_algorithm
from qqc.sdpa import _constraint_matrices, export_sdpa, parse_sdpa
from qqc.simulate import extended_state, run, success_report, trace_to_primal_point
from qqc.solver import verify_point

from conftest import (
    BUILDERS,
    FEASIBLE_CELLS,
    PROBLEMS,
    check_block_schur_identity,
    hand_deutsch_algorithm,
    random_valid_gamma,
)
from test_programs import _map_inventory, random_hermitian

_GRID = [
    (pname, q, eps)
    for pname in ("const", "deutsch", "or2", "ix")
    for q in (0, 1, 2)
    for eps in (0.0, 0.1)
]

_DECIDED = {"FEASIBLE", "INFEASIBLE_WITH_CERTIFICATE"}


def _write_problem(tmp_path, pname):
    path = tmp_path / f"{pname}.json"
    path.write_text(json.dumps(problem_to_dict(PROBLEMS[pname])))
    return str(path)


def _cli_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def _existence_point(prog, multipliers):
    """The existence point behind a witness certificate: minus the multiplier
    of each block's witness row, and, for a slack block, which has no witness
    row, what its row leaves of the right-hand side."""
    point = {b.name: -multipliers[b.name] for b in prog.blocks if b.name in multipliers}
    for r in prog.rows:
        rest = r.rhs - sum(m.apply(point[prog.blocks[bj].name])
                           for bj, m in r.terms if prog.blocks[bj].name in point)
        for bj, _ in r.terms:
            point.setdefault(prog.blocks[bj].name, rest)
    return point


def test_criterion_01_duality_exclusivity(cached_solve):
    # existence and witness programs never both feasible, exact and relaxed.
    # The solver answers a witness program with its existence program's
    # answer swapped, so each decided answer is also re-verified from its own
    # program's data: a point against its program, and a certificate as a
    # point of the other program. Existence points are held to FEASIBLE's
    # 1e-10, witness points, which are certificates, to 1e-7
    for pname, q, eps in _GRID:
        for pside, dside in (("primal", "dual"), ("primal_relaxed", "dual_relaxed")):
            exist = BUILDERS[pside](PROBLEMS[pname], q, eps)
            witness = BUILDERS[dside](PROBLEMS[pname], q, eps)
            a = cached_solve(pname, pside, q, eps)
            b = cached_solve(pname, dside, q, eps)
            assert a.status in _DECIDED, (pname, pside, q, eps, a.status)
            assert b.status in _DECIDED, (pname, dside, q, eps, b.status)
            assert not (a.status == "FEASIBLE" and b.status == "FEASIBLE"), (
                pname, q, eps, pside, dside,
            )
            if a.status == "FEASIBLE":
                assert np.array_equal(b.certificate["strict"], [[1.0]]), (pname, dside, q, eps)
                for point in (a.point, _existence_point(exist, b.certificate)):
                    check = verify_point(exist, point)
                    assert check.within(1e-10), (pname, pside, q, eps, check.max_residual)
            else:
                for point in (b.point, a.certificate):
                    check = verify_point(witness, point)
                    assert check.within(1e-7), (pname, dside, q, eps, check.max_residual)
                    assert check.strict_slack > 0, (pname, dside, q, eps)


def test_criterion_02_deutsch_oracle_equivalence(tmp_path, capsys):
    code, rep = _cli_json(
        capsys, ["estimate", _write_problem(tmp_path, "deutsch"), "--eps", "0", "--qmax", "2"]
    )
    assert code == 0
    assert rep["results"]["qqc"] == 1
    assert rep["results"]["per_q_status"]["0"] == "INFEASIBLE_WITH_CERTIFICATE"
    assert rep["results"]["per_q_status"]["1"] == "FEASIBLE"
    # the hand-built parity circuit achieves the same count with certainty
    alg = hand_deutsch_algorithm()
    assert alg.q == 1
    srep = success_report(run(alg, PROBLEMS["deutsch"]), PROBLEMS["deutsch"], 0.0)
    assert srep.min_success == pytest.approx(1.0, abs=1e-12)


def test_criterion_03_adversary_bound_concrete_value(ix):
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = spectral_bound(ix, gamma, 0.0)
    assert not rep.unbounded
    assert rep.bound == pytest.approx(0.25, abs=1e-9)
    # independent dense cross-check of the commutation gap
    omega = build_omega(ix)
    big = np.kron(gamma, np.eye(2))
    gap = big - omega @ big @ omega.conj().T
    top = float(np.linalg.eigvalsh(gap)[-1])
    assert top == pytest.approx(2.0, abs=1e-12)
    lam = float(np.linalg.eigvalsh(gamma)[-1])
    assert rep.bound == pytest.approx(lam / (2.0 * top), abs=1e-12)


def test_criterion_04_witness_validity():
    rng = np.random.default_rng(2026)
    # the constant fixture has no pair of inputs with different outputs and
    # therefore no valid weight matrix; the criterion is vacuous there
    for pname in ("deutsch", "or2", "ix"):
        p = PROBLEMS[pname]
        for _ in range(20):
            gamma = random_valid_gamma(p, rng)
            for eps in (0.0, 0.1):
                rep = spectral_bound(p, gamma, eps)
                assert not rep.unbounded, (pname, eps)
                for q in range(int(math.ceil(rep.bound - 1e-12))):
                    witness = make_dual_witness(p, gamma, q, eps)
                    check = verify_point(build_dual_relaxed(p, q, eps), witness)
                    assert check.max_residual <= 1e-8, (pname, q, eps)
                    assert check.min_block_eig >= -1e-8, (pname, q, eps)
                    assert check.strict_slack > 0, (pname, q, eps)


def test_criterion_05_round_trip():
    for pname, q, eps in FEASIBLE_CELLS:
        p = PROBLEMS[pname]
        res = reconstruct_algorithm(p, q, eps)
        alg = res.algorithm
        cap = max(p.size * p.n, -(-p.size * len(p.outputs) // p.n))
        assert alg.w_dim <= cap, (pname, q, eps, alg.w_dim, cap)
        srep = success_report(run(alg, p), p, eps)
        assert srep.min_success >= 1.0 - eps - 1e-6, (pname, q, eps, srep.min_success)
        point = trace_to_primal_point(p, alg, eps)
        check = verify_point(build_primal(p, alg.q, eps), point)
        assert check.max_residual <= 1e-6, (pname, q, eps, check.max_residual)
        assert check.min_block_eig >= -1e-6, (pname, q, eps)


def test_criterion_06_gram_identity():
    cases = [("deutsch", hand_deutsch_algorithm())]
    for pname, q in (("const", 0), ("deutsch", 1), ("ix", 1)):
        cases.append((pname, reconstruct_algorithm(PROBLEMS[pname], q, 0.0).algorithm))
    for pname, alg in cases:
        p = PROBLEMS[pname]
        trace = run(alg, p)
        for t in range(alg.q + 1):
            _, _, rho_i = extended_state(p, alg, t)
            gap = float(np.max(np.abs(rho_i - trace.grams[t])))
            assert gap <= 1e-10, (pname, t, gap)


def test_criterion_07_adjoint_correctness():
    rng = np.random.default_rng(7)
    for m in _map_inventory(rng, 3, 2):
        for _ in range(100):
            x = random_hermitian(rng, m.d_in)
            y = random_hermitian(rng, m.d_out)
            lhs = np.trace(m.apply(x) @ y).real
            rhs = np.trace(x @ m.adjoint().apply(y)).real
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), m.kind


def test_criterion_08_block_schur_identity():
    rng = np.random.default_rng(8)
    s, n = 3, 2
    control_hits = 0
    for _ in range(100):
        z = np.zeros((s * n, s * n), dtype=complex)
        for i in range(s):
            blk = np.linalg.qr(rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)))[0]
            z[i * n:(i + 1) * n, i * n:(i + 1) * n] = blk
        m = random_hermitian(rng, s)
        x = random_hermitian(rng, s * n)
        assert check_block_schur_identity(z, m, x) <= 1e-10
        dense = np.linalg.qr(rng.standard_normal((s * n, s * n))
                             + 1j * rng.standard_normal((s * n, s * n)))[0]
        if check_block_schur_identity(dense, m, x) > 1e-3:
            control_hits += 1
    assert control_hits >= 95


def test_criterion_09_sanity_ordering(tmp_path, capsys):
    rng = np.random.default_rng(9)
    for pname in PROBLEMS:
        code, rep = _cli_json(
            capsys, ["estimate", _write_problem(tmp_path, pname), "--eps", "0", "--qmax", "2"]
        )
        assert code == 0
        qqc = rep["results"]["qqc"]
        if qqc is None:
            continue  # no achieved upper bound inside the scan window
        floor = rep["results"]["adversary_floor"]
        if floor is not None:
            assert floor <= qqc + 1e-9, (pname, floor, qqc)
        p = PROBLEMS[pname]
        for _ in range(5):
            gamma = random_valid_gamma(p, rng)
            if not gamma.any():
                continue
            extra = spectral_bound(p, gamma, 0.0)
            if not extra.unbounded:
                assert extra.bound <= qqc + 1e-9, (pname, extra.bound, qqc)


def test_criterion_10_sdpa_round_trip(tmp_path, deutsch):
    prog = build_primal(deutsch, 1, 0.1)
    want = _constraint_matrices(prog)
    path = str(tmp_path / "prog.dat-s")
    export_sdpa(prog, path)
    got = parse_sdpa(path)
    assert got.n_constraints == want.n_constraints
    assert got.block_sizes == want.block_sizes
    assert len(got.rhs) == len(want.rhs)
    for a, b in zip(got.rhs, want.rhs):
        assert abs(a - b) <= 1e-15
    lhs = {(k, blk, i, j): v for k, blk, i, j, v in got.entries}
    rhs = {(k, blk, i, j): v for k, blk, i, j, v in want.entries}
    assert set(lhs) == set(rhs)
    for key, v in lhs.items():
        assert abs(v - rhs[key]) <= 1e-15, key
