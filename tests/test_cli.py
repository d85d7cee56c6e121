"""CLI behavior: exit codes, JSON reports, seed handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qqc.cli
import qqc.simulate
import qqc.solver
from qqc.adversary import WitnessError
from qqc.cli import main
from qqc.problem import QueryProblem, problem_to_dict
from qqc.reconstruct import algorithm_to_dict
from qqc.simulate import QuantumQueryAlgorithm, run
from qqc.solver import FeasibilityOutcome

from conftest import PROBLEMS, START_FACE_PROBLEMS, hand_deutsch_algorithm


@pytest.fixture
def problem_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(problem_to_dict(PROBLEMS[name])))
        return str(path)

    return write


def _report(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_validate_ok(problem_file, capsys):
    code = main(["validate", problem_file("deutsch")])
    rep = _report(capsys)
    assert code == 0
    assert rep["status"] == "VALID"
    assert rep["results"]["issues"] == []


def test_validate_rejects_broken_problem(tmp_path, capsys):
    data = problem_to_dict(PROBLEMS["deutsch"])
    data["unitaries"][0]["re"] = [[1.0, 0.0], [1.0, 1.0]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code = main(["validate", str(path)])
    rep = _report(capsys)
    assert code == 2
    assert rep["status"] == "INVALID"
    assert any(issue["code"] == "not-unitary" for issue in rep["results"]["issues"])


def test_unreadable_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code = main(["validate", str(path)])
    rep = _report(capsys)
    assert code == 1
    assert rep["status"] == "INPUT_ERROR"


def test_feasible_reports_both_sides(problem_file, capsys):
    path = problem_file("deutsch")
    code = main(["feasible", path, "--q", "1", "--eps", "0"])
    rep = _report(capsys)
    assert code == 0
    assert rep["status"] == "FEASIBLE"
    assert "point_norms" in rep["results"]

    code = main(["feasible", path, "--q", "0", "--eps", "0"])
    rep = _report(capsys)
    assert code == 0
    assert rep["status"] == "INFEASIBLE"
    assert "certificate_norms" in rep["results"]


def test_feasible_relaxed_and_dual_flags(problem_file, capsys):
    path = problem_file("deutsch")
    code = main(["feasible", path, "--q", "1", "--eps", "0", "--relaxed"])
    assert code == 0
    assert _report(capsys)["status"] == "FEASIBLE"
    # the witness side is feasible exactly when the existence side is not
    code = main(["feasible", path, "--q", "0", "--eps", "0", "--dual"])
    assert code == 0
    assert _report(capsys)["status"] == "FEASIBLE"


def test_feasible_dual_names_the_existence_rows(problem_file, capsys):
    # a witness program is decided through its existence program, so an
    # INFEASIBLE answer's residuals are keyed by that program's rows
    path = problem_file("deutsch")
    code = main(["feasible", path, "--q", "1", "--eps", "0", "--dual"])
    rep = _report(capsys)
    assert code == 0
    assert rep["status"] == "INFEASIBLE"
    results = rep["results"]
    assert results["residuals"]
    assert set(results["residuals"]) <= set(results["existence_rows"])
    assert results["existence_rows"] != results["program_rows"]
    main(["feasible", path, "--q", "1", "--eps", "0"])
    assert "existence_rows" not in _report(capsys)["results"]


def test_feasible_rejects_bad_parameters(problem_file, capsys):
    code = main(["feasible", problem_file("deutsch"), "--q", "-1"])
    rep = _report(capsys)
    assert code == 2
    assert rep["status"] == "INVALID"


def test_feasible_export_sdpa(problem_file, tmp_path, capsys):
    out = tmp_path / "prog.dat-s"
    code = main(
        ["feasible", problem_file("deutsch"), "--q", "1", "--eps", "0.1",
         "--export-sdpa", str(out)]
    )
    rep = _report(capsys)
    assert code == 0
    assert rep["results"]["sdpa_path"] == str(out)
    assert out.exists()
    assert out.read_text().strip()


def test_adversary_with_gamma_file(problem_file, tmp_path, capsys):
    gam = tmp_path / "gamma.json"
    gam.write_text(json.dumps({"gamma": np.array(
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=float
    ).tolist()}))
    code = main(["adversary", problem_file("deutsch"), "--eps", "0", "--gamma", str(gam)])
    rep = _report(capsys)
    assert code == 0
    assert rep["results"]["bound"] > 0
    assert rep["results"]["witness"]["checked"] in (True, False)


def test_adversary_auto_search(problem_file, capsys):
    code = main(["adversary", problem_file("ix"), "--eps", "0"])
    rep = _report(capsys)
    assert code == 0
    assert rep["results"]["bound"] >= 0.25 - 1e-9
    assert rep["results"]["witness"]["ok"]


def test_adversary_rejects_bad_gamma(problem_file, tmp_path, capsys):
    gam = tmp_path / "gamma.json"
    gam.write_text(json.dumps([[0.0, -1.0], [-1.0, 0.0]]))
    code = main(["adversary", problem_file("deutsch"), "--gamma", str(gam)])
    rep = _report(capsys)
    assert code == 2
    assert rep["status"] == "INVALID"


def test_adversary_ceiling_and_witness_agree_near_an_integer(tmp_path, capsys):
    # I against a real rotation R(theta) under the swap weighting at eps 0:
    # the bound crosses 1 at theta = 2 asin(1/4), and one ulp of theta moves
    # it by less than the rounding of lambda / alpha, so a bound just above 1
    # proves no second query
    gam = _write_json(tmp_path, "gamma.json", [[0.0, 1.0], [1.0, 0.0]])
    theta = 2.0 * np.arcsin(0.25)
    for _ in range(41):
        theta = np.nextafter(theta, 0.0)
    bounds = []
    for _ in range(82):
        c, s = np.cos(theta), np.sin(theta)
        rot = QueryProblem(2, ("a", "b"), np.stack([np.eye(2), [[c, -s], [s, c]]]).astype(complex),
                           ("a", "b"), {"a": "a", "b": "b"})
        path = _write_json(tmp_path, "rot.json", problem_to_dict(rot))
        assert main(["adversary", path, "--eps", "0", "--gamma", gam]) == 0
        res = _report(capsys)["results"]
        bounds.append(res["bound"])
        assert res["ceil_bound"] == 1, res["bound"]
        assert res["witness"]["q"] == res["ceil_bound"] - 1
        assert res["witness"]["ok"]
        theta = np.nextafter(theta, 4.0)
    assert any(1.0 < b <= 1.0 + 1e-12 for b in bounds)


def test_adversary_reports_a_bound_below_one_query(problem_file, capsys):
    # at eps just below 1/2 the prefactor, and with it the bound, is about
    # 1e-14: no step count lies below a ceiling of 0, so no witness is made
    code = main(["adversary", problem_file("deutsch"), "--eps", "0.4999999"])
    res = _report(capsys)["results"]
    assert code == 0
    assert 0.0 < res["bound"] < 1e-12 and res["ceil_bound"] == 0
    assert res["witness"] == {"q": -1, "checked": False,
                              "reason": "no nonnegative step count lies below the bound"}


def test_adversary_reports_a_failed_witness(problem_file, capsys, monkeypatch):
    def fail(p, gamma, q, eps):
        raise WitnessError("worst row 'rho_0' residual 1.000e+00")

    monkeypatch.setattr(qqc.cli, "make_dual_witness", fail)
    code = main(["adversary", problem_file("deutsch"), "--eps", "0"])
    res = _report(capsys)["results"]
    assert code == 0
    assert res["witness"] == {"q": 0, "checked": True, "ok": False,
                              "error": "worst row 'rho_0' residual 1.000e+00"}


def test_estimate_deutsch(problem_file, capsys):
    code = main(["estimate", problem_file("deutsch"), "--eps", "0", "--qmax", "2"])
    rep = _report(capsys)
    assert code == 0
    assert rep["results"]["qqc"] == 1
    assert rep["results"]["per_q_status"]["0"] == "INFEASIBLE_WITH_CERTIFICATE"
    assert rep["results"]["per_q_status"]["1"] == "FEASIBLE"
    assert "2" not in rep["results"]["per_q_status"]


def test_estimate_without_an_adversary_bound(problem_file, capsys):
    # the spectral bound needs eps < 1/2; above it the floor stays 0
    code = main(["estimate", problem_file("deutsch"), "--eps", "0.6", "--qmax", "2"])
    rep = _report(capsys)
    assert code == 0
    assert rep["results"]["adversary_floor"] == 0.0
    assert rep["results"]["adversary_floor_ceil"] == 0


def test_estimate_exhausts_qmax(problem_file, capsys):
    code = main(["estimate", problem_file("deutsch"), "--eps", "0", "--qmax", "0"])
    rep = _report(capsys)
    assert code == 0
    assert rep["results"]["qqc"] is None
    assert rep["results"]["qqc_at_least"] == 1


@pytest.mark.parametrize("qmax,undecided,at_least", [(2, 1, 3), (1, 1, 1), (0, 0, 0)])
def test_estimate_lower_bound_counts_only_certified_q(
        problem_file, capsys, monkeypatch, qmax, undecided, at_least):
    # or2 is certified at every q; with one q made UNDECIDED the report may
    # claim only 1 + the largest certified q (infeasibility is monotone in q)
    real = qqc.cli.solve
    scanned = []

    def solve(prog, cfg):
        q = len(scanned)
        scanned.append(q)
        out = real(prog, cfg)
        return FeasibilityOutcome("UNDECIDED", None, None, out.residuals, 50000) if q == undecided else out

    monkeypatch.setattr(qqc.cli, "solve", solve)
    code = main(["estimate", problem_file("or2"), "--eps", "0", "--qmax", str(qmax)])
    rep = _report(capsys)
    assert (code, rep["status"]) == (3, "INCONCLUSIVE")
    statuses = rep["results"]["per_q_status"]
    assert scanned == list(range(qmax + 1))
    assert statuses[str(undecided)] == "UNDECIDED"
    assert all(v == "INFEASIBLE_WITH_CERTIFICATE" for q, v in statuses.items() if q != str(undecided))
    assert rep["results"]["qqc"] is None
    assert rep["results"]["qqc_at_least"] == at_least


def test_reconstruct_writes_protocol(problem_file, tmp_path, capsys):
    out = tmp_path / "alg.json"
    code = main(
        ["reconstruct", problem_file("deutsch"), "--q", "1", "--eps", "0", "--out", str(out)]
    )
    rep = _report(capsys)
    assert code == 0
    assert rep["status"] == "OK"
    data = json.loads(out.read_text())
    assert len(data["unitaries"]) == 2

    # the written protocol survives a simulate round trip
    code = main(["simulate", problem_file("deutsch"), "--alg", str(out), "--eps", "0"])
    rep = _report(capsys)
    assert code == 0
    assert rep["status"] == "PASS"
    assert rep["results"]["success"]["min_success"] >= 1.0 - 1e-6


def test_reconstruct_writes_a_real_protocol_for_a_real_problem(tmp_path, capsys):
    # all-equal's program at q=1, eps 0.1 is real and sits on its boundary;
    # at the default seed it is polished on the real form, so the protocol
    # it rebuilds is real
    prob, out = tmp_path / "all_equal.json", tmp_path / "alg.json"
    prob.write_text(json.dumps(problem_to_dict(START_FACE_PROBLEMS["all_equal"])))
    argv = ["reconstruct", str(prob), "--q", "1", "--eps", "0.1", "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    assert _report(capsys)["status"] == "OK"
    data = json.loads(out.read_text())
    mats = data["unitaries"] + list(data["projectors"].values())
    assert all(x == 0 for m in mats for row in m["im"] for x in row)
    assert main(["simulate", str(prob), "--alg", str(out), "--eps", "0.1"]) == 0
    assert _report(capsys)["status"] == "PASS"


def test_reconstruct_rewrites_a_longer_file_in_place(problem_file, tmp_path, capsys):
    out, fresh = tmp_path / "alg.json", tmp_path / "fresh.json"
    out.write_text(json.dumps({"padding": "x" * 100_000}))
    for path in (out, fresh):
        argv = ["reconstruct", problem_file("deutsch"), "--q", "1", "--eps", "0", "--out", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
    assert json.loads(out.read_text()) == json.loads(fresh.read_text())


def test_reconstruct_to_devnull(problem_file, capsys):
    argv = ["reconstruct", problem_file("deutsch"), "--q", "1", "--eps", "0", "--out", os.devnull]
    assert main(argv) == 0
    assert _report(capsys)["status"] == "OK"


def test_reconstruct_infeasible_is_precondition_failure(problem_file, tmp_path, capsys):
    out = tmp_path / "alg.json"
    code = main(
        ["reconstruct", problem_file("deutsch"), "--q", "0", "--eps", "0", "--out", str(out)]
    )
    rep = _report(capsys)
    assert code == 4
    assert rep["status"] == "PRECONDITION_FAILED"
    assert not out.exists()


def test_simulate_evolves_the_protocol_once(problem_file, tmp_path, capsys, monkeypatch):
    # the success report and the existence-program point read the same run
    calls = []

    def counted(alg, p):
        calls.append(p)
        return run(alg, p)

    monkeypatch.setattr(qqc.cli, "run", counted)
    monkeypatch.setattr(qqc.simulate, "run", counted)
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(algorithm_to_dict(hand_deutsch_algorithm())))
    code = main(["simulate", problem_file("deutsch"), "--alg", str(path), "--eps", "0"])
    rep = _report(capsys)
    assert (code, rep["status"]) == (0, "PASS")
    assert len(calls) == 1
    assert rep["results"]["chain_residual"] <= 1e-12


@pytest.mark.parametrize("theta, verdict", [(1e-3, (0, "PASS")), (3e-3, (2, "FAIL"))])
def test_simulate_verdict_follows_the_success_floor(problem_file, tmp_path, capsys, theta, verdict):
    # turning the hand circuit's last unitary by theta leaves a success
    # shortfall of sin(theta)^2: 1.0e-6 (within success_report's tolerance)
    # at 1e-3 and 9.0e-6 at 3e-3; at eps 0 the shares' off-class part, of
    # the order of sin(theta), must not decide the verdict in its place
    alg = hand_deutsch_algorithm()
    c, s = np.cos(theta), np.sin(theta)
    alg.unitaries[-1] = np.array([[c, -s], [s, c]], dtype=complex) @ alg.unitaries[-1]
    path = tmp_path / "turned.json"
    path.write_text(json.dumps(algorithm_to_dict(alg)))
    code = main(["simulate", problem_file("deutsch"), "--alg", str(path), "--eps", "0"])
    rep = _report(capsys)
    assert (code, rep["status"]) == verdict
    assert rep["results"]["success"]["passed"] == (verdict[1] == "PASS")
    assert rep["results"]["chain_residual"] <= 1e-12


def test_simulate_failing_protocol(problem_file, tmp_path, capsys):
    alg = hand_deutsch_algorithm()
    alg.projectors["0"], alg.projectors["1"] = alg.projectors["1"], alg.projectors["0"]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(algorithm_to_dict(alg)))
    code = main(["simulate", problem_file("deutsch"), "--alg", str(path), "--eps", "0"])
    rep = _report(capsys)
    assert code == 2
    assert rep["status"] == "FAIL"
    assert rep["results"]["success"]["min_success"] <= 1e-9


def test_reconstruct_reports_an_undecided_solve(tmp_path, capsys, monkeypatch):
    # I against R(0.3) at q=3, eps 0.1 is decided in neither 64 sweeps
    c, s = np.cos(0.3), np.sin(0.3)
    p = QueryProblem(2, ("i", "r"), np.array([np.eye(2), [[c, -s], [s, c]]], dtype=complex),
                     ("a", "b"), {"i": "a", "r": "b"})
    monkeypatch.setattr(qqc.solver, "_MAX_ITERS", 64)
    out = tmp_path / "alg.json"
    code = main(["reconstruct", _write_json(tmp_path, "rot.json", problem_to_dict(p)),
                 "--q", "3", "--eps", "0.1", "--out", str(out)])
    rep = _report(capsys)
    assert (code, rep["status"]) == (3, "UNDECIDED")
    assert rep["error"]
    assert not out.exists()


def test_simulate_rejects_non_projective_protocol(tmp_path, capsys):
    # I against a real rotation by 0.3 rad is infeasible at q=1, eps 0.1; a
    # Hermitian "P_a" with a negative eigenvalue would pass the success check
    # and meet the chain rows, so the protocol's structure is checked first
    c, s = np.cos(0.3), np.sin(0.3)
    p = QueryProblem(2, ("i", "r"), np.array([np.eye(2), [[c, -s], [s, c]]], dtype=complex),
                     ("a", "b"), {"i": "a", "r": "b"})
    p_a = np.array([[1.0, -1.5], [-1.5, 0.0]], dtype=complex)
    alg = QuantumQueryAlgorithm(n=2, w_dim=1, unitaries=[np.eye(2, dtype=complex)] * 2,
                                projectors={"a": p_a, "b": np.eye(2) - p_a})
    code = main(["simulate", _write_json(tmp_path, "rot.json", problem_to_dict(p)),
                 "--alg", _write_json(tmp_path, "fake.json", algorithm_to_dict(alg)),
                 "--eps", "0.1"])
    rep = _report(capsys)
    assert code == 2
    assert rep["status"] == "INVALID"
    assert "projector" in rep["error"]


def test_simulate_non_finite_algorithm_is_input_error(problem_file, tmp_path, capsys):
    # JSON's NaN literal in a unitary: refused on reading, not a traceback
    data = algorithm_to_dict(hand_deutsch_algorithm())
    data["unitaries"][0]["re"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    assert "NaN" in path.read_text()
    code = main(["simulate", problem_file("deutsch"), "--alg", str(path), "--eps", "0"])
    rep = _report(capsys)
    assert code == 1
    assert rep["status"] == "INPUT_ERROR"
    assert "non-finite" in rep["error"]


def test_simulate_dimension_mismatch(problem_file, tmp_path, capsys):
    alg = hand_deutsch_algorithm()
    data = algorithm_to_dict(alg)
    data["n"] = 3
    data["w_dim"] = 1
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(data))
    code = main(["simulate", problem_file("deutsch"), "--alg", str(path)])
    rep = _report(capsys)
    # shape validation happens before the register comparison
    assert code in (1, 2)
    assert rep["status"] in ("INPUT_ERROR", "INVALID")


@pytest.mark.parametrize("command,eps", [("estimate", "1.5"), ("estimate", "-0.1"),
                                         ("simulate", "1.5")])
def test_error_tolerance_out_of_range_is_invalid(problem_file, tmp_path, capsys, command, eps):
    argv = [command, problem_file("deutsch"), "--eps", eps]
    if command == "simulate":
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(algorithm_to_dict(hand_deutsch_algorithm())))
        argv += ["--alg", str(path)]
    code = main(argv)
    rep = _report(capsys)
    assert code == 2
    assert rep["status"] == "INVALID"
    assert "error tolerance" in rep["error"]


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_list_in_place_of_a_mapping_is_input_error(problem_file, tmp_path, capsys, command):
    if command == "validate":
        data = problem_to_dict(PROBLEMS["deutsch"])
        data["g"] = ["0"]
        path = tmp_path / "listed_g.json"
        path.write_text(json.dumps(data))
        argv = ["validate", str(path)]
    else:
        data = algorithm_to_dict(hand_deutsch_algorithm())
        data["projectors"] = [1]
        path = tmp_path / "listed_projectors.json"
        path.write_text(json.dumps(data))
        argv = ["simulate", problem_file("deutsch"), "--alg", str(path)]
    code = main(argv)
    rep = _report(capsys)
    assert code == 1
    assert rep["status"] == "INPUT_ERROR"


def _write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _misshaped_unitary():
    data = problem_to_dict(PROBLEMS["deutsch"])
    data["unitaries"][0] = {"label": "00", "re": np.eye(3).tolist()}
    return data


def _misshaped_im(tmp_path, kind):
    # a 1x1 "im" beside a 2x2 "re" must not broadcast over the matrix
    if kind == "problem":
        data = problem_to_dict(PROBLEMS["deutsch"])
        data["unitaries"][0]["im"] = [[0.5]]
    else:
        data = algorithm_to_dict(hand_deutsch_algorithm())
        data["projectors"]["0"]["im"] = [[0.5]]
    return _write_json(tmp_path, f"im_{kind}.json", data)


def _unmeasured_output(tmp_path):
    # a valid measurement whose labels are not the problem's outputs
    data = algorithm_to_dict(hand_deutsch_algorithm())
    data["projectors"] = {"zero": data["projectors"]["0"], "one": data["projectors"]["1"]}
    return _write_json(tmp_path, "unmeasured.json", data)


def _register_mismatch(tmp_path):
    # consistent shapes (n * w_dim = 2), but a one-dimensional query register
    data = algorithm_to_dict(hand_deutsch_algorithm())
    data["n"], data["w_dim"] = 1, 2
    return _write_json(tmp_path, "one_register.json", data)


# (argv from the deutsch problem path and tmp_path, exit code, status)
BAD_INPUTS = {
    "validate-missing-file": (lambda d, t: ["validate", str(t / "missing.json")], 1, "INPUT_ERROR"),
    "feasible-dual-export": (
        lambda d, t: ["feasible", d, "--q", "1", "--dual", "--export-sdpa", str(t / "p.dat-s")],
        2, "INVALID"),
    "feasible-export-missing-directory": (
        lambda d, t: ["feasible", d, "--q", "1", "--export-sdpa", str(t / "no" / "p.dat-s")],
        1, "INPUT_ERROR"),
    "adversary-1d-gamma": (
        lambda d, t: ["adversary", d, "--gamma", _write_json(t, "g.json", [0.0, 1.0])],
        1, "INPUT_ERROR"),
    "adversary-text-gamma": (
        lambda d, t: ["adversary", d, "--gamma", _write_json(t, "g.json", [["a", "b"], ["c", "d"]])],
        1, "INPUT_ERROR"),
    "estimate-negative-qmax": (lambda d, t: ["estimate", d, "--qmax", "-1"], 2, "INVALID"),
    "reconstruct-eps-above-one": (
        lambda d, t: ["reconstruct", d, "--q", "1", "--eps", "1.5", "--out", str(t / "alg.json")],
        2, "INVALID"),
    "reconstruct-missing-directory": (
        lambda d, t: ["reconstruct", d, "--q", "1", "--eps", "0", "--out", str(t / "no" / "a.json")],
        1, "INPUT_ERROR"),
    "simulate-register-mismatch": (
        lambda d, t: ["simulate", d, "--alg", _register_mismatch(t)], 2, "INVALID"),
    "simulate-unmeasured-output": (
        lambda d, t: ["simulate", d, "--alg", _unmeasured_output(t)], 2, "INVALID"),
    "validate-misshaped-im": (lambda d, t: ["validate", _misshaped_im(t, "problem")], 1, "INPUT_ERROR"),
    # a fractional n is an input error, never truncated to a valid n = 2
    "validate-fractional-n": (
        lambda d, t: ["validate", _write_json(t, "n.json", {**problem_to_dict(PROBLEMS["deutsch"]), "n": 2.5})],
        1, "INPUT_ERROR"),
    "simulate-misshaped-im": (
        lambda d, t: ["simulate", d, "--alg", _misshaped_im(t, "protocol")], 1, "INPUT_ERROR"),
    # a 3x3 unitary where n = 2
    "validate-misshaped-unitary": (
        lambda d, t: ["validate", _write_json(t, "u.json", _misshaped_unitary())], 1, "INPUT_ERROR"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exit_codes(problem_file, tmp_path, capsys, case):
    argv, code, status = BAD_INPUTS[case]
    assert main(argv(problem_file("deutsch"), tmp_path)) == code
    rep = _report(capsys)
    assert rep["status"] == status
    assert rep["error"]


def test_missing_required_option_exits_with_input_code(problem_file, capsys):
    # argparse errors go through _Parser.error, which exits with code 1
    with pytest.raises(SystemExit) as info:
        main(["feasible", problem_file("deutsch")])
    assert info.value.code == 1
    assert "--q" in capsys.readouterr().err


def test_feasible_on_invalid_problem_lists_the_issues(tmp_path, capsys):
    data = problem_to_dict(PROBLEMS["deutsch"])
    data["unitaries"][0]["re"] = [[1.0, 0.0], [1.0, 1.0]]
    code = main(["feasible", _write_json(tmp_path, "broken.json", data), "--q", "1"])
    rep = _report(capsys)
    assert code == 2
    assert rep["status"] == "INVALID"
    assert any(issue["code"] == "not-unitary" for issue in rep["results"]["issues"])


def test_feasible_on_non_finite_problem_is_invalid(tmp_path, capsys):
    data = problem_to_dict(PROBLEMS["deutsch"])
    data["unitaries"][0]["re"][0][0] = float("nan")
    code = main(["feasible", _write_json(tmp_path, "nan.json", data), "--q", "1"])
    out = capsys.readouterr().out
    assert "NaN" not in out
    rep = json.loads(out)
    assert code == 2
    assert rep["status"] == "INVALID"
    assert [issue["code"] for issue in rep["results"]["issues"]] == ["non-finite"]


@pytest.mark.parametrize("argv", [
    ["validate", "--seed", "1"],
    ["adversary", "--seed", "1"],
    ["simulate", "--alg", "alg.json", "--seed", "1"],
    ["adversary", "--budget", "50"],
    ["estimate", "--budget", "50"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_settings_are_rejected(problem_file, capsys, argv):
    # only feasible, estimate and reconstruct solve a program, so only they
    # take --seed; the adversary search runs a fixed number of evaluations
    with pytest.raises(SystemExit) as info:
        main([argv[0], problem_file("deutsch"), *argv[1:]])
    assert info.value.code == 1
    assert argv[-2] in capsys.readouterr().err


def test_seed_comes_from_the_option_only(problem_file, capsys, monkeypatch):
    argv = ["feasible", problem_file("deutsch"), "--q", "1", "--eps", "0", "--seed", "3"]
    assert main(argv) == 0
    plain = _report(capsys)
    monkeypatch.setenv("QQC_SEED", "11")
    assert main(argv) == 0
    rep = _report(capsys)
    assert "seed" not in rep
    assert rep["parameters"]["seed"] == 3
    assert rep["results"]["iterations"] == plain["results"]["iterations"]


def test_reader_closing_early_keeps_the_exit_code(problem_file):
    # the read end of stdout closes before the child prints its report: the
    # command still exits with its own code and prints no traceback
    src = str(Path(qqc.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "qqc.cli", "validate", problem_file("deutsch")]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert b"Traceback" not in err


def test_one_parser_serves_every_call(problem_file, capsys, monkeypatch):
    # the parser is built once per process, and a call that fails argument
    # parsing leaves it as it was: the next call reports what the first did
    argv = ["estimate", problem_file("deutsch"), "--eps", "0", "--qmax", "1"]
    assert main(argv) == 0
    first = _report(capsys)
    with pytest.raises(SystemExit) as info:
        main(["estimate", problem_file("deutsch"), "--qmax", "one"])
    assert info.value.code == 1
    capsys.readouterr()
    assert main(argv) == 0
    second = _report(capsys)
    first.pop("elapsed_s")
    second.pop("elapsed_s")
    assert first == second
    assert qqc.cli._build_parser() is qqc.cli._build_parser()
    # each command function is looked up at call time, not when the parser was built
    monkeypatch.setattr(qqc.cli, "cmd_validate", lambda args: (0, "STUB", {}))
    assert main(["validate", problem_file("deutsch")]) == 0
    assert _report(capsys)["status"] == "STUB"


def test_reports_deterministic_for_fixed_seed(problem_file, tmp_path, capsys):
    argv = ["feasible", problem_file("deutsch"), "--q", "1", "--eps", "0.1", "--seed", "5"]
    main(argv)
    first = _report(capsys)
    main(argv)
    second = _report(capsys)
    first.pop("elapsed_s")
    second.pop("elapsed_s")
    assert first == second
    # the written protocol is byte-identical too: every unitary, the first
    # included, comes out of the same deterministic alignment
    out = tmp_path / "alg.json"
    argv = ["reconstruct", problem_file("deutsch"), "--q", "1", "--eps", "0.1", "--seed", "5",
            "--out", str(out)]
    written = []
    for _ in range(2):
        assert main(argv) == 0
        _report(capsys)
        written.append(out.read_bytes())
    assert written[0] == written[1]
