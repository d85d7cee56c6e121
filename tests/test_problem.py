import dataclasses
import functools

import numpy as np
import pytest

from qqc.problem import (
    QueryProblem,
    build_omega,
    phase_query_problem,
    problem_from_dict,
    problem_to_dict,
    validate,
)


def _codes(p):
    return {issue["code"] for issue in validate(p).issues}


def _ok_problem():
    eye = np.eye(2, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    return QueryProblem(2, ("a", "b"), np.stack([eye, flip]), ("0", "1"),
                        {"a": "0", "b": "1"})


def test_validate_accepts_good_problem():
    rep = validate(_ok_problem())
    assert rep.ok
    assert rep.issues == []


def test_validate_bad_n():
    p = dataclasses.replace(_ok_problem(), n=0)
    assert "bad-n" in _codes(p)


def test_validate_empty_family():
    p = QueryProblem(2, (), np.zeros((0, 2, 2), dtype=complex), ("0",), {})
    assert "empty-family" in _codes(p)


def test_validate_duplicate_labels():
    p = dataclasses.replace(_ok_problem(), labels=("a", "a"))
    codes = _codes(p)
    assert "dup-label" in codes


def test_validate_empty_and_duplicate_outputs():
    p = dataclasses.replace(_ok_problem(), outputs=())
    assert "empty-outputs" in _codes(p)
    p = dataclasses.replace(_ok_problem(), outputs=("0", "0"))
    assert "dup-output" in _codes(p)


def test_validate_bad_shape_short_circuits():
    p = dataclasses.replace(_ok_problem(), unitaries=np.eye(3, dtype=complex))
    codes = _codes(p)
    assert codes == {"bad-shape"}


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_non_finite_short_circuits(value):
    # NaN fails every comparison, so it must be caught before unitarity
    p = _ok_problem()
    bad = p.unitaries.copy()
    bad[1, 0, 1] = value
    p = dataclasses.replace(p, unitaries=bad)
    rep = validate(p)
    assert {issue["code"] for issue in rep.issues} == {"non-finite"}
    assert "'b'" in rep.issues[0]["message"]


def test_validate_not_unitary_reports_residual():
    p = _ok_problem()
    bad = p.unitaries.copy()
    bad[1] = 2.0 * bad[1]
    p = dataclasses.replace(p, unitaries=bad)
    rep = validate(p)
    hits = [i for i in rep.issues if i["code"] == "not-unitary"]
    assert len(hits) == 1
    assert hits[0]["residual"] > 1.0


def _four_label_problem(mats):
    labels = ("a", "b", "c", "d")
    return QueryProblem(2, labels, np.stack(mats), ("0",), {lab: "0" for lab in labels})


def test_validate_stacked_checks_keep_label_order():
    # the finiteness and unitarity checks run on the whole stack at once
    eye = np.eye(2, dtype=complex)
    skew = np.array([[1.0, 0.5j], [0.0, 1.0]])
    scaled = np.array([[0.0, 3.0], [1.0, 0.0]], dtype=complex)
    rep = validate(_four_label_problem([eye, skew, eye, scaled]))
    hits = [i for i in rep.issues if i["code"] == "not-unitary"]
    assert [h["message"] for h in hits] == ["matrix 'b' is not unitary",
                                            "matrix 'd' is not unitary"]
    for h, u in zip(hits, (skew, scaled)):
        assert abs(h["residual"] - np.linalg.norm(u.conj().T @ u - eye)) <= 1e-12

    nan, inf = eye.copy(), eye.copy()
    nan[0, 1] = np.nan
    inf[1, 1] = -np.inf
    rep = validate(_four_label_problem([nan, eye, inf, eye]))
    assert [i["code"] for i in rep.issues] == ["non-finite"]
    assert rep.issues[0]["message"] == "matrices ['a', 'c'] have non-finite entries"


def test_validate_g_issues():
    p = dataclasses.replace(_ok_problem(), g={"a": "0"})
    assert "g-not-total" in _codes(p)
    p = dataclasses.replace(_ok_problem(), g={"a": "0", "b": "nope"})
    assert "g-bad-value" in _codes(p)
    p = dataclasses.replace(_ok_problem(), g={"a": "0", "b": "1", "c": "0"})
    assert "g-extra-key" in _codes(p)


def test_build_omega_block_diagonal_unitary():
    p = _ok_problem()
    omega = build_omega(p)
    assert omega.shape == (4, 4)
    assert np.allclose(omega.conj().T @ omega, np.eye(4))
    assert np.allclose(omega[:2, :2], p.unitaries[0])
    assert np.allclose(omega[2:, 2:], p.unitaries[1])
    assert np.allclose(omega[:2, 2:], 0)


def test_build_omega_rejects_invalid():
    p = dataclasses.replace(_ok_problem(), g={})
    with pytest.raises(ValueError):
        build_omega(p)
    with pytest.raises(ValueError):
        p.omega


def test_problem_is_frozen_and_keeps_its_oracle():
    p = _ok_problem()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.n = 3
    assert p.omega is p.omega
    assert np.array_equal(p.omega, build_omega(p))
    assert not p.omega.flags.writeable


def test_a_problem_builds_once_only_its_own_values():
    # what another module keeps on a problem goes in `derived`
    # (`qqc.programs._derived`), not in an attribute of its own
    kept = {name for name, attr in vars(QueryProblem).items()
            if isinstance(attr, functools.cached_property)}
    assert kept == {"omega", "output_index", "derived"}
    p = _ok_problem()
    assert p.derived == {} and p.derived is p.derived
    assert dataclasses.replace(p).derived is not p.derived


def test_differing_pairs():
    p = phase_query_problem(2, {"00": "0", "11": "0", "01": "1", "10": "1"})
    # pairs cross the output classes only, in lexicographic index order
    assert p.differing_pairs() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    for i, j in p.differing_pairs():
        assert p.g[p.labels[i]] != p.g[p.labels[j]]
    const = phase_query_problem(1, {"0": "0", "1": "0"})
    assert const.differing_pairs() == []


def test_phase_query_problem_unitaries():
    g = {"00": "0", "11": "0", "01": "1", "10": "1"}
    p = phase_query_problem(2, g)
    assert p.labels == tuple(sorted(g))
    assert p.n == 2
    for i, lab in enumerate(p.labels):
        signs = np.array([(-1.0) ** int(ch) for ch in lab])
        assert np.allclose(p.unitaries[i], np.diag(signs))
    assert validate(p).ok


def test_phase_query_problem_rejects_partial_g():
    with pytest.raises(ValueError):
        phase_query_problem(2, {"00": "0"})


def test_problem_dict_round_trip():
    p = phase_query_problem(2, {"00": "0", "11": "0", "01": "1", "10": "1"})
    d = problem_to_dict(p)
    back = problem_from_dict(d)
    assert back.n == p.n
    assert back.labels == p.labels
    assert back.outputs == p.outputs
    assert back.g == p.g
    assert np.allclose(back.unitaries, p.unitaries)


def test_problem_from_dict_complex_entries():
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    p = QueryProblem(2, ("i", "y"), np.stack([np.eye(2, dtype=complex), y]),
                     ("i", "y"), {"i": "i", "y": "y"})
    back = problem_from_dict(problem_to_dict(p))
    assert np.allclose(back.unitaries[1], y)


def test_problem_from_dict_malformed():
    with pytest.raises((KeyError, ValueError, TypeError)):
        problem_from_dict({"n": 2})


@pytest.mark.parametrize("n", [2.9, 2.5, "2", True], ids=["2.9", "2.5", "str", "bool"])
def test_problem_from_dict_rejects_non_integer_n(n):
    # n is never truncated (2.9 to a valid 2) or parsed from a string
    data = problem_to_dict(phase_query_problem(2, {"00": "0", "11": "0", "01": "1", "10": "1"}))
    data["n"] = n
    with pytest.raises(ValueError, match="must be an integer"):
        problem_from_dict(data)


def test_problem_from_dict_accepts_a_numpy_integer_n():
    data = problem_to_dict(phase_query_problem(2, {"00": "0", "11": "0", "01": "1", "10": "1"}))
    data["n"] = np.int64(2)
    assert problem_from_dict(data).n == 2


@pytest.mark.parametrize("im", [[[0.5]], [0.0, 0.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
def test_problem_from_dict_rejects_misshaped_imaginary_part(im):
    # numpy would broadcast these over the 2x2 real part
    data = problem_to_dict(phase_query_problem(2, {"00": "0", "11": "0", "01": "1", "10": "1"}))
    data["unitaries"][0]["im"] = im
    with pytest.raises(ValueError, match='"im" shape'):
        problem_from_dict(data)


def test_indexing_helpers():
    p = phase_query_problem(2, {"00": "0", "11": "0", "01": "1", "10": "1"})
    assert p.size == 4
    assert p.class_indices("0") == [0, 3]


def test_output_index_is_built_once_and_read_only():
    p = phase_query_problem(2, {"00": "b", "11": "b", "01": "a", "10": "c"})
    assert p.outputs == ("a", "b", "c")
    assert p.output_index.tolist() == [1, 0, 2, 1]
    assert p.output_index is p.output_index
    assert not p.output_index.flags.writeable
    assert dataclasses.replace(p).output_index is not p.output_index
    # it validates first, as omega does
    with pytest.raises(ValueError, match="invalid problem"):
        dataclasses.replace(p, g={**p.g, "00": "z"}).output_index
