import numpy as np
import pytest

from conftest import random_valid_gamma
from qqc.adversary import (
    check_block_schur_identity,
    make_dual_witness,
    perron_vector,
    search_gamma,
    spectral_bound,
)
from qqc.problem import QueryProblem
from qqc.programs import build_dual_relaxed
from qqc.solver import verify_point


def test_perron_vector_agrees_with_dense_eig():
    rng = np.random.default_rng(17)
    for _ in range(25):
        raw = rng.uniform(0.0, 1.0, size=(5, 5))
        g = raw + raw.T
        lam, v = perron_vector(g)
        w = np.linalg.eigvalsh(g)
        assert lam == pytest.approx(w[-1], rel=1e-9, abs=1e-9)
        assert np.all(v >= -1e-9)
        assert np.linalg.norm(g @ v - lam * v) <= 1e-7 * max(1.0, lam)


def test_perron_vector_survives_tiny_spectral_gap():
    g = np.array([[1.0, 1e-14], [1e-14, 1.0]])
    lam, v = perron_vector(g)
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(v) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "g, lam",
    [
        # two components: lambda = 1 is repeated
        (np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]), 1.0),
        # the deutsch K_{2,2} weighting: spectrum 2, 0, 0, -2
        (np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=float), 2.0),
    ],
)
def test_perron_vector_without_a_spectral_gap(g, lam):
    got, v = perron_vector(g)
    assert got == pytest.approx(lam, abs=1e-12)
    assert np.all(v >= 0.0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(g @ v - got * v) <= 1e-12


def test_spectral_bound_pauli_pair_value(ix):
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = spectral_bound(ix, gamma, 0.0)
    assert rep.lambda_gamma == pytest.approx(1.0, abs=1e-12)
    assert rep.alpha == pytest.approx(4.0, abs=1e-12)
    assert rep.bound == pytest.approx(0.25, abs=1e-9)
    assert rep.ceil_bound == 1
    assert not rep.unbounded


def test_spectral_bound_error_rate_prefactor(ix):
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    exact = spectral_bound(ix, gamma, 0.0).bound
    noisy = spectral_bound(ix, gamma, 0.1).bound
    assert noisy == pytest.approx((1.0 - 2.0 * np.sqrt(0.09)) * exact, rel=1e-12)
    with pytest.raises(ValueError):
        spectral_bound(ix, gamma, 0.5)


def test_spectral_bound_rejects_invalid_weights(deutsch):
    s = deutsch.size
    with pytest.raises(ValueError):
        spectral_bound(deutsch, np.zeros((s, s)), 0.0)
    bad = np.zeros((s, s))
    bad[0, 1] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        spectral_bound(deutsch, bad, 0.0)
    neg = np.zeros((s, s))
    neg[0, 1] = neg[1, 0] = -1.0
    with pytest.raises(ValueError):
        spectral_bound(deutsch, neg, 0.0)
    same_class = np.zeros((s, s))
    same_class[1, 2] = same_class[2, 1] = 1.0  # 01 and 10 share an output
    same_class[0, 3] = same_class[3, 0] = 1.0  # and so do 00 and 11
    # the first offending pair in row-major order is named
    with pytest.raises(ValueError, match=r"weight at \(00, 11\) must vanish: equal outputs"):
        spectral_bound(deutsch, same_class, 0.0)


def test_spectral_bound_validates_the_problem_before_the_weights():
    # g is not total: the weight check would read g(b) before validation did
    eye = np.eye(2, dtype=complex)
    p = QueryProblem(2, ("a", "b"), np.stack([eye, eye]), ("0", "1"), {"a": "0"})
    with pytest.raises(ValueError, match="invalid problem"):
        spectral_bound(p, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_spectral_bound_rejects_non_finite_weights(deutsch, value):
    gamma = np.zeros((4, 4))
    gamma[0, 1] = gamma[1, 0] = value
    with pytest.raises(ValueError, match="finite"):
        spectral_bound(deutsch, gamma, 0.0)


def test_spectral_bound_unbounded_for_indistinguishable_family():
    # two identical oracles with different target outputs: no query helps
    eye = np.eye(2, dtype=complex)
    p = QueryProblem(2, ("a", "b"), np.stack([eye, eye]), ("0", "1"),
                     {"a": "0", "b": "1"})
    rep = spectral_bound(p, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0)
    assert rep.unbounded
    assert rep.ceil_bound is None


def test_make_dual_witness_verifies_on_fixtures(deutsch, ix):
    for p in (deutsch, ix):
        gamma, rep = search_gamma(p, 0.0)
        for q in range(int(np.ceil(rep.bound - 1e-12))):
            witness = make_dual_witness(p, gamma, q, 0.0)
            check = verify_point(build_dual_relaxed(p, q, 0.0), witness)
            assert check.max_residual <= 1e-8
            assert check.strict_slack > 0


def test_make_dual_witness_on_a_disconnected_weighting(deutsch):
    # weights on (00, 01) and (11, 10) only: the top eigenvalue is repeated
    idx = {lab: i for i, lab in enumerate(deutsch.labels)}
    gamma = np.zeros((4, 4))
    for a, b in (("00", "01"), ("11", "10")):
        gamma[idx[a], idx[b]] = gamma[idx[b], idx[a]] = 1.0
    for eps in (0.0, 0.1):
        rep = spectral_bound(deutsch, gamma, eps)
        assert rep.ceil_bound >= 1
        for q in range(rep.ceil_bound):
            witness = make_dual_witness(deutsch, gamma, q, eps)
            check = verify_point(build_dual_relaxed(deutsch, q, eps), witness)
            assert check.max_residual <= 1e-8
            assert check.min_block_eig >= -1e-8
            assert check.strict_slack > 0


def test_make_dual_witness_rejects_q_at_or_above_bound(ix):
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        make_dual_witness(ix, gamma, 1, 0.0)  # bound is 0.25


def test_random_weights_witness_property(deutsch, or2, ix):
    rng = np.random.default_rng(23)
    for p in (deutsch, or2, ix):
        for _ in range(5):
            gamma = random_valid_gamma(p, rng)
            rep = spectral_bound(p, gamma, 0.1)
            assert rep.bound > 0
            witness = make_dual_witness(p, gamma, 0, 0.1)
            assert "step_0" in witness


def test_search_gamma_improves_on_deutsch(deutsch):
    gamma, rep = search_gamma(deutsch, 0.0)
    assert rep.bound >= 0.5 - 1e-9
    # returned weights must themselves evaluate to the reported bound
    again = spectral_bound(deutsch, gamma, 0.0)
    assert again.bound == pytest.approx(rep.bound, rel=1e-12)


def test_search_gamma_rejects_constant_map(const):
    with pytest.raises(ValueError):
        search_gamma(const, 0.0)


def test_block_schur_identity_detects_structure():
    rng = np.random.default_rng(31)
    s, n = 3, 2
    hits = 0
    for _ in range(20):
        blocks = [np.linalg.qr(rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)))[0]
                  for _ in range(s)]
        z = np.zeros((s * n, s * n), dtype=complex)
        for i, b in enumerate(blocks):
            z[i * n:(i + 1) * n, i * n:(i + 1) * n] = b
        m = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        m = 0.5 * (m + m.conj().T)
        x = rng.standard_normal((s * n, s * n)) + 1j * rng.standard_normal((s * n, s * n))
        x = 0.5 * (x + x.conj().T)
        assert check_block_schur_identity(z, m, x) <= 1e-10
        dense = np.linalg.qr(rng.standard_normal((s * n, s * n))
                             + 1j * rng.standard_normal((s * n, s * n)))[0]
        if check_block_schur_identity(dense, m, x) > 1e-3:
            hits += 1
    assert hits >= 19


def test_block_schur_identity_rejects_unsplittable_dims():
    with pytest.raises(ValueError):
        check_block_schur_identity(np.eye(5), np.eye(2), np.eye(5))
