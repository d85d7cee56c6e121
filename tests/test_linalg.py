import numpy as np
import pytest

from qqc.linalg import (
    align_purifications,
    hermitize,
    partial_trace,
    purify,
)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def random_density(rng, d, rank):
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_hermitize_projects_and_is_idempotent():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = hermitize(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(hermitize(h), h)


def test_hermitize_acts_on_stacks():
    # a (2, 3) stack of 4x4 matrices gives the stack of the six results, bit for bit
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    h = hermitize(a)
    assert h.shape == a.shape
    for i in range(2):
        for j in range(3):
            assert np.array_equal(h[i, j], hermitize(a[i, j]))


def test_kron_right_factor_fast():
    # composite index (i, k) -> i * d_fast + k
    a = np.arange(4.0).reshape(2, 2)
    b = np.arange(9.0).reshape(3, 3) + 5.0
    m = np.kron(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(3):
                    assert m[i * 3 + k, j * 3 + l] == a[i, j] * b[k, l]


@pytest.mark.parametrize("da,db", [(2, 3), (3, 2), (4, 2)])
def test_partial_trace_on_product_states(da, db):
    rng = np.random.default_rng(da * 10 + db)
    a = random_hermitian(rng, da)
    b = random_hermitian(rng, db)
    m = np.kron(a, b)
    assert np.allclose(partial_trace(m, (da, db)), a * np.trace(b))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 6)
    assert np.isclose(np.trace(partial_trace(m, (2, 3))), np.trace(m))


def test_partial_trace_rejects_bad_arguments():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 2))


def _padded(coeffs, env_dim):
    # the purification on (system, env) of a coefficient matrix padded with
    # zero columns to env_dim
    return np.pad(coeffs, ((0, 0), (0, env_dim - coeffs.shape[1]))).reshape(-1)


def test_purify_partial_trace_round_trip():
    rng = np.random.default_rng(31)
    for rank in (1, 2, 4):
        rho = random_density(rng, 4, rank)
        coeffs = purify(rho)
        # one column per kept eigenvalue: the environment is the rank
        assert coeffs.shape == (4, rank)
        assert np.allclose(coeffs @ coeffs.conj().T, rho, atol=1e-10)
        psi = _padded(coeffs, 4)
        back = partial_trace(np.outer(psi, psi.conj()), (4, 4))
        assert np.allclose(back, rho, atol=1e-10)


def test_align_purifications_rejects_wrong_length():
    # either state must have length dim_a * dim_b before it is cut into rows
    rng = np.random.default_rng(41)
    psi = _padded(purify(random_density(rng, 3, 2)), 4)
    with pytest.raises(ValueError, match="does not match dims"):
        align_purifications(psi, psi, 4, 4)
    with pytest.raises(ValueError, match="does not match dims"):
        align_purifications(psi, psi[:-1], 3, 4)
    u = align_purifications(psi, psi, 3, 4)
    assert np.allclose(np.kron(np.eye(3), u) @ psi, psi)


def test_align_purifications_connects_two_purifications():
    rng = np.random.default_rng(51)
    for _ in range(10):
        rho = random_density(rng, 3, 2)
        psi = _padded(purify(rho), 3)
        spin = random_unitary(rng, 3)
        target = np.kron(np.eye(3), spin) @ psi
        u = align_purifications(psi, target, 3, 3)
        moved = np.kron(np.eye(3), u) @ psi
        assert np.linalg.norm(moved - target) < 1e-8
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-10)


def test_align_purifications_rejects_mismatched_reductions():
    rng = np.random.default_rng(52)
    psi = _padded(purify(random_density(rng, 3, 2)), 3)
    phi = _padded(purify(random_density(rng, 3, 2)), 3)
    with pytest.raises(ValueError):
        align_purifications(psi, phi, 3, 3)


def test_align_purifications_rank_one_overlap_maps_zero_to_target():
    # every input starts in |0>: the overlap with a purification tiled over
    # the inputs has rank 1, and its polar factor takes |0> to it
    rng = np.random.default_rng(61)
    for rank in (1, 2, 3):
        phi = _padded(purify(random_density(rng, 3, rank)), 4)
        zero = np.zeros(12, dtype=complex)
        zero[0] = 1.0
        u = align_purifications(np.tile(zero, 5), np.tile(phi, 5), 5, 12)
        assert np.linalg.norm(u[:, 0] - phi) < 1e-12
        assert np.allclose(u.conj().T @ u, np.eye(12), atol=1e-12)
