"""Dense complex linear algebra helpers with a fixed tensor convention.

Every tensor pair (slow, fast) is ordered with the right factor fast-running:
the composite index of (i, k) is i * d_fast + k. Kronecker products, partial
traces, purifications, and block layouts throughout the package follow this
convention.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hermitize",
    "schur",
    "partial_trace",
    "eig_hermitian",
    "purify",
    "conditional_vectors",
    "align_purifications",
    "naimark_extend",
    "complete_to_unitary",
]


def hermitize(a: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (a + a†) / 2."""
    return 0.5 * (a + a.conj().T)


def schur(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product; shapes must match exactly."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch for entrywise product: {a.shape} vs {b.shape}")
    return a * b


def partial_trace(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Trace out the fast tensor factor of a (d1*d2) x (d1*d2) matrix.

    dims = (d_slow, d_fast); the result is the matrix of per-block traces.
    """
    d1, d2 = dims
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    return np.einsum("iaja->ij", m.reshape(d1, d2, d1, d2))


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, k])))
        piv = out[i, k]
        if abs(piv) > 0:
            out[:, k] *= piv.conj() / abs(piv)
    return out


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors.

    The input is symmetrized first; eigenvector phases are fixed
    deterministically.
    """
    h = hermitize(np.asarray(m, dtype=complex))
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numerical pathology
        raise RuntimeError(f"eigendecomposition failed to converge: {exc}") from exc
    order = np.argsort(w)[::-1]
    return w[order], _phase_fix(v[:, order])


def purify(rho: np.ndarray, env_dim: int) -> np.ndarray:
    """State vector on (system, env) whose env partial trace equals rho.

    Eigenvalues below 1e-10 of the largest count as zero.
    """
    w, v = eig_hermitian(rho)
    top = max(float(w[0]), 0.0) if w.size else 0.0
    keep = np.nonzero(w > 1e-10 * max(top, 1e-300))[0]
    if len(keep) > env_dim:
        raise ValueError(f"environment dimension {env_dim} below rank {len(keep)}")
    d = rho.shape[0]
    psi = np.zeros(d * env_dim, dtype=complex)
    for slot, k in enumerate(keep):
        psi += np.sqrt(w[k]) * np.kron(v[:, k], _basis(env_dim, slot))
    return psi


def _basis(d: int, i: int) -> np.ndarray:
    e = np.zeros(d, dtype=complex)
    e[i] = 1.0
    return e


def conditional_vectors(psi: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Rows are the (unnormalized) B-side vectors conditioned on each A index."""
    if psi.shape != (dim_a * dim_b,):
        raise ValueError(f"state shape {psi.shape} does not match dims ({dim_a}, {dim_b})")
    return psi.reshape(dim_a, dim_b)


def align_purifications(
    psi: np.ndarray, target: np.ndarray, dim_a: int, dim_b: int
) -> np.ndarray:
    """Unitary u on the B factor with (I_A x u) psi == target.

    Both arguments are purifications over the same A|B split and must have
    matching reduced states on A (their B-conditioned Gram matrices agree
    within 1e-4, relative to the larger norm); the connecting unitary is built
    from the polar factor of the overlap matrix, so it is the best aligner
    even when the Grams agree only approximately.
    """
    tol = 1e-4
    rows_p = conditional_vectors(psi, dim_a, dim_b)
    rows_t = conditional_vectors(target, dim_a, dim_b)
    g_p = rows_p @ rows_p.conj().T
    g_t = rows_t @ rows_t.conj().T
    scale = max(np.linalg.norm(g_p), np.linalg.norm(g_t), 1.0)
    gap = np.linalg.norm(g_p - g_t)
    if gap > tol * scale:
        raise ValueError(
            f"reduced states on A disagree: |G_psi - G_target| = {gap:.3e} "
            f"exceeds {tol:.1e} * {scale:.3e}"
        )
    overlap = rows_t.T @ rows_p.conj()  # sum_x |target_x><psi_x| on B
    u_l, _, v_h = np.linalg.svd(overlap)
    return u_l @ v_h


def naimark_extend(povm: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Dilate a POVM on C^d to orthogonal projectors on C^D.

    Returns (projectors, isometry v) with D = sum of element ranks, the
    projectors mutually orthogonal and summing to the identity, and
    v† P_z v == povm[z] for every z. v has shape (D, d). The elements must
    be PSD and sum to the identity within 1e-8, and an element's rank counts
    its eigenvalues above 1e-8.
    """
    tol = 1e-8
    povm = [np.asarray(r, dtype=complex) for r in povm]
    d = povm[0].shape[0]
    total = sum(povm)
    if np.linalg.norm(total - np.eye(d)) > tol * d:
        raise ValueError("POVM elements do not sum to the identity within tolerance")
    factors = []
    for r in povm:
        if r.shape != (d, d):
            raise ValueError("POVM elements must share one square shape")
        w, v = eig_hermitian(r)
        if w.size and float(w[-1]) < -tol:
            raise ValueError(f"POVM element not PSD within tolerance: {w[-1]:.3e}")
        keep = w > tol
        factors.append(v[:, keep] * np.sqrt(np.clip(w[keep], 0.0, None)))
    ranks = [f.shape[1] for f in factors]
    big = int(sum(ranks))
    iso = np.vstack([f.conj().T for f in factors]) if big else np.zeros((0, d), dtype=complex)
    projectors = []
    off = 0
    for r_z in ranks:
        p = np.zeros((big, big), dtype=complex)
        p[off : off + r_z, off : off + r_z] = np.eye(r_z)
        projectors.append(p)
        off += r_z
    return projectors, iso


def complete_to_unitary(cols: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary, deterministically.

    Sweeps the standard basis in order, keeping each vector whose residual
    after projecting out the current span is larger than 1e-8.
    """
    d, k = cols.shape
    gram = cols.conj().T @ cols
    if np.linalg.norm(gram - np.eye(k)) > 1e-7 * max(1, k):
        raise ValueError("input columns are not orthonormal")
    basis = [cols[:, i] for i in range(k)]
    for i in range(d):
        if len(basis) == d:
            break
        cand = _basis(d, i)
        for b in basis:
            cand = cand - b * (b.conj() @ cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            basis.append(cand / norm)
    if len(basis) != d:
        raise ValueError("could not complete the basis")
    return np.stack(basis, axis=1)
