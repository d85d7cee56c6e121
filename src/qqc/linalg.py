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
    "partial_trace",
    "purify",
    "align_purifications",
]


def hermitize(a: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (a + a†) / 2.

    Applies to the last two axes of a, so a stack gives the stack of results.
    """
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def partial_trace(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Trace out the fast tensor factor of a (d1*d2) x (d1*d2) matrix.

    dims = (d_slow, d_fast); the result is the matrix of per-block traces.
    Applies to the last two axes of m, so a stack gives the stack of results.
    """
    d1, d2 = dims
    if m.shape[-2:] != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    return np.einsum("...iaja->...ij", m.reshape(m.shape[:-2] + (d1, d2, d1, d2)))


def purify(rho: np.ndarray) -> np.ndarray:
    """Coefficient matrix C (system rows, env columns) with C C† = rho.

    C has one column V√w per eigenvalue above 1e-10 of the largest, so its
    width is the rank of rho, the least environment a purification needs.
    Padded with zero columns and read row-major, C purifies rho on (system, env).
    """
    w, v = np.linalg.eigh(hermitize(np.asarray(rho, dtype=complex)))
    keep = w > 1e-10 * max(float(w[-1]), 1e-300)
    return v[:, keep] * np.sqrt(w[keep])


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
    for v in (psi, target):
        if v.shape != (dim_a * dim_b,):
            raise ValueError(f"state shape {v.shape} does not match dims ({dim_a}, {dim_b})")
    # row x is the (unnormalized) B-side vector conditioned on A index x
    rows_p = psi.reshape(dim_a, dim_b)
    rows_t = target.reshape(dim_a, dim_b)
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

