"""Turn a feasible existence-program point into an explicit protocol.

Three stages: split the final Gram matrix into per-output shares, factor
each share G_z = F_z F_z† so that the final states are the rows of
[F_z1 | F_z2 | ...] and P_z is the identity on the coordinates of F_z, then
walk the query chain forward from the shared start state rho_0, choosing
each later unitary as the aligner between two purifications of the same
reduced state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    align_purifications,
    complete_to_unitary,
    eig_hermitian,
    hermitize,
    purify,
)
from .problem import QueryProblem, build_omega, matrix_from_dict, matrix_to_dict
from .programs import build_primal
from .simulate import QuantumQueryAlgorithm, _query, run
from .solver import FeasibilityOutcome, SolverConfig, solve

__all__ = [
    "ReconstructionError",
    "validate_algorithm",
    "extract_final_states",
    "backward_chain",
    "reconstruct_algorithm",
    "ReconstructionResult",
    "algorithm_to_dict",
    "algorithm_from_dict",
]

_RANK_REL_TOL = 1e-8
_ALG_TOL = 1e-8
# Allowed row miss of the PSD-cleaned chain blocks; FEASIBLE points meet
# their rows to 1e-10 before cleaning.
_CHAIN_TOL = 1e-6


class ReconstructionError(RuntimeError):
    """Raised when a pipeline stage cannot meet its contract.

    Carries the solver status (when one exists) so callers can distinguish
    an infeasible instance from a numerical failure.
    """

    def __init__(self, message: str, status: str | None = None):
        super().__init__(message)
        self.status = status


def validate_algorithm(alg: QuantumQueryAlgorithm) -> dict[str, float]:
    """Check unitarity and measurement structure; returns the residuals.

    Raises ReconstructionError if any residual exceeds _ALG_TOL.
    """
    d = alg.dim
    eye = np.eye(d)
    res = {"unitarity": 0.0, "projector": 0.0, "orthogonality": 0.0, "completeness": 0.0}
    for t, u in enumerate(alg.unitaries):
        if u.shape != (d, d):
            raise ReconstructionError(f"unitary {t} has shape {u.shape}, expected ({d}, {d})")
        res["unitarity"] = max(res["unitarity"], float(np.linalg.norm(u.conj().T @ u - eye)))
    labels = list(alg.projectors)
    total = np.zeros((d, d), dtype=complex)
    for z in labels:
        pz = alg.projectors[z]
        if pz.shape != (d, d):
            raise ReconstructionError(f"projector {z!r} has shape {pz.shape}, expected ({d}, {d})")
        res["projector"] = max(
            res["projector"],
            float(np.linalg.norm(pz - pz.conj().T)),
            float(np.linalg.norm(pz @ pz - pz)),
        )
        total += pz
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            res["orthogonality"] = max(
                res["orthogonality"],
                float(np.linalg.norm(alg.projectors[labels[a]] @ alg.projectors[labels[b]])),
            )
    res["completeness"] = float(np.linalg.norm(total - eye))
    bad = {k: v for k, v in res.items() if v > _ALG_TOL}
    if bad:
        raise ReconstructionError(f"algorithm fails structural checks: {bad}")
    return res


def extract_final_states(
    p: QueryProblem,
    m: np.ndarray,
    shares: dict[str, np.ndarray],
    eps: float,
) -> tuple[np.ndarray, dict[str, np.ndarray], int]:
    """Vectors and a projective measurement realizing the output shares.

    Returns (vectors, projectors, d) where vectors is an (|S|, d) array whose
    row for input X is the final state, and the projectors act on dim d.
    Each share is factored as G_z = F_z F_z† at its rank; vectors is
    [F_z1 | F_z2 | ...], and P_z is the identity on the coordinates of F_z.
    The vectors' Gram matrix is then the sum of the shares, which the
    program sets equal to m, P_z's cross-Gram matrix is G_z itself, and d
    is the total share rank.
    """
    s = p.size
    m = hermitize(np.asarray(m, dtype=complex))
    if m.shape != (s, s):
        raise ValueError(f"Gram matrix shape {m.shape} != ({s}, {s})")
    w, _ = eig_hermitian(m)
    top = max(float(w[0]), 0.0) if w.size else 0.0
    cut = _RANK_REL_TOL * max(top, 1e-300)
    if top <= cut:
        raise ReconstructionError("final Gram matrix is numerically zero")
    factors = []
    for z in p.outputs:
        wz, vz = eig_hermitian(shares[z])
        rz = int(np.sum(wz > cut))
        factors.append(vz[:, :rz] * np.sqrt(wz[:rz]))
    vectors = np.hstack(factors)
    d = vectors.shape[1]
    gram_gap = float(np.linalg.norm(vectors @ vectors.conj().T - m))
    if gram_gap > 1e-6 * max(1.0, top):
        raise ReconstructionError(f"extracted vectors mismatch the Gram matrix by {gram_gap:.3e}")
    # coordinate k belongs to the share whose factor supplied column k
    owner = np.concatenate([np.full(f.shape[1], k) for k, f in enumerate(factors)])
    proj_map = {z: np.diag((owner == k).astype(complex)) for k, z in enumerate(p.outputs)}
    for i, lab in enumerate(p.labels):
        pz = proj_map[p.g[lab]]
        succ = float(np.real(np.vdot(vectors[i], pz @ vectors[i])))
        if succ < 1.0 - eps - 1e-6:
            raise ReconstructionError(
                f"extracted state for {lab!r} succeeds with probability {succ:.9f}, "
                f"below the floor {1.0 - eps:.9f}"
            )
    return vectors, proj_map, d


def _psd_project(h: np.ndarray) -> np.ndarray:
    w, v = eig_hermitian(h)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def backward_chain(
    p: QueryProblem,
    q: int,
    chain: dict[str, np.ndarray],
    finals: tuple[np.ndarray, dict[str, np.ndarray], int],
) -> QuantumQueryAlgorithm:
    """Assemble the protocol whose run reproduces a feasible query chain.

    chain holds the existence-program point blocks (rho_0 and state_iq_t at
    q >= 1, final_gram); finals is the triple from extract_final_states. The
    walk runs forward from the start state every input shares: u_0 prepares
    a purification of rho_0 (at q = 0, the common final vector), and each
    later u_t aligns the state after query t to a purification of
    state_iq_t, or at t = q to the final vectors. The chain rows make both
    purifications of the same input-side matrix, so a workspace unitary
    aligns them.
    """
    s, n = p.size, p.n
    # the existence program's chain blocks and rows are its first q + 1: they
    # read no other block and no eps
    prog = build_primal(p, q, 0.0)
    cleaned = {}
    for blk in prog.blocks[: q + 1]:
        if blk.name not in chain:
            raise ReconstructionError(f"chain point is missing block {blk.name!r}")
        cleaned[blk.name] = _psd_project(hermitize(np.asarray(chain[blk.name], dtype=complex)))
    m_final = cleaned["final_gram"]

    # re-verify the chain rows on the cleaned blocks, at a looser tolerance
    omega = build_omega(p)
    for row in prog.rows[: q + 1]:
        res = float(np.linalg.norm(prog.row_value(row, cleaned) - row.rhs))
        if res > _CHAIN_TOL:
            raise ReconstructionError(
                f"cleaned chain violates row {row.name!r} by {res:.3e} (allowed {_CHAIN_TOL:.3e})"
            )

    vectors, proj_map, d_cap = finals
    w_dim = max(s * n, -(-d_cap // n))
    dim_c = n * w_dim
    padded = np.zeros((s, dim_c), dtype=complex)
    padded[:, : vectors.shape[1]] = vectors

    phi = purify(cleaned["rho_0"], w_dim) if q else padded[0]
    unitaries = [complete_to_unitary(phi / np.linalg.norm(phi))]
    # rows: the per-input states on (query, workspace)
    psi = np.tile(unitaries[0][:, 0], (s, 1))
    for t in range(1, q + 1):
        queried = _query(omega, psi, w_dim)
        target = purify(cleaned[f"state_iq_{t}"], w_dim) if t < q else padded.reshape(-1)
        try:
            u_t = align_purifications(queried.reshape(-1), target, s, dim_c)
        except ValueError as exc:
            raise ReconstructionError(
                f"purification alignment failed at step {t}: {exc}; "
                "the chain point is likely not feasible enough"
            ) from exc
        unitaries.append(u_t)
        psi = queried @ u_t.T

    proj_full = {}
    carrier = np.zeros((dim_c, dim_c), dtype=complex)
    for z in p.outputs:
        pz = np.zeros((dim_c, dim_c), dtype=complex)
        pz[:d_cap, :d_cap] = proj_map[z]
        proj_full[z] = pz
        carrier += pz
    # the measured subspace is completed on one fixed output label
    proj_full[p.outputs[0]] = proj_full[p.outputs[0]] + (np.eye(dim_c) - carrier)

    alg = QuantumQueryAlgorithm(n=n, w_dim=w_dim, unitaries=unitaries, projectors=proj_full)
    validate_algorithm(alg)
    final_gram = run(alg, p).grams[-1]
    gram_gap = float(np.linalg.norm(final_gram - m_final))
    if gram_gap > 1e-6 * max(1.0, float(np.linalg.norm(m_final))):
        raise ReconstructionError(
            f"simulated final Gram matrix misses the chain's by {gram_gap:.3e}"
        )
    return alg


@dataclass
class ReconstructionResult:
    algorithm: QuantumQueryAlgorithm
    outcome: FeasibilityOutcome
    extracted_dim: int


def reconstruct_algorithm(
    p: QueryProblem, q: int, eps: float, config: SolverConfig | None = None
) -> ReconstructionResult:
    """End-to-end: solve the existence program and build a protocol from it."""
    out = solve(build_primal(p, q, eps), config)
    if out.status != "FEASIBLE":
        raise ReconstructionError(
            f"existence program at q={q}, eps={eps} is {out.status}", status=out.status
        )
    shares = {z: np.asarray(out.point[f"output_part_{z}"]) for z in p.outputs}
    finals = extract_final_states(p, out.point["final_gram"], shares, eps)
    alg = backward_chain(p, q, out.point, finals)
    return ReconstructionResult(algorithm=alg, outcome=out, extracted_dim=finals[2])


def algorithm_to_dict(alg: QuantumQueryAlgorithm) -> dict:
    return {
        "n": alg.n,
        "w_dim": alg.w_dim,
        "unitaries": [matrix_to_dict(u) for u in alg.unitaries],
        "projectors": {z: matrix_to_dict(pz) for z, pz in alg.projectors.items()},
    }


def algorithm_from_dict(data: dict) -> QuantumQueryAlgorithm:
    """Parse the JSON protocol format; raises ValueError on malformed input."""
    try:
        n = int(data["n"])
        w_dim = int(data["w_dim"])
        unitaries = [matrix_from_dict(e) for e in data["unitaries"]]
        projectors = {str(z): matrix_from_dict(e) for z, e in data["projectors"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed algorithm description: {exc}") from exc
    if not unitaries:
        raise ValueError("algorithm must contain at least one unitary")
    d = n * w_dim
    for t, u in enumerate(unitaries):
        if u.shape != (d, d):
            raise ValueError(f"unitary {t} has shape {u.shape}, expected ({d}, {d})")
    for z, pz in projectors.items():
        if pz.shape != (d, d):
            raise ValueError(f"projector {z!r} has shape {pz.shape}, expected ({d}, {d})")
    return QuantumQueryAlgorithm(n=n, w_dim=w_dim, unitaries=unitaries, projectors=projectors)
