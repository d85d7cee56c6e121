"""Turn a feasible existence-program point into an explicit protocol.

Two stages. First, factor each output share G_z = F_z F_z† of the final
Gram matrix, so that the final states are the rows of [F_z1 | F_z2 | ...]
and every coordinate has an owner, the output whose factor supplied it;
P_z is the diagonal projector on the coordinates z owns. Second, walk the
query chain forward from |0⟩: each unitary u_t is the polar aligner between
two purifications of the same reduced state (Uhlmann's theorem), the state
before step t and a purification of the chain's next block at its own
rank, so the workspace is the widest purification the point needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import align_purifications, hermitize, purify
from .problem import QueryProblem, _json_int, matrix_from_dict, matrix_to_dict
from .programs import build_primal, chain_program, share_maps
from .simulate import PROTOCOL_TOL, QuantumQueryAlgorithm, _query
from .solver import FeasibilityOutcome, SolverConfig, solve, verify_point

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

    Raises ReconstructionError if any residual exceeds _ALG_TOL or is not a
    number, as it is when an entry is NaN.
    """
    d = alg.dim
    eye = np.eye(d)
    norms: dict[str, list[float]] = {"unitarity": [], "projector": [], "orthogonality": [],
                                     "completeness": []}
    for t, u in enumerate(alg.unitaries):
        if u.shape != (d, d):
            raise ReconstructionError(f"unitary {t} has shape {u.shape}, expected ({d}, {d})")
        norms["unitarity"].append(float(np.linalg.norm(u.conj().T @ u - eye)))
    labels = list(alg.projectors)
    total = np.zeros((d, d), dtype=complex)
    for z in labels:
        pz = alg.projectors[z]
        if pz.shape != (d, d):
            raise ReconstructionError(f"projector {z!r} has shape {pz.shape}, expected ({d}, {d})")
        norms["projector"] += [float(np.linalg.norm(pz - pz.conj().T)),
                               float(np.linalg.norm(pz @ pz - pz))]
        total += pz
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            norms["orthogonality"].append(
                float(np.linalg.norm(alg.projectors[labels[a]] @ alg.projectors[labels[b]])))
    norms["completeness"].append(float(np.linalg.norm(total - eye)))
    # np.max keeps a NaN, where max(0.0, nan) would drop it
    res = {k: float(np.max(v, initial=0.0)) for k, v in norms.items()}
    bad = {k: v for k, v in res.items() if not v <= _ALG_TOL}
    if bad:
        raise ReconstructionError(f"algorithm fails structural checks: {bad}")
    return res


def extract_final_states(
    p: QueryProblem, shares: dict[str, np.ndarray], eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Final vectors and the output that owns each of their coordinates.

    Returns (vectors, owner): vectors is an (|S|, d) array whose row for
    input X is the final state, and owner[k] is the index in p.outputs of
    the share that supplied coordinate k. The final Gram matrix m is the
    sum of the shares. Each share is factored as G_z = F_z F_z† on its
    eigenvalues above 1e-8 of m's largest; vectors is [F_z1 | F_z2 | ...],
    so d is the total share rank, and the vectors' Gram matrix must match
    m. With P_z the diagonal projector on the coordinates z owns, P_z's
    cross-Gram matrix is G_z itself.
    """
    s = p.size
    shares = {z: hermitize(np.asarray(shares[z], dtype=complex)) for z in p.outputs}
    m = sum(shares.values())
    if m.shape != (s, s):
        raise ValueError(f"Gram matrix shape {m.shape} != ({s}, {s})")
    top = max(float(np.linalg.eigvalsh(m)[-1]), 0.0)
    cut = _RANK_REL_TOL * max(top, 1e-300)
    if top <= cut:
        raise ReconstructionError("final Gram matrix is numerically zero")
    factors = []
    for g in shares.values():
        wz, vz = np.linalg.eigh(g)
        keep = wz > cut
        factors.append(vz[:, keep] * np.sqrt(wz[keep]))
    vectors = np.hstack(factors)
    gram_gap = float(np.linalg.norm(vectors @ vectors.conj().T - m))
    if gram_gap > PROTOCOL_TOL * max(1.0, top):
        raise ReconstructionError(f"extracted vectors mismatch the Gram matrix by {gram_gap:.3e}")
    owner = np.concatenate([np.full(f.shape[1], k) for k, f in enumerate(factors)])
    for i, (lab, z) in enumerate(zip(p.labels, p.output_index)):
        succ = float(np.sum(np.abs(vectors[i, owner == z]) ** 2))
        if succ < 1.0 - eps - PROTOCOL_TOL:
            raise ReconstructionError(
                f"extracted state for {lab!r} succeeds with probability {succ:.9f}, "
                f"below the floor {1.0 - eps:.9f}"
            )
    return vectors, owner


def backward_chain(
    p: QueryProblem, q: int, chain: dict[str, np.ndarray], finals: tuple[np.ndarray, np.ndarray]
) -> QuantumQueryAlgorithm:
    """Assemble the protocol whose run reproduces a feasible query chain.

    chain holds the chain states before each query (rho_0 and state_iq_t
    at q >= 1); finals is (vectors, owner) from extract_final_states. Each
    state is purified once, as C with C C† its part above 1e-10 of its top
    eigenvalue, and the chain rows are checked on those C C† closed by the
    vectors' Gram matrix V V†, the matrices the walk aligns to. Every input
    starts in |0⟩, and the walk runs forward: u_t aligns the state before
    step t (|0⟩ at t = 0, the state after query t otherwise) to the next
    target, which is rho_0's C on every input at t = 0 < q, state_iq_t's C
    at 0 < t < q and the final vectors at t = q. The chain rows make both
    purifications of the same input-side matrix, so a workspace unitary
    aligns them; at t = 0 the overlap has rank 1 and its polar factor maps
    |0⟩ to the purification. w_dim is the widest C and ⌈d / n⌉, d the
    vectors' length, and the walk's final Gram matrix must match V V†. P_z
    is the diagonal projector on the coordinates z owns, and the padding
    coordinates belong to p.outputs[0].
    """
    s, n = p.size, p.n
    prog = chain_program(p, q)
    vectors, owner = finals
    coeffs = []
    for blk in prog.blocks[:q]:
        if blk.name not in chain:
            raise ReconstructionError(f"chain point is missing block {blk.name!r}")
        coeffs.append(purify(chain[blk.name]))
    point = {blk.name: c @ c.conj().T for blk, c in zip(prog.blocks, coeffs)}
    point["final_gram"] = final_gram = vectors @ vectors.conj().T
    # the chain rows on the purified states, at a looser tolerance
    for name, res in verify_point(prog, point).row_residuals.items():
        if not res <= PROTOCOL_TOL:
            raise ReconstructionError(
                f"purified chain violates row {name!r} by {res:.3e} (allowed {PROTOCOL_TOL:.3e})"
            )

    if q:
        coeffs[0] = np.tile(coeffs[0], (s, 1))
    w_dim = max([c.shape[1] for c in coeffs] + [-(-vectors.shape[1] // n)])
    dim_c = n * w_dim
    # each padded with zero columns to the workspace
    targets = [np.hstack((c, np.zeros((len(c), w_dim - c.shape[1])))) for c in coeffs]
    targets.append(np.hstack((vectors, np.zeros((s, dim_c - vectors.shape[1])))))
    owner_c = np.pad(owner, (0, dim_c - owner.size))

    # rows: the per-input states on (query, workspace)
    psi = np.zeros((s, dim_c), dtype=complex)
    psi[:, 0] = 1.0
    unitaries = []
    for t, target in enumerate(targets):
        before = _query(p.omega, psi, w_dim) if t else psi
        try:
            u_t = align_purifications(before.reshape(-1), target.reshape(-1), s, dim_c)
        except ValueError as exc:
            raise ReconstructionError(
                f"purification alignment failed at step {t}: {exc}; "
                "the chain point is likely not feasible enough"
            ) from exc
        unitaries.append(u_t)
        psi = before @ u_t.T

    projectors = {z: np.diag((owner_c == k).astype(complex)) for k, z in enumerate(p.outputs)}
    alg = QuantumQueryAlgorithm(n=n, w_dim=w_dim, unitaries=unitaries, projectors=projectors)
    validate_algorithm(alg)
    # the walk is the protocol's run, so psi holds its final states
    gap = float(np.linalg.norm(psi @ psi.conj().T - final_gram))
    if gap > PROTOCOL_TOL * max(1.0, float(np.linalg.norm(final_gram))):
        raise ReconstructionError(f"simulated final Gram matrix misses the chain's by {gap:.3e}")
    return alg


@dataclass
class ReconstructionResult:
    algorithm: QuantumQueryAlgorithm
    outcome: FeasibilityOutcome
    extracted_dim: int


def reconstruct_algorithm(
    p: QueryProblem, q: int, eps: float, config: SolverConfig | None = None
) -> ReconstructionResult:
    """End-to-end: solve the existence program and build a protocol from it.

    Each s x s share is its block read through `share_maps`, the map the
    last chain row applies: E_z H_z E_z† on the eps = 0 class face,
    c_z·J/s on the face of J at q = 0 and eps > 0, the block itself
    otherwise.
    """
    prog = build_primal(p, q, eps)
    out = solve(prog, config)
    if out.status != "FEASIBLE":
        raise ReconstructionError(
            f"existence program at q={q}, eps={eps} is {out.status}", status=out.status
        )
    shares = {z: m.apply(np.asarray(out.point[f"output_part_{z}"]))
              for z, m in share_maps(p, eps, q).items()}
    finals = extract_final_states(p, shares, eps)
    alg = backward_chain(p, q, out.point, finals)
    return ReconstructionResult(algorithm=alg, outcome=out, extracted_dim=finals[0].shape[1])


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
        n, w_dim = _json_int(data, "n"), _json_int(data, "w_dim")
        unitaries = [matrix_from_dict(e) for e in data["unitaries"]]
        projectors = {str(z): matrix_from_dict(e) for z, e in data["projectors"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed algorithm description: {exc}") from exc
    if not unitaries:
        raise ValueError("algorithm must contain at least one unitary")
    for name, m in [*((f"unitary {t}", u) for t, u in enumerate(unitaries)),
                    *((f"projector {z!r}", pz) for z, pz in projectors.items())]:
        if not np.isfinite(m).all():
            raise ValueError(f"{name} has non-finite entries")
    d = n * w_dim
    for t, u in enumerate(unitaries):
        if u.shape != (d, d):
            raise ValueError(f"unitary {t} has shape {u.shape}, expected ({d}, {d})")
    for z, pz in projectors.items():
        if pz.shape != (d, d):
            raise ValueError(f"projector {z!r} has shape {pz.shape}, expected ({d}, {d})")
    return QuantumQueryAlgorithm(n=n, w_dim=w_dim, unitaries=unitaries, projectors=projectors)
