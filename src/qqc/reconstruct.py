"""Turn a feasible existence-program point into an explicit protocol.

Three stages: split the final Gram matrix into per-output shares, realize
the shares as concrete state vectors plus a projective measurement, then
walk the query chain backwards, choosing each unitary as the aligner
between two purifications of the same reduced state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    align_purifications,
    complete_to_unitary,
    conditional_vectors,
    eig_hermitian,
    hermitize,
    naimark_extend,
    partial_trace,
    purify,
)
from .problem import QueryProblem, build_constants
from .programs import build_primal
from .solver import FeasibilityOutcome, SolverConfig, solve

__all__ = [
    "ReconstructionError",
    "QuantumQueryAlgorithm",
    "validate_algorithm",
    "output_shares",
    "extract_final_states",
    "backward_chain",
    "reconstruct_algorithm",
    "ReconstructionResult",
    "algorithm_to_dict",
    "algorithm_from_dict",
]

_RANK_REL_TOL = 1e-8
_RANK_WINDOW = 5.0
_ALIGN_TOL = 1e-4
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


@dataclass
class QuantumQueryAlgorithm:
    """Concrete protocol: unitaries on query x workspace plus a measurement.

    unitaries[t] acts between the t-th and (t+1)-th oracle application;
    projectors map each output label to a projector on the same space.
    """

    n: int
    w_dim: int
    unitaries: list[np.ndarray]
    projectors: dict[str, np.ndarray]

    @property
    def q(self) -> int:
        return len(self.unitaries) - 1

    @property
    def dim(self) -> int:
        return self.n * self.w_dim


def validate_algorithm(alg: QuantumQueryAlgorithm, tol: float = _ALG_TOL) -> dict[str, float]:
    """Check unitarity and measurement structure; returns the residuals.

    Raises ReconstructionError if any residual exceeds tol.
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
    bad = {k: v for k, v in res.items() if v > tol}
    if bad:
        raise ReconstructionError(f"algorithm fails structural checks: {bad}")
    return res


def output_shares(p: QueryProblem, point: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Pull the per-output share blocks out of a solver point."""
    return {z: np.asarray(point[f"output_part_{z}"]) for z in p.outputs}


def _checked_rank(name: str, eigs: np.ndarray, cut: float) -> int:
    near = [lam for lam in eigs if cut / _RANK_WINDOW <= lam < cut * _RANK_WINDOW]
    if near:
        raise ReconstructionError(
            f"ambiguous numerical rank for {name}: eigenvalue {near[0]:.3e} sits "
            f"within a factor {_RANK_WINDOW:g} of the cutoff {cut:.3e}"
        )
    return int(np.sum(eigs > cut))


def extract_final_states(
    p: QueryProblem,
    m: np.ndarray,
    shares: dict[str, np.ndarray],
    eps: float,
) -> tuple[np.ndarray, dict[str, np.ndarray], int]:
    """Vectors and a projective measurement realizing the output shares.

    Returns (vectors, projectors, d) where vectors is an (|S|, d) array whose
    row for input X is the final state, and the projectors act on dim d.
    The construction compresses everything to the support of m: there the
    shares conjugated by the inverse square root form a measurement that is
    dilated to projectors; the orthogonal complement of the support carries
    no state weight, so its projector completion is deferred to the embedding
    into the full computer space.
    """
    s = p.size
    m = hermitize(np.asarray(m, dtype=complex))
    if m.shape != (s, s):
        raise ValueError(f"Gram matrix shape {m.shape} != ({s}, {s})")
    w, v = eig_hermitian(m)
    top = max(float(w[0]), 0.0) if w.size else 0.0
    cut = _RANK_REL_TOL * max(top, 1e-300)
    r = _checked_rank("final Gram matrix", w, cut)
    if r == 0:
        raise ReconstructionError("final Gram matrix is numerically zero")
    basis = v[:, :r]
    lam = w[:r]
    # columns are the extracted vectors in support coordinates; the pairwise
    # overlaps carry the conjugation on the second index, matching how the
    # Gram matrix arises as an input-register reduction
    theta = np.sqrt(lam)[:, None] * basis.T
    inv_root = 1.0 / np.sqrt(lam)
    povm = []
    rank_sum = 0
    for z in p.outputs:
        gz = hermitize(np.asarray(shares[z], dtype=complex))
        wz, _ = eig_hermitian(gz)
        rank_sum += _checked_rank(f"output share {z!r}", wz, cut)
        rz = inv_root[:, None] * (basis.conj().T @ gz @ basis) * inv_root[None, :]
        povm.append(hermitize(rz.conj()))
    projectors, iso = naimark_extend(povm, rank_tol=_RANK_REL_TOL)
    d = iso.shape[0]
    if d > rank_sum:
        raise ReconstructionError(
            f"dilation dimension {d} exceeds the total share rank {rank_sum}"
        )
    vectors = (iso @ theta).T
    gram = vectors @ vectors.conj().T
    gram_gap = float(np.linalg.norm(gram - m))
    if gram_gap > 1e-6 * max(1.0, top):
        raise ReconstructionError(f"extracted vectors mismatch the Gram matrix by {gram_gap:.3e}")
    proj_map = {z: projectors[k] for k, z in enumerate(p.outputs)}
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

    chain holds the existence-program point blocks (state_iq_t, final_gram);
    finals is the triple from extract_final_states. Unitaries are chosen from
    the last query backwards: the state after query t and any purification of
    the propagated previous state are purifications of the same input-side
    matrix, so a workspace unitary aligns them.
    """
    s, n = p.size, p.n
    cleaned = {}
    for name in [f"state_iq_{t}" for t in range(q)] + ["final_gram"]:
        if name not in chain:
            raise ReconstructionError(f"chain point is missing block {name!r}")
        cleaned[name] = _psd_project(hermitize(np.asarray(chain[name], dtype=complex)))
    rhos = [cleaned[f"state_iq_{t}"] for t in range(q)]
    m_final = cleaned["final_gram"]

    # re-verify the existence program's chain rows (init, chain_t,
    # final_gram_def: its first q + 1, which read no other block and no eps)
    # on the cleaned blocks, at a looser tolerance
    c = build_constants(p)
    omega = c.omega
    prog = build_primal(p, q, 0.0, c)
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
    psi = padded.reshape(-1)

    unitaries: list[np.ndarray | None] = [None] * (q + 1)
    eye_w = np.eye(w_dim)
    for t in range(q, 0, -1):
        sigma = omega @ rhos[t - 1] @ omega.conj().T
        xi = purify(sigma, w_dim)
        try:
            u_t = align_purifications(xi, psi, s, dim_c, tol=_ALIGN_TOL)
        except ValueError as exc:
            raise ReconstructionError(
                f"purification alignment failed at step {t}: {exc}; "
                "the chain point is likely not feasible enough"
            ) from exc
        unitaries[t] = u_t
        psi = np.kron(omega.conj().T, eye_w) @ xi
        red = partial_trace(np.outer(psi, psi.conj()), (s * n, w_dim), "fast")
        back_gap = float(np.linalg.norm(red - rhos[t - 1]))
        if back_gap > 1e-6:
            raise ReconstructionError(
                f"propagated state at step {t} misses its reduction by {back_gap:.3e}"
            )

    rows0 = conditional_vectors(psi, s, dim_c)
    phi = rows0.mean(axis=0)
    spread = float(max(np.linalg.norm(rows0[i] - phi) for i in range(s)))
    if spread > _ALIGN_TOL:
        raise ReconstructionError(
            f"initial conditional states disagree by {spread:.3e}; "
            "the chain point is likely not feasible enough"
        )
    nrm = float(np.linalg.norm(phi))
    if nrm < 0.5:
        raise ReconstructionError(f"initial state collapsed to norm {nrm:.3e}")
    unitaries[0] = complete_to_unitary((phi / nrm)[:, None])

    proj_full = {}
    carrier = np.zeros((dim_c, dim_c), dtype=complex)
    for z in p.outputs:
        pz = np.zeros((dim_c, dim_c), dtype=complex)
        pz[:d_cap, :d_cap] = proj_map[z]
        proj_full[z] = pz
        carrier += pz
    # the measured subspace is completed on one fixed output label
    proj_full[p.outputs[0]] = proj_full[p.outputs[0]] + (np.eye(dim_c) - carrier)

    alg = QuantumQueryAlgorithm(n=n, w_dim=w_dim, unitaries=list(unitaries), projectors=proj_full)
    validate_algorithm(alg)

    from .simulate import run  # deferred to keep module loading one-way

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
    shares = output_shares(p, out.point)
    finals = extract_final_states(p, out.point["final_gram"], shares, eps)
    alg = backward_chain(p, q, out.point, finals)
    return ReconstructionResult(algorithm=alg, outcome=out, extracted_dim=finals[2])


def algorithm_to_dict(alg: QuantumQueryAlgorithm) -> dict:
    return {
        "n": alg.n,
        "w_dim": alg.w_dim,
        "unitaries": [{"re": u.real.tolist(), "im": u.imag.tolist()} for u in alg.unitaries],
        "projectors": {
            z: {"re": pz.real.tolist(), "im": pz.imag.tolist()}
            for z, pz in alg.projectors.items()
        },
    }


def algorithm_from_dict(data: dict) -> QuantumQueryAlgorithm:
    """Parse the JSON protocol format; raises ValueError on malformed input."""
    try:
        n = int(data["n"])
        w_dim = int(data["w_dim"])
        unitaries = []
        for e in data["unitaries"]:
            re = np.asarray(e["re"], dtype=float)
            im = np.asarray(e.get("im", np.zeros_like(re)), dtype=float)
            unitaries.append(re + 1j * im)
        projectors = {}
        for z, e in data["projectors"].items():
            re = np.asarray(e["re"], dtype=float)
            im = np.asarray(e.get("im", np.zeros_like(re)), dtype=float)
            projectors[str(z)] = re + 1j * im
    except (KeyError, TypeError, ValueError) as exc:
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
