"""Execute explicit protocols and expose their exact statistics.

Runs are dense statevector evolutions, one per black-box input; nothing is
sampled. The existence-program point of a protocol is read from one run:
stacking the per-input states gives the extended-register view (input
register kept coherent), which `extended_state` also evolves directly, as
an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace
from .problem import QueryProblem, build_constants, build_omega
from .reconstruct import QuantumQueryAlgorithm

__all__ = [
    "SimulationTrace",
    "SuccessReport",
    "run",
    "success_report",
    "extended_state",
    "trace_to_primal_point",
    "trace_to_dict",
]


@dataclass
class SimulationTrace:
    """Per-input states after every step, Gram matrices, and output statistics.

    states[label][t] is the state right after unitary t. grams[t][i, j] is
    the overlap of the states for labels i and j with the conjugation on the
    j side; this index order makes grams[t] equal the input-register
    reduction of the coherent extended state, entry for entry.
    """

    labels: tuple[str, ...]
    states: dict[str, np.ndarray]
    grams: np.ndarray
    probabilities: dict[str, dict[str, float]]

    @property
    def q(self) -> int:
        return self.grams.shape[0] - 1


@dataclass
class SuccessReport:
    per_input: dict[str, float]
    min_success: float
    worst_label: str
    eps: float
    passed: bool


def run(alg: QuantumQueryAlgorithm, p: QueryProblem) -> SimulationTrace:
    """Alternate the protocol unitaries with each oracle, from the zero state."""
    if alg.n != p.n:
        raise ValueError(f"algorithm register dimension {alg.n} != problem dimension {p.n}")
    d = alg.dim
    q = alg.q
    eye_w = np.eye(alg.w_dim)
    start = np.zeros(d, dtype=complex)
    start[0] = 1.0
    states: dict[str, np.ndarray] = {}
    for i, lab in enumerate(p.labels):
        oracle = np.kron(p.unitaries[i], eye_w)
        hist = np.zeros((q + 1, d), dtype=complex)
        phi = alg.unitaries[0] @ start
        hist[0] = phi
        for t in range(1, q + 1):
            phi = alg.unitaries[t] @ (oracle @ phi)
            hist[t] = phi
        states[lab] = hist
    s = p.size
    grams = np.zeros((q + 1, s, s), dtype=complex)
    for t in range(q + 1):
        stack = np.stack([states[lab][t] for lab in p.labels])
        grams[t] = stack @ stack.conj().T
    probabilities = {}
    for lab in p.labels:
        phi = states[lab][q]
        probabilities[lab] = {
            z: float(np.real(np.vdot(phi, alg.projectors[z] @ phi))) for z in p.outputs
        }
    return SimulationTrace(
        labels=tuple(p.labels), states=states, grams=grams, probabilities=probabilities
    )


def success_report(trace: SimulationTrace, p: QueryProblem, eps: float) -> SuccessReport:
    """Per-input probability of the correct output, with the worst case flagged."""
    per_input = {lab: trace.probabilities[lab][p.g[lab]] for lab in p.labels}
    worst_label = min(per_input, key=per_input.get)
    min_success = per_input[worst_label]
    return SuccessReport(
        per_input=per_input,
        min_success=min_success,
        worst_label=worst_label,
        eps=eps,
        passed=bool(min_success >= 1.0 - eps - 1e-6),
    )


def extended_state(
    p: QueryProblem, alg: QuantumQueryAlgorithm, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State with the input register kept coherent, plus its two reductions.

    Evolves sum_X |X>|0>|0> by the interleaved full-register operators and
    returns (state, joint matrix on input x query, Gram matrix on input).
    The state is unnormalized: its squared norm is the number of inputs.
    """
    if alg.n != p.n:
        raise ValueError(f"algorithm register dimension {alg.n} != problem dimension {p.n}")
    if not 0 <= t <= alg.q:
        raise ValueError(f"step {t} outside 0..{alg.q}")
    s, n, w = p.size, p.n, alg.w_dim
    eye_s = np.eye(s)
    oracle_ext = np.kron(build_omega(p), np.eye(w))
    start = np.zeros(s * n * w, dtype=complex)
    for x in range(s):
        start[x * n * w] = 1.0
    psi = np.kron(eye_s, alg.unitaries[0]) @ start
    for step in range(1, t + 1):
        psi = np.kron(eye_s, alg.unitaries[step]) @ (oracle_ext @ psi)
    dens = np.outer(psi, psi.conj())
    rho_iq = partial_trace(dens, (s * n, w), "fast")
    rho_i = partial_trace(rho_iq, (s, n), "fast")
    return psi, rho_iq, rho_i


def trace_to_primal_point(
    p: QueryProblem, alg: QuantumQueryAlgorithm, eps: float
) -> dict[str, np.ndarray]:
    """Blocks of the existence program induced by running the protocol.

    The joint states fill the chain blocks, the final Gram matrix and the
    measurement cross-Grams fill the output blocks, all read from one run;
    the returned point is feasible exactly when the protocol meets the
    success floor.
    """
    q = alg.q
    trace = run(alg, p)
    states = np.stack([trace.states[lab] for lab in p.labels], axis=1)
    point: dict[str, np.ndarray] = {}
    for t in range(q):
        # rows (input, query), workspace columns: the extended state's layout
        phi = states[t].reshape(-1, alg.w_dim)
        point[f"state_iq_{t}"] = phi @ phi.conj().T
    point["final_gram"] = trace.grams[q]
    finals = states[q]
    deltas = build_constants(p).deltas
    for z in p.outputs:
        # conjugation on the second index, as in the trace's Gram matrices
        share = finals @ alg.projectors[z].conj() @ finals.conj().T
        point[f"output_part_{z}"] = share
        point[f"output_slack_{z}"] = deltas[z] * share - (1.0 - eps) * deltas[z]
    return point


def trace_to_dict(trace: SimulationTrace) -> dict:
    return {
        "q": trace.q,
        "labels": list(trace.labels),
        "grams": [
            {"re": trace.grams[t].real.tolist(), "im": trace.grams[t].imag.tolist()}
            for t in range(trace.q + 1)
        ],
        "probabilities": {lab: dict(probs) for lab, probs in trace.probabilities.items()},
    }
