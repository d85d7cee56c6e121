"""Explicit protocols: their description, their runs and exact statistics.

A run is one dense evolution of the (s, n·w) stack of per-input states,
one row per black-box input, through the block-diagonal oracle Omega;
nothing is sampled. The existence-program point of a protocol is read from
one run: the stack is the extended-register view (input register kept
coherent), which `extended_state` also evolves directly, as an independent
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace
from .problem import QueryProblem, matrix_to_dict
from .programs import share_maps

__all__ = [
    "QuantumQueryAlgorithm",
    "SimulationTrace",
    "SuccessReport",
    "run",
    "success_report",
    "extended_state",
    "trace_to_primal_point",
    "trace_to_dict",
]

# How far a protocol may miss its success floor, or a reconstructed one its chain's
# rows and final Gram matrix: FEASIBLE points meet their rows to 1e-10 before cleaning.
PROTOCOL_TOL = 1e-6


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


@dataclass
class SimulationTrace:
    """Per-input states after every step, Gram matrices, and output statistics.

    states[t, i] is the state of input i (labels[i]) right after unitary t,
    so states has shape (q + 1, s, n·w). grams[t][i, j] is the overlap of
    the states for labels i and j with the conjugation on the j side; this
    index order makes grams[t] equal the input-register reduction of the
    coherent extended state, entry for entry.
    """

    labels: tuple[str, ...]
    states: np.ndarray
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
    passed: bool


def _query(omega: np.ndarray, psi: np.ndarray, w_dim: int) -> np.ndarray:
    """One oracle call on the (s, n·w) stack of per-input states."""
    return (omega @ psi.reshape(-1, w_dim)).reshape(psi.shape)


def run(alg: QuantumQueryAlgorithm, p: QueryProblem) -> SimulationTrace:
    """Alternate the protocol unitaries with the oracle, from the zero state."""
    if alg.n != p.n:
        raise ValueError(f"algorithm register dimension {alg.n} != problem dimension {p.n}")
    unmeasured = [z for z in p.outputs if z not in alg.projectors]
    if unmeasured:
        raise ValueError(f"algorithm has no projector for outputs {unmeasured}")
    omega = p.omega
    q = alg.q
    states = np.empty((q + 1, p.size, alg.dim), dtype=complex)
    # u_0 applied to the zero state is its first column
    states[0] = alg.unitaries[0][:, 0]
    for t in range(1, q + 1):
        states[t] = _query(omega, states[t - 1], alg.w_dim) @ alg.unitaries[t].T
    grams = states @ states.conj().transpose(0, 2, 1)
    finals = states[q]
    # <phi_i|P_z|phi_i> for every input i at once
    hits = {
        z: np.sum(finals.conj() * (finals @ alg.projectors[z].T), axis=1).real for z in p.outputs
    }
    probabilities = {
        lab: {z: float(hits[z][i]) for z in p.outputs} for i, lab in enumerate(p.labels)
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
        passed=bool(min_success >= 1.0 - eps - PROTOCOL_TOL),
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
    oracle_ext = np.kron(p.omega, np.eye(w))
    start = np.zeros(s * n * w, dtype=complex)
    for x in range(s):
        start[x * n * w] = 1.0
    psi = np.kron(eye_s, alg.unitaries[0]) @ start
    for step in range(1, t + 1):
        psi = np.kron(eye_s, alg.unitaries[step]) @ (oracle_ext @ psi)
    dens = np.outer(psi, psi.conj())
    rho_iq = partial_trace(dens, (s * n, w))
    rho_i = partial_trace(rho_iq, (s, n))
    return psi, rho_iq, rho_i


def trace_to_primal_point(
    p: QueryProblem, alg: QuantumQueryAlgorithm, eps: float
) -> dict[str, np.ndarray]:
    """Blocks of the existence program induced by running the protocol.

    The start state, which all inputs share, fills rho_0; the joint states
    fill the later chain blocks, and the final states' measurement
    cross-Grams fill the output shares, all read from one run, each through
    the adjoint of its `share_maps` map onto the program's face: at eps = 0
    the share restricted to its class's rows and columns, and at q = 0 and
    eps > 0 the 1x1 [[c_z]] of the share c_z·J/s. At eps > 0 each input's
    1x1 success slack is its share entry minus 1 - eps, so the returned
    point is feasible exactly when the protocol meets the success floor; at
    eps = 0 the program has no success slack. The point holds exactly
    `build_primal`'s blocks.
    """
    return _primal_point(run(alg, p), p, alg, eps)


def _primal_point(
    trace: SimulationTrace, p: QueryProblem, alg: QuantumQueryAlgorithm, eps: float
) -> dict[str, np.ndarray]:
    """`trace_to_primal_point` read from a run of alg on p already made."""
    q = alg.q
    states = trace.states
    point: dict[str, np.ndarray] = {}
    if q:
        phi = states[0, 0].reshape(alg.n, alg.w_dim)
        point["rho_0"] = phi @ phi.conj().T
    for t in range(1, q):
        # rows (input, query), workspace columns: the extended state's layout
        phi = states[t].reshape(-1, alg.w_dim)
        point[f"state_iq_{t}"] = phi @ phi.conj().T
    finals = states[q]
    shares = {}
    for z, m in share_maps(p, eps, q).items():
        # conjugation on the second index, as in the trace's Gram matrices
        shares[z] = finals @ alg.projectors[z].conj() @ finals.conj().T
        # the block the program holds: the share read back off its face
        point[f"output_part_{z}"] = m.adjoint().apply(shares[z])
    for i, lab in enumerate(p.labels if eps else []):
        share = shares[p.g[lab]]
        point[f"success_slack_{lab}"] = np.full((1, 1), share[i, i] - (1.0 - eps))
    return point


def trace_to_dict(trace: SimulationTrace) -> dict:
    return {
        "q": trace.q,
        "labels": list(trace.labels),
        "grams": [matrix_to_dict(gram) for gram in trace.grams],
        "probabilities": {lab: dict(probs) for lab, probs in trace.probabilities.items()},
    }
