"""Shared fixtures: the four reference problems, the three non-commuting
families, the two start-face problems, a solve by cell name, the block
Schur identity check, and a copy of a problem whose exact program keeps
full s x s shares (`full_span_copy`).

The problems here are shared by every test, and so are the programs built
on them, with what they keep: assemblies, engines and each seed's decision.
A test that patches a solver constant such as `_MAX_ITERS`, or counts the
calls a decision makes, builds on a copy, `dataclasses.replace(PROBLEMS[...])`,
whose `derived` dict starts empty, so it keeps no program: on a shared
program it would read, or leave behind, a decision made under other
conditions. The same goes for tests that patch or count adversary internals
(`_check_weight`, the eigensolver bindings `adversary._eigh` and
`adversary._eigvalsh`): each problem keeps the
last weighting checked on it, with its spectrum, in its `derived` dict
(`adversary._last_weighting`), so on a shared problem a weighting another
test bounded would be served without the call being counted.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from qqc import programs
from qqc.problem import QueryProblem, phase_query_problem
from qqc.programs import build_dual, build_dual_relaxed, build_primal, build_primal_relaxed
from qqc.simulate import QuantumQueryAlgorithm
from qqc.solver import solve


def _distinguish_i_x() -> QueryProblem:
    eye = np.eye(2, dtype=complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return QueryProblem(
        2, ("i", "x"), np.stack([eye, flip]), ("i", "x"), {"i": "i", "x": "x"}
    )


PROBLEMS = {
    "const": phase_query_problem(2, {"00": "0", "01": "0", "10": "0", "11": "0"}),
    "deutsch": phase_query_problem(2, {"00": "0", "11": "0", "01": "1", "10": "1"}),
    "or2": phase_query_problem(2, {"00": "0", "01": "1", "10": "1", "11": "1"}),
    "ix": _distinguish_i_x(),
}


def _families() -> dict[str, QueryProblem]:
    # Pauli identification and classification, and the nine qutrit Weyl
    # operators asked for their shift index
    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                       [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
    labels = ("I", "X", "Y", "Z")
    shift = np.roll(np.eye(3), 1, axis=0).astype(complex)
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    weyl = tuple(f"{a}{b}" for a in range(3) for b in range(3))
    ops = np.stack([np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                    for a in range(3) for b in range(3)])
    return {
        "pauli_id": QueryProblem(2, labels, paulis, labels, {z: z for z in labels}),
        "pauli_class": QueryProblem(2, labels, paulis, ("0", "1"),
                                    {"I": "0", "Z": "0", "X": "1", "Y": "1"}),
        "weyl3": QueryProblem(3, weyl, ops, ("0", "1", "2"), {z: z[0] for z in weyl}),
    }


FAMILIES = _families()

_BITS = ["".join(b) for b in itertools.product("01", repeat=3)]
# Two 3-bit phase-query problems on which the start state's face matters:
# xor12 (g = x1 xor x2) and all-equal (g = 1 exactly when x1 = x2 = x3). They
# stay out of FAMILIES, so the per-family tests do not grow.
START_FACE_PROBLEMS = {
    "xor12": phase_query_problem(3, {x: str(int(x[0]) ^ int(x[1])) for x in _BITS}),
    "all_equal": phase_query_problem(3, {x: str(int(len(set(x)) == 1)) for x in _BITS}),
}



def full_span_copy(p: QueryProblem, qmax: int = 2) -> QueryProblem:
    """A copy of p whose reachable span reads as full at every q <= qmax.

    On it `build_primal` holds each share at eps > 0 as a full s x s block,
    `share_maps` reads it as it stands, and the last chain row is s x s: the
    exact program with no face at q >= 1, which the span reformulates. The
    copy's `derived` dict starts empty, so the span is set there before
    anything is built on it.
    """
    copy = dataclasses.replace(p)
    eye = np.eye(p.size)
    eye.flags.writeable = False
    programs._spans(copy).extend([eye] * qmax)
    return copy


BUILDERS = {
    "primal": build_primal,
    "dual": build_dual,
    "primal_relaxed": build_primal_relaxed,
    "dual_relaxed": build_dual_relaxed,
}

# Grid cells with a feasible exact primal; reconstruction tests and the
# round-trip criterion iterate exactly these.
FEASIBLE_CELLS = tuple(
    [("const", q, eps) for q in (0, 1, 2) for eps in (0.0, 0.1)]
    + [("deutsch", q, eps) for q in (1, 2) for eps in (0.0, 0.1)]
    + [("ix", q, eps) for q in (1, 2) for eps in (0.0, 0.1)]
)


@pytest.fixture(scope="session")
def cached_solve():
    """The solve of a cell, by (problem name, builder name, q, eps); `solve`
    keeps each decision on the shared program, so a cell asked again, from
    either side, is not decided again."""

    def go(pname, builder, q, eps):
        return solve(BUILDERS[builder](PROBLEMS[pname], q, eps))

    return go


@pytest.fixture
def const():
    return PROBLEMS["const"]


@pytest.fixture
def deutsch():
    return PROBLEMS["deutsch"]


@pytest.fixture
def or2():
    return PROBLEMS["or2"]


@pytest.fixture
def ix():
    return PROBLEMS["ix"]


def hand_deutsch_algorithm() -> QuantumQueryAlgorithm:
    """Textbook two-point parity circuit: one phase query between Hadamards."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    return QuantumQueryAlgorithm(
        n=2,
        w_dim=1,
        unitaries=[h, h],
        projectors={"0": np.diag([1.0, 0.0]).astype(complex),
                    "1": np.diag([0.0, 1.0]).astype(complex)},
    )


def random_valid_gamma(p: QueryProblem, rng: np.random.Generator) -> np.ndarray:
    """Random positive weights on every pair of inputs with different outputs."""
    s = p.size
    gam = np.zeros((s, s))
    for i in range(s):
        for j in range(i + 1, s):
            if p.g[p.labels[i]] != p.g[p.labels[j]]:
                w = float(rng.uniform(0.1, 2.0))
                gam[i, j] = gam[j, i] = w
    return gam


def check_block_schur_identity(z: np.ndarray, m: np.ndarray, x: np.ndarray) -> float:
    """Deviation of conjugation from commuting with the block-pattern product.

    Measures ||Z†((M (x) E) * X) Z - (M (x) E) * (Z† X Z)||_F, which vanishes
    when Z is block-diagonal with blocks indexed like M's rows, and is
    generically positive otherwise.
    """
    z = np.asarray(z, dtype=complex)
    m = np.asarray(m, dtype=complex)
    x = np.asarray(x, dtype=complex)
    s = m.shape[0]
    if z.shape[0] % s != 0:
        raise ValueError(f"cannot split dim {z.shape[0]} into {s} blocks")
    n = z.shape[0] // s
    pattern = np.kron(m, np.ones((n, n)))
    lhs = z.conj().T @ (pattern * x) @ z
    rhs = pattern * (z.conj().T @ x @ z)
    return float(np.linalg.norm(lhs - rhs))
