"""Spectral adversary lower bounds for query problems.

Given a nonnegative symmetric weight matrix supported on pairs of inputs
with different outputs, the number of queries needed to compute the output
at error eps is bounded below by

    (1 - 2 sqrt(eps (1 - eps))) * lambda(gamma) / alpha,

where lambda is the largest eigenvalue, alpha = 2 lambda(gamma (x) I -
Omega (gamma (x) I) Omega†), and Omega is the block-diagonal oracle. Both
come from the symmetric eigensolver; the principal eigenvector is taken
entrywise nonnegative, which Perron–Frobenius allows for any nonnegative
weight matrix. The bound comes with an explicit feasible point of the
relaxed witness program, assembled from that eigenvector and checked
row-by-row before it is returned; a failed check raises WitnessError rather
than returning an unsound witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import QueryProblem, build_omega
from .programs import build_dual_relaxed, pair_name
from .solver import verify_point

__all__ = [
    "AdversaryReport",
    "WitnessError",
    "spectral_bound",
    "make_dual_witness",
    "check_block_schur_identity",
    "search_gamma",
    "perron_vector",
]

_ALPHA_FLOOR = 1e-12
# search_gamma stops after this many bound evaluations. The ascent has no
# convergence guarantee; the cap holds the sixteen two-qubit Paulis (s = 16,
# n = 4) to about 0.1 s on one core, while every test problem's ascent stops
# by itself within it (or2 takes the most, 121)
_SEARCH_EVALS = 200
_WITNESS_TOL = 1e-8
# A bound within this much above an integer is below it within the rounding
# of lambda / alpha, so it certifies no further query.
_CEIL_SLACK = 1e-12


class WitnessError(RuntimeError):
    """The constructed witness failed its row-by-row verification."""


@dataclass
class AdversaryReport:
    lambda_gamma: float
    perron_v: np.ndarray
    alpha: float
    bound: float
    ceil_bound: int | None

    @property
    def unbounded(self) -> bool:
        return not math.isfinite(self.bound)


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"error tolerance must lie in [0, 1/2), got {eps}")


def _check_weight(p: QueryProblem, gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    s = p.size
    if g.shape != (s, s):
        raise ValueError(f"weight matrix shape {g.shape} != ({s}, {s})")
    if not np.isfinite(g).all():
        raise ValueError("weight matrix entries must be finite")
    if np.linalg.norm(g - g.T) > 1e-12 * (1.0 + np.linalg.norm(g)):
        raise ValueError("weight matrix must be symmetric")
    if g.min() < 0:
        raise ValueError("weight matrix entries must be nonnegative")
    if not g.any():
        raise ValueError("weight matrix must be nonzero")
    out = np.array([p.outputs.index(p.g[lab]) for lab in p.labels])
    bad = np.argwhere((g != 0.0) & (out[:, None] == out[None, :]))
    if len(bad):
        i, j = bad[0]  # row-major, the first offending pair
        raise ValueError(f"weight at ({p.labels[i]}, {p.labels[j]}) must vanish: equal outputs")
    return 0.5 * (g + g.T)


def perron_vector(gamma: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a nonnegative unit eigenvector.

    Takes the entrywise absolute value |v| of the top eigenvector v of the
    symmetric eigensolver, and lambda = |v|·g·|v|. For entrywise
    nonnegative g, |v|ᵀ g |v| >= vᵀ g v = lambda_max, and the Rayleigh
    quotient of a unit vector never exceeds lambda_max, so equality holds
    and |v| is itself a top eigenvector (Perron–Frobenius). This needs no
    spectral gap: it holds when lambda_max is repeated (a disconnected
    weighting) and when -lambda_max is also an eigenvalue (a bipartite one).
    """
    g = np.asarray(gamma, dtype=float)
    v = np.abs(np.linalg.eigh(g)[1][:, -1])
    return float(v @ g @ v), v


def spectral_bound(p: QueryProblem, gamma, eps: float) -> AdversaryReport:
    """Evaluate the adversary lower bound for one weight matrix.

    alpha <= 1e-12 means the weighted difference operator is (numerically)
    never decreased by a query; the bound is then reported as infinite with
    ceil_bound = None. Otherwise ceil_bound is the least number of queries
    the bound proves, rounding down a bound that exceeds an integer by no
    more than _CEIL_SLACK.
    """
    _check_eps(eps)
    omega = build_omega(p)  # validates p, which _check_weight reads
    return _bound(p, omega, _check_weight(p, gamma), eps)


def _bound(p: QueryProblem, omega: np.ndarray, g: np.ndarray, eps: float) -> AdversaryReport:
    """The bound of a checked weighting g, on the problem's oracle omega."""
    lam, v = perron_vector(g)
    wide = np.kron(g, np.eye(p.n))
    diff = wide - omega @ wide @ omega.conj().T
    evals = np.linalg.eigvalsh(diff)
    alpha = 2.0 * float(evals[-1])
    prefactor = 1.0 - 2.0 * math.sqrt(eps * (1.0 - eps))
    if alpha <= _ALPHA_FLOOR:
        return AdversaryReport(lam, v, alpha, math.inf, None)
    bound = prefactor * lam / alpha
    return AdversaryReport(lam, v, alpha, bound, math.ceil(bound - _CEIL_SLACK))


def make_dual_witness(p: QueryProblem, gamma, q: int, eps: float) -> dict[str, np.ndarray]:
    """Feasible point of the relaxed witness program for any q below the bound.

    Step matrices are (gamma - t alpha I) entrywise-scaled by the outer
    square of the principal eigenvector; each pair multiplier is the 2x2
    matrix a·[[1, -1], [-1, 1]] on the pair's principal submatrix, with a the
    step-0 entry of that pair. The result is verified against every program
    row and returned only if all residuals stay within 1e-8 and the strict
    row has positive slack.
    """
    _check_eps(eps)
    omega = build_omega(p)  # validates p, which _check_weight reads
    g = _check_weight(p, gamma)
    report = _bound(p, omega, g, eps)
    if not q < report.bound:
        raise ValueError(f"no witness guaranteed at q = {q}, bound = {report.bound:.6g}")
    v = report.perron_v
    s = p.size
    proj = np.outer(v, v)
    witness: dict[str, np.ndarray] = {}
    for t in range(q + 1):
        witness[f"step_{t}"] = ((g - t * report.alpha * np.eye(s)) * proj).astype(complex)
    for i, j in p.differing_pairs():
        a = g[i, j] * v[i] * v[j]
        witness[f"pair_dual_{pair_name(p, (i, j))}"] = a * np.array([[1, -1], [-1, 1]], dtype=complex)
    rep = verify_point(build_dual_relaxed(p, q, eps), witness)
    if rep.max_residual > _WITNESS_TOL or not (rep.strict_slack and rep.strict_slack > 0):
        worst = max(rep.row_residuals, key=rep.row_residuals.get)
        raise WitnessError(
            "witness verification failed: "
            f"worst row {worst!r} residual {rep.row_residuals[worst]:.3e}, "
            f"strict slack {rep.strict_slack}, alpha {report.alpha:.6g}, "
            f"bound {report.bound:.6g}, q {q}"
        )
    return witness


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


def search_gamma(p: QueryProblem, eps: float) -> tuple[np.ndarray, AdversaryReport]:
    """Monotone coordinate ascent on the weight entries, from the all-ones seed.

    Heuristic only: each accepted step multiplies one pair weight by a fixed
    factor and keeps it when the bound improves, for at most _SEARCH_EVALS
    evaluations. Never returns less than the seed's bound.
    """
    omega = build_omega(p)  # validates p once for every candidate
    pairs = p.differing_pairs()
    if not pairs:
        raise ValueError("no pairs with differing outputs; a constant map needs no queries")
    _check_eps(eps)
    s = p.size
    # every candidate is symmetric, nonnegative and supported on the
    # differing pairs, so none needs _check_weight
    gamma = np.zeros((s, s))
    for i, j in pairs:
        gamma[i, j] = gamma[j, i] = 1.0
    best = _bound(p, omega, gamma, eps)
    evals = 1
    improved = True
    while improved and evals < _SEARCH_EVALS:
        improved = False
        for i, j in pairs:
            for factor in (2.0, 0.5):
                if evals >= _SEARCH_EVALS:
                    break
                cand = gamma.copy()
                cand[i, j] = cand[j, i] = gamma[i, j] * factor
                rep = _bound(p, omega, cand, eps)
                evals += 1
                if rep.bound > best.bound * (1.0 + 1e-12):
                    gamma, best = cand, rep
                    improved = True
    return gamma, best
