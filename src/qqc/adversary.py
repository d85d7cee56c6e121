"""Spectral adversary lower bounds for query problems.

Given a nonnegative symmetric weight matrix supported on pairs of inputs
with different outputs, the number of queries needed to compute the output
at error eps is bounded below by

    (1 - 2 sqrt(eps (1 - eps))) * lambda(gamma) / alpha,

where lambda is the largest eigenvalue, alpha = 2 lambda(gamma (x) I -
Omega (gamma (x) I) Omega†), and Omega is the block-diagonal oracle. Block
(x, y) of that matrix is gamma_xy (I - U_x U_y†), the noncommuting form of
the classical adversary's gamma∘D_i (Barnum, Saks & Szegedy 2003). So it is
the blockwise product (gamma (x) J) * D with the difference blocks D,
built once per problem (`_differences`), one elementwise product per
weighting. Both eigenvalues come from the symmetric eigensolver; the
principal eigenvector is taken entrywise nonnegative, which
Perron–Frobenius allows for any nonnegative weight matrix. The bound comes
with an explicit feasible point of the relaxed witness program, assembled
from that eigenvector and checked row-by-row before it is returned; a
failed check raises WitnessError rather than returning an unsound witness.

A weighting's spectrum (lambda, the Perron vector and alpha) does not
depend on eps, and its witnesses are asked for after its bound. So each
problem keeps the last weighting checked on it, keyed by the shape and bytes
of its float array, with its spectrum, read-only, in its slot
`_last_weighting(p)`, which only `spectral_bound` and `make_dual_witness`
read and fill: on a hit they run no weight check and no eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .problem import QueryProblem
from .programs import _check_q_eps, _derived, build_dual_relaxed, pair_name
from .solver import verify_point

__all__ = [
    "AdversaryReport",
    "WitnessError",
    "spectral_bound",
    "make_dual_witness",
    "search_gamma",
    "perron_vector",
]

_ALPHA_FLOOR = 1e-12
# search_gamma stops after this many bound evaluations. The ascent has no
# convergence guarantee; the cap holds the sixteen two-qubit Paulis (s = 16,
# n = 4) to about 0.03 s (one BLAS thread on an AMD EPYC core), while every
# test problem's ascent stops by itself within it (or2 takes the most, 121)
_SEARCH_EVALS = 200
_WITNESS_TOL = 1e-8
# lambda / alpha carries a rounding error relative to its size (of order
# s·n unit roundoffs), so a bound within this fraction of max(1, bound)
# above an integer may lie below it and certifies no further query. An
# absolute slack would be less than one ulp of any bound above 4096.
_CEIL_SLACK = 1e-12
# a pair row's multiplier is its weight W_ij times this pattern
_PAIR_PATTERN = np.array([[1, -1], [-1, 1]], dtype=complex)
_PAIR_PATTERN.flags.writeable = False


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


class _Spectrum(NamedTuple):
    """What a checked weighting g gives at every eps: the largest eigenvalue
    lam of g with its nonnegative eigenvector v, and alpha."""

    g: np.ndarray
    lam: float
    v: np.ndarray
    alpha: float


def _weight_array(gamma) -> np.ndarray:
    """gamma as a float array; a nonzero imaginary part is refused, not dropped."""
    g = np.asarray(gamma)
    if np.iscomplexobj(g):
        if np.any(g.imag):
            raise ValueError("weight matrix entries must be real")
        g = g.real
    return np.asarray(g, dtype=float)


def _check_weight(p: QueryProblem, g: np.ndarray) -> np.ndarray:
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
    out = p.output_index
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
    more than _CEIL_SLACK times max(1, bound).
    """
    _check_eps(eps)
    p.omega  # validates p, which _check_weight reads
    return _report(_checked_spectrum(p, gamma), eps)


@_derived
def _last_weighting(p: QueryProblem) -> list:
    """One slot, [key, spectrum], for the last weighting checked on p."""
    return [None, None]


def _checked_spectrum(p: QueryProblem, gamma) -> _Spectrum:
    """The spectrum of gamma, checked, from p's slot when gamma has the
    shape and bytes of the weighting last checked on p; otherwise checked
    and evaluated, and kept in the slot in place of the last one."""
    a = _weight_array(gamma)
    key = (a.shape, a.tobytes())
    slot = _last_weighting(p)
    if slot[0] != key:
        spectrum = _spectrum(p, _check_weight(p, a))
        spectrum.g.flags.writeable = spectrum.v.flags.writeable = False
        slot[:] = key, spectrum
    return slot[1]


@_derived
def _differences(p: QueryProblem) -> np.ndarray:
    """Read-only s·n x s·n matrix with block (x, y) = I - U_x U_y†, formed
    as W - Omega W Omega† with W = J_s ⊗ I_n."""
    wide = np.kron(np.ones((p.size, p.size)), np.eye(p.n))
    diff = wide - p.omega @ wide @ p.omega.conj().T
    diff.flags.writeable = False
    return diff


def _spectrum(p: QueryProblem, g: np.ndarray) -> _Spectrum:
    """The spectrum of a checked weighting g."""
    lam, v = perron_vector(g)
    wide = np.repeat(np.repeat(g, p.n, axis=0), p.n, axis=1)  # gamma ⊗ J_n
    evals = np.linalg.eigvalsh(wide * _differences(p))
    return _Spectrum(g, lam, v, 2.0 * float(evals[-1]))


def _report(spectrum: _Spectrum, eps: float) -> AdversaryReport:
    """The bound a weighting's spectrum gives at error eps."""
    lam, v, alpha = spectrum.lam, spectrum.v, spectrum.alpha
    prefactor = 1.0 - 2.0 * math.sqrt(eps * (1.0 - eps))
    if alpha <= _ALPHA_FLOOR:
        return AdversaryReport(lam, v, alpha, math.inf, None)
    bound = prefactor * lam / alpha
    return AdversaryReport(lam, v, alpha, bound, _ceil_bound(bound))


def _ceil_bound(bound: float) -> int:
    """The least number of queries a finite positive bound proves."""
    return math.ceil(bound - _CEIL_SLACK * max(1.0, bound))


@_derived
def _pair_rows(p: QueryProblem) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The relaxed programs' row name of each pair in `differing_pairs()`,
    in its order, and the pairs' read-only index arrays ii and jj: the keys
    of a witness's pair multipliers."""
    pairs = p.differing_pairs()
    names = tuple(f"pair_{pair_name(p, pr)}" for pr in pairs)
    ii = np.array([i for i, _ in pairs], dtype=np.intp)
    jj = np.array([j for _, j in pairs], dtype=np.intp)
    ii.flags.writeable = jj.flags.writeable = False
    return names, ii, jj


def make_dual_witness(p: QueryProblem, gamma, q: int, eps: float) -> dict[str, np.ndarray]:
    """Feasible point of the relaxed witness program for any q below the bound.

    Keyed by the relaxed existence program's rows. With W = gamma∘vvᵀ for
    the principal eigenvector v, the multiplier of chain row q - t (init,
    chain_t) is the step Lap(W) + t alpha diag(v∘v), for the Laplacian
    Lap(W) = diag(W 1) - W, with t = 1..q at q >= 1 and t = 0 at q = 0;
    the multiplier of init is the step's 1x1 J-trace 1ᵀ step 1, as the
    start face asks at q >= 1 (tr rho_0 = 1, J-trace q alpha) and the face
    of J at q = 0 (sum c = s, J-trace 1ᵀ Lap(W) 1 = 0). Each pair row's
    multiplier is W_ij·[[1, -1], [-1, 1]] on the pair's principal
    submatrix, all formed in one product; together they read Lap(W),
    step 0, off the final Gram matrix, through the last chain block's row
    at q >= 1. Step t is
    -K_t + diag(W 1) for
    K_t = (gamma - t alpha I)∘vvᵀ, and the block-diagonal oracle leaves that
    diagonal shift ⊗ I in place.
    The strict slack is (1 - 2√(eps(1-eps))) lambda - q alpha. The result
    is returned only if every row and block passes within 1e-8 and the
    strict slack is positive; otherwise it raises WitnessError. q is
    checked first, as the builders check it, and eps against [0, 1/2).
    """
    _check_q_eps(q)
    _check_eps(eps)
    p.omega  # validates p, which _check_weight reads
    spectrum = _checked_spectrum(p, gamma)
    report = _report(spectrum, eps)
    if not q < report.bound:
        raise ValueError(f"no witness guaranteed at q = {q}, bound = {report.bound:.6g}")
    v = spectrum.v
    w = spectrum.g * np.outer(v, v)
    lap = np.diag(w.sum(axis=1)) - w
    chain = ["init"] + [f"chain_{t}" for t in range(1, q)]
    witness: dict[str, np.ndarray] = {}
    for t in range(min(q, 1), q + 1):
        step = (lap + t * report.alpha * np.diag(v * v)).astype(complex)
        # on the start face, or the face of J at q = 0, init's step is the scalar tr(J step)
        witness[chain[q - t]] = np.full((1, 1), step.sum()) if t == q else step
    names, ii, jj = _pair_rows(p)
    witness.update(zip(names, w[ii, jj][:, None, None] * _PAIR_PATTERN))
    rep = verify_point(build_dual_relaxed(p, q, eps), witness)
    if not (rep.within(_WITNESS_TOL) and rep.strict_slack and rep.strict_slack > 0):
        worst = max(rep.row_residuals, key=rep.row_residuals.get)
        raise WitnessError(
            "witness verification failed: "
            f"worst row {worst!r} residual {rep.row_residuals[worst]:.3e}, "
            f"least block eigenvalue {rep.min_block_eig:.3e}, "
            f"strict slack {rep.strict_slack}, alpha {report.alpha:.6g}, "
            f"bound {report.bound:.6g}, q {q}"
        )
    return witness


def search_gamma(p: QueryProblem, eps: float) -> tuple[np.ndarray, AdversaryReport]:
    """Monotone coordinate ascent on the weight entries, from the all-ones seed.

    Heuristic only: each accepted step multiplies one pair weight by a fixed
    factor and keeps it when the bound improves, for at most _SEARCH_EVALS
    evaluations. A halving that would undo the doubling just accepted is
    counted among them but not computed: it is the weighting the doubling
    beat. Never returns less than the seed's bound.
    """
    p.omega  # validates p, which differing_pairs reads
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
    best = _report(_spectrum(p, gamma), eps)
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
                rep = _report(_spectrum(p, cand), eps)
                evals += 1
                if rep.bound > best.bound * (1.0 + 1e-12):
                    gamma, best = cand, rep
                    improved = True
                    if factor == 2.0:
                        # halving would give back the weighting this doubling
                        # beat, bit for bit: it is counted, not evaluated
                        evals = min(evals + 1, _SEARCH_EVALS)
                        break
    return gamma, best
