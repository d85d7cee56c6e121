"""Feasibility decisions for block conic programs.

The method is relaxed alternating projections between the affine set
{A x = b} and the product of PSD cones, in a real coordinate system where
each Hermitian block is flattened isometrically (trace pairing = dot
product). `assemble` builds the dense A and b from the program rows; the
SDPA export reads its constraint matrices from the same assembly. The
coordinate maps `hvec`/`unhvec` behind both read their triangle indices
from one cache per matrix dimension, and act on stacks of matrices and
vectors along the leading axes. The cone step groups the PSD blocks by
dimension once and projects each group with one stacked `eigh`: a gather
of the group's coordinates, eigenvalue clipping, and a scatter back.
Equality-sense programs run
directly; inequality-sense programs are first slackened to equality form,
with the strict scalar row pinned to -1 (all assembled inequality programs
are homogeneous, so the pin loses no generality).

Infeasibility is reported only with a Farkas-style certificate: one
multiplier matrix per row whose adjoint image is PSD on PSD blocks, zero on
free blocks, and whose pairing with the right-hand side is -1. Certificates
are searched for by running the same projection engine on that adjoint
system, seeded from the residual displacement of the main iteration, and are
re-verified from scratch before anything is reported.

Near-feasible points are polished by rank-restricted Gauss-Newton: each
block's rank is guessed from its spectrum with a residual-scaled cut, PSD
blocks are refactored as Y Y-adjoint, and the factors are refined against
the equality rows. The Jacobian of each factor is built in closed form, as
one stack of the derivative matrices of Y -> Y Y-adjoint (the Burer-Monteiro
factorization) mapped through hvec and the block's columns of A.
Candidates lie in the cone by construction, so success lands equality
residuals near 1e-14, which downstream extraction steps rely on; failed
guesses are discarded.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import hermitize
from .programs import Block, BlockMap, ConicFeasibilityProgram, Row

__all__ = [
    "SolverConfig",
    "PointReport",
    "FeasibilityOutcome",
    "SolverError",
    "solve",
    "verify_point",
]

_CHECK_EVERY = 100
_FIRST_CERT_ATTEMPT = 1000
_CERT_ROUND_ITERS = 2500
_CERT_NORM_CAP = 1e8
_POLISH_GATE = 1e-2
_FACE_REL_TOL = 1e-5
_FACE_ABS_FLOOR = 1e-7
_FACE_RES_FACTOR = 10.0
_POLISH_ROUNDS = 4
_RANGE_TOL = 1e-9


class SolverError(RuntimeError):
    """Raised for malformed programs or internal solver failures."""


@dataclass
class SolverConfig:
    max_iters: int = 50000
    feas_tol: float = 1e-7
    cert_margin: float = 1e-6
    over_relaxation: float = 1.8
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.feas_tol <= 0 or self.cert_margin <= 0:
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.over_relaxation < 2.0:
            raise ValueError("over_relaxation must lie in (0, 2)")


@dataclass
class PointReport:
    """Residuals of a candidate point, re-evaluated from the program data."""

    row_residuals: dict[str, float]
    block_min_eigs: dict[str, float]
    strict_slack: float | None

    @property
    def max_residual(self) -> float:
        return max(self.row_residuals.values(), default=0.0)

    @property
    def min_block_eig(self) -> float:
        return min(self.block_min_eigs.values(), default=0.0)

    def within(self, feas_tol: float, cert_margin: float | None = None) -> bool:
        if self.max_residual > feas_tol or self.min_block_eig < -feas_tol:
            return False
        if self.strict_slack is not None and cert_margin is not None:
            return self.strict_slack >= cert_margin
        return True


@dataclass
class FeasibilityOutcome:
    status: str  # FEASIBLE | INFEASIBLE_WITH_CERTIFICATE | UNDECIDED
    point: dict[str, np.ndarray] | None
    certificate: dict[str, np.ndarray] | None
    residuals: dict[str, float]
    iterations: int


# ---------------------------------------------------------------------------
# Isometric real coordinates for Hermitian matrices.

@functools.lru_cache(maxsize=None)
def _upper(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Strict upper-triangle indices of a d x d matrix, computed once per d."""
    iu = np.triu_indices(d, 1)
    for idx in iu:
        idx.flags.writeable = False
    return iu


def hvec(m: np.ndarray) -> np.ndarray:
    """Flatten a Hermitian matrix so that tr(XY) becomes a real dot product.

    Applies to the last two axes of m, so a stack of matrices gives the
    stack of their coordinate vectors.
    """
    m = np.asarray(m, dtype=complex)
    iu = _upper(m.shape[-1])
    off = m[..., iu[0], iu[1]]
    return np.concatenate([
        np.diagonal(m, axis1=-2, axis2=-1).real,
        math.sqrt(2.0) * off.real,
        math.sqrt(2.0) * off.imag,
    ], axis=-1)


def unhvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of hvec, applied along the last axis of v."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (d * d,):
        raise ValueError(f"coordinate vector of shape {v.shape} is not {d}x{d}")
    out = np.zeros(v.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    out[..., diag, diag] = v[..., :d]
    iu = _upper(d)
    k = len(iu[0])
    off = (v[..., d : d + k] + 1j * v[..., d + k :]) / math.sqrt(2.0)
    out[..., iu[0], iu[1]] = off
    out[..., iu[1], iu[0]] = off.conj()
    return out


def assemble(
    blocks: list[Block], rows: list[Row]
) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
    """Dense coordinate form of the rows: (A, b, block offsets, row offsets).

    Column block j holds hvec coordinates of block j, row slice i those of
    row i, so A x - b stacks hvec(row value - rhs) over the rows. Column k
    of a term is the image of the k-th Hermitian basis matrix, unhvec(e_k).
    """
    block_off = list(itertools.accumulate((blk.dim**2 for blk in blocks), initial=0))
    row_off = list(itertools.accumulate((r.dim**2 for r in rows), initial=0))
    a = np.zeros((row_off[-1], block_off[-1]))
    b = np.zeros(row_off[-1])
    for ri, r in enumerate(rows):
        sl = slice(row_off[ri], row_off[ri + 1])
        b[sl] = hvec(r.rhs)
        for bj, m in r.terms:
            d = blocks[bj].dim
            if m.d_in != d or m.d_out != r.dim:
                raise SolverError(
                    f"row {r.name!r}: map dims {m.d_in}->{m.d_out} clash with "
                    f"block {blocks[bj].name!r} ({d}) or row dim {r.dim}"
                )
            co = block_off[bj]
            for k in range(d * d):
                e = np.zeros(d * d)
                e[k] = 1.0
                a[sl, co + k] += hvec(m.apply(unhvec(e, d)))
    return a, b, block_off[:-1], row_off[:-1]


# ---------------------------------------------------------------------------
# Equality-form engine.

class _Engine:
    """Dense assembly of one equality-form program plus its projections."""

    def __init__(self, blocks: list[Block], rows: list[Row]):
        self.blocks = blocks
        self.rows = rows
        a, self.b, self.block_off, self.row_off = assemble(blocks, rows)
        self.a = a
        self.n_rows, self.n_cols = a.shape
        # PSD blocks grouped by dimension: one (k, d*d) gather index per d.
        groups: dict[int, list[int]] = {}
        for b, off in zip(blocks, self.block_off):
            if b.psd:
                groups.setdefault(b.dim, []).append(off)
        self._cone_groups = [
            (d, np.add.outer(offs, np.arange(d * d))) for d, offs in groups.items()
        ]

        gram = a @ a.T
        if self.n_rows:
            w, v = np.linalg.eigh(gram)
            cut = max(w[-1], 0.0) * 1e-12 + 1e-300
            inv_w = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
            self._pinv_v = v
            self._pinv_w = inv_w
            # x + A^T (A A^T)^+ (b - A x) projects onto {A x = b}
            self._lift = a.T @ (v * inv_w) @ v.T
        else:
            self._pinv_v = np.zeros((0, 0))
            self._pinv_w = np.zeros(0)
            self._lift = np.zeros((self.n_cols, 0))

    def pinv_gram(self, r: np.ndarray) -> np.ndarray:
        return self._pinv_v @ ((self._pinv_v.T @ r) * self._pinv_w)

    def range_residual(self) -> np.ndarray:
        return self.b - self.a @ (self._lift @ self.b)

    def project_affine(self, x: np.ndarray) -> np.ndarray:
        return x + self._lift @ (self.b - self.a @ x)

    def project_cone(self, x: np.ndarray) -> np.ndarray:
        """Clip the spectrum of every PSD block, one stacked eigh per dimension."""
        out = x.copy()
        for d, idx in self._cone_groups:
            w, v = np.linalg.eigh(unhvec(x[idx], d))
            np.clip(w, 0.0, None, out=w)
            out[idx] = hvec((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2))
        return out

    def row_residuals(self, x: np.ndarray) -> dict[str, float]:
        r = self.a @ x - self.b
        out = {}
        for ri, row in enumerate(self.rows):
            sl = slice(self.row_off[ri], self.row_off[ri] + row.dim * row.dim)
            out[row.name] = float(np.linalg.norm(r[sl]))
        return out

    def split_blocks(self, x: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        for b, off in zip(self.blocks, self.block_off):
            out[b.name] = unhvec(x[off : off + b.dim * b.dim], b.dim)
        return out

    def split_rows(self, y: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        for ri, row in enumerate(self.rows):
            sl = slice(self.row_off[ri], self.row_off[ri] + row.dim * row.dim)
            out[row.name] = unhvec(y[sl], row.dim)
        return out


def _assemble_factors(eng: _Engine, ys: list[tuple[bool, np.ndarray]]) -> np.ndarray:
    x = np.zeros(eng.n_cols)
    for (psd, y), b, off in zip(ys, eng.blocks, eng.block_off):
        m = y @ y.conj().T if psd else y
        x[off : off + b.dim * b.dim] = hvec(m)
    return x


def _step_factors(
    ys: list[tuple[bool, np.ndarray]], step: np.ndarray
) -> list[tuple[bool, np.ndarray]]:
    out = []
    k = 0
    for psd, y in ys:
        if psd:
            d, r = y.shape
            seq = step[k : k + 2 * d * r].reshape(r, d, 2)
            out.append((True, y + (seq[..., 0] + 1j * seq[..., 1]).T))
            k += 2 * d * r
        else:
            d = y.shape[0]
            out.append((False, y + unhvec(step[k : k + d * d], d)))
            k += d * d
    return out


def _factor_jacobian(y: np.ndarray, a_blk: np.ndarray) -> np.ndarray:
    """Jacobian of Y -> a_blk hvec(Y Y^H) for one d x r factor Y.

    The derivative along unit * e_k e_l^T is unit e_k y_l^H + conj(unit)
    y_l e_k^H; columns run over l, then k, then the real and imaginary unit,
    the order `_step_factors` reads a step in.
    """
    d, r = y.shape
    units = np.array([1.0, 1j])
    # t[l, k, u] = units[u] * e_k y_l^H
    t = (units[None, None, :, None, None]
         * np.eye(d)[None, :, None, :, None]
         * y.T.conj()[:, None, None, None, :])
    dm = t + t.conj().swapaxes(-1, -2)
    return a_blk @ hvec(dm).reshape(2 * d * r, d * d).T


def _gauss_newton(eng: _Engine, ys: list[tuple[bool, np.ndarray]], max_steps: int = 40) -> np.ndarray:
    """Refine block factors against the equality rows; returns flat coords.

    PSD blocks are parametrized as Y Y-adjoint at fixed rank (free blocks
    stay linear), so every candidate lies in the cone exactly and only the
    affine residual is minimized. Steps come from a least-squares Jacobian
    solve with backtracking; stalls terminate quietly and the caller keeps
    whatever was best.
    """
    x = _assemble_factors(eng, ys)
    r = eng.a @ x - eng.b
    rn = float(np.linalg.norm(r))
    floor = 1e-15 * max(1.0, float(np.linalg.norm(eng.b)))
    a_blks = [eng.a[:, off : off + b.dim * b.dim] for b, off in zip(eng.blocks, eng.block_off)]
    for _ in range(max_steps):
        if rn <= floor:
            break
        jac = np.hstack([np.zeros((eng.n_rows, 0))] + [
            _factor_jacobian(y, a_blk) if psd else a_blk
            for (psd, y), a_blk in zip(ys, a_blks)
        ])
        if not jac.shape[1]:
            break
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        t = 1.0
        improved = False
        for _ in range(8):
            trial = _step_factors(ys, t * step)
            xt = _assemble_factors(eng, trial)
            rt = eng.a @ xt - eng.b
            rtn = float(np.linalg.norm(rt))
            if rtn < rn:
                ys, x, r, rn = trial, xt, rt, rtn
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return x


def _guess_factors(
    eng: _Engine, x: np.ndarray, scale: float, extra: int, res: float
) -> list[tuple[bool, np.ndarray]]:
    """Factor each block at the rank its spectrum suggests, plus headroom.

    Spurious eigenvalues shrink along with the residual while true ones stay
    put, so a residual-scaled cut separates them long before the iterates
    themselves converge. `extra` appends that many gently seeded directions
    from just below the cut; refinement can always shrink them back to zero,
    but a missing direction leaves a rank-deficient dead end.
    """
    ys: list[tuple[bool, np.ndarray]] = []
    for b, off in zip(eng.blocks, eng.block_off):
        m = unhvec(x[off : off + b.dim * b.dim], b.dim)
        if not b.psd:
            ys.append((False, m))
            continue
        w, v = np.linalg.eigh(m)
        cut = max(max(w[-1], 0.0) * _FACE_REL_TOL + _FACE_ABS_FLOOR, scale)
        keep = w > cut
        y = v[:, keep] * np.sqrt(w[keep])
        if extra:
            rest = np.flatnonzero(~keep)
            take = rest[-extra:]
            if take.size:
                seed = math.sqrt(max(res, 1e-12))
                y = np.concatenate([y, v[:, take] * seed], axis=1)
        ys.append((True, y))
    return ys


def _face_polish(eng: _Engine, x: np.ndarray, rounds: int = _POLISH_ROUNDS) -> np.ndarray:
    """Polish a near-feasible point to machine precision at guessed block ranks.

    Attempts walk a ladder of rank guesses, leanest first: exact guesses give
    quadratic convergence, while the padded ones cost more per step but avoid
    the rank-deficient local minima a too-lean factorization can wedge into.
    A wrong guess is harmless because only improvements are kept.
    """

    def residual(v: np.ndarray) -> float:
        return float(np.linalg.norm(eng.a @ v - eng.b, ord=np.inf))

    best, best_res = x, residual(x)
    ladder = ((_FACE_RES_FACTOR, 0), (_FACE_RES_FACTOR, 1), (0.1, 1), (0.1, 2))
    for fac, extra in ladder[:rounds]:
        if best_res < 1e-13:
            break
        ys = _guess_factors(eng, best, fac * best_res, extra, best_res)
        cand = _gauss_newton(eng, ys)
        res = residual(cand)
        if res < best_res:
            best, best_res = cand, res
    return best


# ---------------------------------------------------------------------------
# Program transforms.

def _equality_form(prog: ConicFeasibilityProgram) -> tuple[list[Block], list[Row], list[str]]:
    """Slacken PSD rows and pin the strict row; returns (blocks, rows, slack names)."""
    if prog.sense == "primal":
        for r in prog.rows:
            if r.sense != "eq":
                raise SolverError(f"primal-sense program has non-equality row {r.name!r}")
        return list(prog.blocks), list(prog.rows), []

    blocks = [Block(b.name, b.dim, b.psd) for b in prog.blocks]
    rows: list[Row] = []
    slack_names = []
    strict_seen = False
    for r in prog.rows:
        if r.sense == "eq":
            rows.append(r)
        elif r.sense == "psd":
            sname = f"row_slack_{r.name}"
            blocks.append(Block(sname, r.dim, True))
            slack_names.append(sname)
            terms = list(r.terms) + [
                (len(blocks) - 1, BlockMap("id", d_in=r.dim, d_out=r.dim, scale=-1.0))
            ]
            rows.append(Row(r.name, r.dim, terms, r.rhs, sense="eq"))
        elif r.sense == "strict":
            if strict_seen:
                raise SolverError("more than one strict row")
            strict_seen = True
            if np.linalg.norm(r.rhs) > 0:
                raise SolverError("strict row must be homogeneous")
            rows.append(Row(r.name, 1, list(r.terms), -np.ones((1, 1), dtype=complex), sense="eq"))
        else:
            raise SolverError(f"unknown row sense {r.sense!r}")
    for r in prog.rows:
        if r.sense != "strict" and np.linalg.norm(r.rhs) > 0 and strict_seen:
            raise SolverError("strict-row pinning requires all other rows homogeneous")
    return blocks, rows, slack_names


def _adjoint_system(prog: ConicFeasibilityProgram) -> tuple[list[Block], list[Row]]:
    """Farkas system for an equality-form program: multipliers whose adjoint
    image is PSD on PSD blocks, zero on free blocks, pairing with rhs = -1."""
    blocks = [Block(f"mult_{r.name}", r.dim, False) for r in prog.rows]
    grid: dict[int, list[tuple[int, BlockMap]]] = {j: [] for j in range(len(prog.blocks))}
    for ri, r in enumerate(prog.rows):
        for bj, m in r.terms:
            grid[bj].append((ri, m.adjoint()))
    rows = []
    slack_blocks = []
    for j, b in enumerate(prog.blocks):
        if b.psd:
            sname = f"image_slack_{b.name}"
            slack_blocks.append(Block(sname, b.dim, True))
            terms = list(grid[j]) + [
                (
                    len(prog.rows) + len(slack_blocks) - 1,
                    BlockMap("id", d_in=b.dim, d_out=b.dim, scale=-1.0),
                )
            ]
        else:
            terms = list(grid[j])
        rows.append(Row(f"adjoint_{b.name}", b.dim, terms, np.zeros((b.dim, b.dim), dtype=complex)))
    pair_terms = []
    for ri, r in enumerate(prog.rows):
        if np.linalg.norm(r.rhs) > 0:
            pair_terms.append(
                (ri, BlockMap("trace_against", d_in=r.dim, d_out=1, mat=np.asarray(r.rhs)))
            )
    rows.append(Row("pairing", 1, pair_terms, -np.ones((1, 1), dtype=complex)))
    return blocks + slack_blocks, rows


def _verify_certificate(
    blocks: list[Block], rows: list[Row], cert: dict[str, np.ndarray], cfg: SolverConfig
) -> bool:
    pairing = 0.0
    scale = 0.0
    for r in rows:
        y = np.asarray(cert[r.name], dtype=complex)
        if y.shape != (r.dim, r.dim):
            return False
        pairing += float(np.trace(np.asarray(r.rhs) @ y).real)
        scale = max(scale, float(np.linalg.norm(y)))
    if not pairing < 0 or scale > _CERT_NORM_CAP * max(1.0, -pairing):
        return False
    images: dict[int, np.ndarray] = {}
    for ri, r in enumerate(rows):
        y = np.asarray(cert[r.name], dtype=complex)
        for bj, m in r.terms:
            images[bj] = images.get(bj, 0) + m.adjoint().apply(y)
    tol = cfg.feas_tol * max(1.0, -pairing)
    for j, b in enumerate(blocks):
        img = images.get(j)
        if img is None:
            continue
        if b.psd:
            w, _ = np.linalg.eigh(hermitize(img))
            if w[0] < -tol:
                return False
        elif np.linalg.norm(img) > tol:
            return False
    return True


def _normalize_certificate(rows: list[Row], cert: dict[str, np.ndarray]) -> dict[str, np.ndarray] | None:
    pairing = sum(
        float(np.trace(np.asarray(r.rhs) @ np.asarray(cert[r.name], dtype=complex)).real)
        for r in rows
    )
    if pairing >= -1e-15:
        return None
    return {k: hermitize(np.asarray(v, dtype=complex)) / (-pairing) for k, v in cert.items()}


# ---------------------------------------------------------------------------
# The decision loop.

def _run_ap(eng: _Engine, x: np.ndarray, iters: int, relax: float) -> np.ndarray:
    for _ in range(iters):
        y = x + relax * (eng.project_affine(x) - x)
        x = y + relax * (eng.project_cone(y) - y)
    return x


def solve(prog: ConicFeasibilityProgram, cfg: SolverConfig | None = None) -> FeasibilityOutcome:
    """Decide feasibility; deterministic for a fixed config seed.

    FEASIBLE comes with a point meeting every row within feas_tol (strict
    rows by at least cert_margin); INFEASIBLE_WITH_CERTIFICATE comes with
    verified Farkas multipliers keyed by row name. UNDECIDED is returned
    only once the iteration budget is exhausted with neither witness.
    """
    cfg = cfg or SolverConfig()
    blocks, rows, slack_names = _equality_form(prog)
    eng = _Engine(blocks, rows)
    rng = np.random.default_rng(cfg.seed)

    def finish_feasible(x: np.ndarray, iterations: int) -> FeasibilityOutcome:
        x = _face_polish(eng, eng.project_cone(x))
        point = eng.split_blocks(x)
        for name in slack_names:
            point.pop(name, None)
        res = eng.row_residuals(x)
        return FeasibilityOutcome("FEASIBLE", point, None, res, iterations)

    # Right-hand side off the affine range is already a finished certificate.
    r0 = eng.range_residual()
    nr0 = float(np.linalg.norm(r0))
    if nr0 > _RANGE_TOL * max(1.0, float(np.linalg.norm(eng.b))):
        cert = eng.split_rows(-r0 / nr0**2)
        if _verify_certificate(blocks, rows, cert, cfg):
            return FeasibilityOutcome(
                "INFEASIBLE_WITH_CERTIFICATE", None, cert, eng.row_residuals(np.zeros(eng.n_cols)), 0
            )

    dual_eng: _Engine | None = None
    dual_blocks: list[Block] = []
    dual_rows: list[Row] = []

    def attempt_certificate(cand: np.ndarray) -> dict[str, np.ndarray] | None:
        nonlocal dual_eng, dual_blocks, dual_rows
        if dual_eng is None:
            dual_blocks, dual_rows = _adjoint_system(
                ConicFeasibilityProgram(blocks, rows, "primal")
            )
            dual_eng = _Engine(dual_blocks, dual_rows)
        w = eng.pinv_gram(eng.a @ cand - eng.b)
        for sign in (1.0, -1.0):
            seed_rows = eng.split_rows(sign * w)
            y0 = np.zeros(dual_eng.n_cols)
            for b, off in zip(dual_eng.blocks, dual_eng.block_off):
                if b.name.startswith("mult_"):
                    y0[off : off + b.dim * b.dim] = hvec(seed_rows[b.name[len("mult_") :]])
            y = y0
            for _ in range(2):
                y = _run_ap(dual_eng, y, _CERT_ROUND_ITERS, cfg.over_relaxation)
                y = dual_eng.project_cone(y)
                y = _face_polish(dual_eng, y, rounds=2)
                cert_full = dual_eng.split_blocks(y)
                cert = {
                    r.name: cert_full[f"mult_{r.name}"] for r in rows
                }
                cert = _normalize_certificate(rows, cert)
                if cert is not None and _verify_certificate(blocks, rows, cert, cfg):
                    return cert
        return None

    x = 0.1 * rng.standard_normal(eng.n_cols)
    best_res = math.inf
    next_cert = _FIRST_CERT_ATTEMPT
    it = 0
    while it < cfg.max_iters:
        chunk = min(_CHECK_EVERY, cfg.max_iters - it)
        x = _run_ap(eng, x, chunk, cfg.over_relaxation)
        it += chunk
        cand = eng.project_cone(x)
        res = max(eng.row_residuals(cand).values(), default=0.0)
        best_res = min(best_res, res)
        if res <= cfg.feas_tol:
            return finish_feasible(cand, it)
        if res <= max(_POLISH_GATE, 100.0 * cfg.feas_tol):
            polished = _face_polish(eng, cand)
            pres = max(eng.row_residuals(polished).values(), default=0.0)
            if pres <= cfg.feas_tol:
                return finish_feasible(polished, it)
            if pres < 0.5 * res:
                x = polished
        if it >= next_cert:
            next_cert = it * 2
            cert = attempt_certificate(cand)
            if cert is not None:
                return FeasibilityOutcome(
                    "INFEASIBLE_WITH_CERTIFICATE", None, cert, eng.row_residuals(cand), it
                )
    cand = eng.project_cone(x)
    return FeasibilityOutcome("UNDECIDED", None, None, eng.row_residuals(cand), it)


def verify_point(prog: ConicFeasibilityProgram, point: dict[str, np.ndarray]) -> PointReport:
    """Pure re-evaluation of every row and block at the given point."""
    vals = {}
    for b in prog.blocks:
        v = np.asarray(point[b.name], dtype=complex)
        if v.shape != (b.dim, b.dim):
            raise ValueError(f"block {b.name!r} has shape {v.shape}, expected {(b.dim, b.dim)}")
        vals[b.name] = v
    row_residuals = {}
    strict_slack = None
    for r in prog.rows:
        acc = np.zeros((r.dim, r.dim), dtype=complex)
        for bj, m in r.terms:
            acc += m.apply(vals[prog.blocks[bj].name])
        diff = acc - np.asarray(r.rhs, dtype=complex)
        if r.sense == "eq":
            row_residuals[r.name] = float(np.linalg.norm(diff))
        elif r.sense == "psd":
            w, _ = np.linalg.eigh(hermitize(diff))
            row_residuals[r.name] = float(max(0.0, -w[0]))
        elif r.sense == "strict":
            strict_slack = float(-diff[0, 0].real)
        else:
            raise SolverError(f"unknown row sense {r.sense!r}")
    block_min_eigs = {}
    for b in prog.blocks:
        if b.psd:
            w, _ = np.linalg.eigh(hermitize(vals[b.name]))
            block_min_eigs[b.name] = float(w[0])
    return PointReport(row_residuals, block_min_eigs, strict_slack)
