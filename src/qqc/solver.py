"""Feasibility decisions for block conic programs.

The method is relaxed alternating projections between the affine set
{A x = b} and the product of PSD cones, in a real coordinate system where
each Hermitian block is flattened isometrically (trace pairing = dot
product). `assemble` builds the dense A and b from the program rows; the
SDPA export reads its constraint matrices from the same assembly. The
coordinate maps `hvec`/`unhvec` behind both are one gather each, between
the coordinates and the float view of the complex matrix, through a table
of positions and scales built once per matrix dimension; they act on stacks
of matrices and vectors along the leading axes. The cone step reads every
PSD block in one gather, through those tables, into one packed buffer of
complex matrices grouped by dimension; each group is projected by one
stacked `eigh` on a zero-copy view of its slice, eigenvalue clipping and a
product written straight into a second packed buffer (1x1 blocks are
clipped at zero), and one gather and one scatter write the coordinates
back: the arithmetic of unhvec, eigh and hvec on the same floats, in a
fixed few numpy calls per step instead of about a dozen per dimension.
Programs whose rows are all equalities run directly; PSD rows are first
slackened to equalities, with the strict scalar row pinned to -1 (all
assembled inequality programs are homogeneous, so the pin loses no
generality).

Infeasibility is reported only with a Farkas-style certificate: one
multiplier matrix per row whose adjoint image is PSD on PSD blocks, zero on
free blocks, and whose pairing with the right-hand side is -1. In hvec
coordinates the adjoint is the transpose, so the image s = A^T y is a point
of the row space of A, and for b in the range of A, b^T y = x0^T s with
x0 = A^T (A A^T)^+ b. The certificate search is then the same relaxed
alternating projection, on the same pseudo-inverse, between
{s in range(A^T): x0^T s = -1} and the dual cone (PSD blocks clipped, free
blocks zero). Both searches run in one loop with no schedule: at the first
check a Farkas iterate s is seeded once from the primal iterate's
displacement from the affine set, and every check, the first included, tries
the polished point first and otherwise advances s by _CHECK_EVERY sweeps and
tries the certificate y = (A A^T)^+ A s, scaled to pairing -1 and
re-verified from the program's block maps before anything is reported.

Near-feasible points are polished by rank-restricted Gauss-Newton: each
block's rank is guessed from its spectrum with a residual-scaled cut, PSD
blocks are refactored as Y Y-adjoint, and the factors are refined against
the equality rows. The Jacobian of each factor is built in closed form, as
one stack of the derivative matrices of Y -> Y Y-adjoint (the Burer-Monteiro
factorization) mapped through hvec and the block's columns of A.
Candidates lie in the cone by construction, so success lands equality
residuals near 1e-14, which downstream extraction steps rely on; failed
guesses are discarded. FEASIBLE is reported only for a polished point; a
point the polish cannot finish is swept further.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

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

# Primal sweeps between checks, and the Farkas iterate's dual sweeps at each
# check the polish does not end. The Farkas iterate is seeded from the primal
# displacement at the first check, so a short interval seeds it cruder: at
# 10, ix q=1 `build_dual` eps 0.1 seed 0 is still UNDECIDED at 5 000 sweeps
# (certified at 80-100 for 20-100). At 20 and 50 the benchmark's grid round
# took +2 % and -9 % of its time at 100 (medians of 3): no clear gain.
_CHECK_EVERY = 100
# Primal sweep budget before UNDECIDED: over ten times the 4 300 sweeps of
# the slowest certificate in the tests (four Haar qubit unitaries, q = 2).
_MAX_ITERS = 50000
# Relaxation of both projection steps, in (0, 2); at 2 each step reflects.
_OVER_RELAXATION = 1.8
# Room a certificate's adjoint image may leave outside the cone, per unit
# of its pairing.
_CERT_TOL = 1e-7
# Largest multiplier norm per unit of pairing: beyond it _CERT_TOL's room is
# below the double-precision rounding of the adjoint image (1e-7 / 1e8).
_CERT_NORM_CAP = 1e8
# Cone-projected residual at or below which a check tries the face polish: at
# the first check most feasible fixture cells sit at 0.8-1.5e-2 (weyl3 near
# 3e-2) and polish there, while certificate cells stay above 0.6 and the
# Haar-pairs instance near 0.14.
_POLISH_GATE = 1e-1
# FEASIBLE means polished: reconstruction's 1e-6 Gram check turned a 3e-8
# unpolished residual into a 2.8e-5 miss.
_POLISHED_TOL = 1e-10
# Rank guess: eigenvalues below this fraction of a block's largest are
# taken as spurious.
_FACE_REL_TOL = 1e-5
# Absolute floor of that cut, so a block near zero guesses rank zero.
_FACE_ABS_FLOOR = 1e-7
# The cut also sits at this multiple of the residual, since spurious
# eigenvalues shrink with the residual while true ones stay put.
_FACE_RES_FACTOR = 10.0
# Gauss-Newton steps per rank guess: converging guesses on the fixture grid
# take at most 25, so the cap only stops a guess that creeps.
_GN_MAX_STEPS = 40
# Relative distance of b from the range of A that makes the program
# infeasible outright: far above the rounding of the 1e-12-cut Gram
# pseudo-inverse.
_RANGE_TOL = 1e-9


class SolverError(RuntimeError):
    """Raised for malformed programs or internal solver failures."""


@dataclass
class SolverConfig:
    """Seed of the random starting point; everything else is fixed."""

    seed: int = 0


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

    def within(self, tol: float) -> bool:
        return self.max_residual <= tol and self.min_block_eig >= -tol


@dataclass
class FeasibilityOutcome:
    status: str  # FEASIBLE | INFEASIBLE_WITH_CERTIFICATE | UNDECIDED
    point: dict[str, np.ndarray] | None
    certificate: dict[str, np.ndarray] | None
    residuals: dict[str, float]
    iterations: int


# ---------------------------------------------------------------------------
# Isometric real coordinates for Hermitian matrices.

class _Coords(NamedTuple):
    """Positions and scales between hvec coordinates and a matrix's float view.

    The float view of a C-contiguous d x d complex matrix holds Re m[i, j] at
    2 (i d + j) and Im m[i, j] right after it. hvec gathers the view at `at`
    and multiplies by `scale`; unhvec gathers the coordinates at `src`,
    multiplies by `inv_scale` and zeroes the view at `diag_imag`.
    """

    at: np.ndarray  # view position of each coordinate: diagonal, upper Re, upper Im
    scale: np.ndarray  # 1 on the diagonal, sqrt 2 off it
    src: np.ndarray  # the coordinate behind each view position
    inv_scale: np.ndarray  # 1 on the diagonal, 1/sqrt 2 off it, -1/sqrt 2 on lower Im
    diag_imag: np.ndarray  # view positions of the diagonal's imaginary parts


@functools.lru_cache(maxsize=None)
def _coords(d: int) -> _Coords:
    """The coordinate table of d x d matrices, built once per d."""
    i, j = np.triu_indices(d, 1)
    k = len(i)
    diag = 2 * (d + 1) * np.arange(d)
    up, low = 2 * (i * d + j), 2 * (j * d + i)
    off = np.arange(d, d + k)
    at = np.concatenate([diag, up, up + 1])
    src = np.zeros(2 * d * d, dtype=np.intp)
    inv_scale = np.zeros(2 * d * d)
    # the reciprocal: a multiply by it rounds each part as numpy's complex
    # division by sqrt 2 does
    r = 1.0 / math.sqrt(2.0)
    for pos, coord, c in ((diag, np.arange(d), 1.0), (up, off, r), (up + 1, off + k, r),
                          (low, off, r), (low + 1, off + k, -r)):
        src[pos] = coord
        inv_scale[pos] = c
    table = _Coords(at, np.concatenate([np.ones(d), np.full(2 * k, math.sqrt(2.0))]),
                    src, inv_scale, diag + 1)
    for arr in table:
        arr.flags.writeable = False
    return table


def hvec(m: np.ndarray) -> np.ndarray:
    """Flatten a Hermitian matrix so that tr(XY) becomes a real dot product.

    The coordinates are the diagonal, then sqrt 2 times the real and then the
    imaginary parts of the strict upper triangle, row-major: one gather of
    the matrix's float view through the `_coords` table. Applies to the last
    two axes of m, so a stack of matrices gives the stack of their
    coordinate vectors.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    d = m.shape[-1]
    t = _coords(d)
    out = np.take(m.reshape(m.shape[:-2] + (d * d,)).view(float), t.at, axis=-1)
    out *= t.scale
    return out


def unhvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of hvec, applied along the last axis of v.

    One gather of v through the `_coords` table fills the float view of the
    matrix: (a + ib) / sqrt 2 above the diagonal, its conjugate below.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (d * d,):
        raise ValueError(f"coordinate vector of shape {v.shape} is not {d}x{d}")
    t = _coords(d)
    out = np.take(v, t.src, axis=-1)
    out *= t.inv_scale
    out[..., t.diag_imag] = 0.0
    return out.view(complex).reshape(v.shape[:-1] + (d, d))


def assemble(blocks: list[Block], rows: list[Row]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Dense coordinate form of the rows: (A, b, block column offsets).

    Column block j holds hvec coordinates of block j, row slice i those of
    row i, so A x - b stacks hvec(row value - rhs) over the rows. Column k
    of a term is the image of the k-th Hermitian basis matrix, unhvec(e_k);
    each map call takes a stack of d of them.
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
            # d basis matrices per call; a stack of all d*d raises peak memory
            for k in range(0, d * d, d):
                a[sl, co + k : co + k + d] += hvec(m.apply(unhvec(np.eye(d, d * d, k), d))).T
    return a, b, block_off[:-1]


# ---------------------------------------------------------------------------
# Equality-form engine.

def _split(items: list, v: np.ndarray) -> dict[str, np.ndarray]:
    """Cut coordinates into one Hermitian matrix per block or row, by name."""
    out = {}
    offs = itertools.accumulate((it.dim**2 for it in items), initial=0)
    for it, off in zip(items, offs):
        out[it.name] = unhvec(v[off : off + it.dim**2], it.dim)
    return out


def _row_residuals(rows: list[Row], r: np.ndarray) -> dict[str, float]:
    """Norm of each row's slice of the residual A x - b."""
    offs = itertools.accumulate((row.dim**2 for row in rows), initial=0)
    return {row.name: float(np.linalg.norm(r[off : off + row.dim**2]))
            for row, off in zip(rows, offs)}


class _Engine:
    """Primal and Farkas projections for A x = b over the blocks, on one Gram pseudo-inverse."""

    def __init__(self, blocks: list[Block], a: np.ndarray, b: np.ndarray, block_off: list[int]):
        self.blocks = blocks
        self.a = a
        self.b = b
        self.block_off = block_off
        self.n_rows, self.n_cols = a.shape
        # The cone step's packed buffer holds the complex matrices of all PSD
        # blocks, grouped by ascending dimension, so the 1x1 blocks lead. Its
        # float view is filled from x in one gather through unhvec's `_coords`
        # table shifted to each block's columns, and read back in one gather
        # through hvec's table shifted to each matrix's place and one scatter;
        # a group of k blocks of dimension d is a zero-copy (k, d, d) slice.
        # The free blocks' coordinates are the ones the dual cone zeroes.
        groups: dict[int, list[int]] = {}
        self._free = np.zeros(self.n_cols, dtype=bool)
        for blk, off in zip(blocks, self.block_off):
            if blk.psd:
                groups.setdefault(blk.dim, []).append(off)
            else:
                self._free[off : off + blk.dim**2] = True
        src, inv_scale, diag_imag, at, scale, dst = ([] for _ in range(6))
        self._cone_slices = []  # (k, d, start, stop) in the buffer, for d > 1
        self._half_line = 0  # float slots of the 1x1 blocks
        start = 0
        for d in sorted(groups):
            t = _coords(d)
            offs = np.array(groups[d])[:, None]
            k, size = len(offs), d * d
            place = 2 * (start + size * np.arange(k))[:, None]  # each matrix in the float view
            src.append(offs + t.src)
            inv_scale.append(np.tile(t.inv_scale, k))
            diag_imag.append(place + t.diag_imag)
            at.append(place + t.at)
            scale.append(np.tile(t.scale, k))
            dst.append(offs + np.arange(size))
            if d == 1:
                self._half_line = 2 * k
            else:
                self._cone_slices.append((k, d, start, start + k * size))
            start += k * size

        def flat(parts: list[np.ndarray], dtype=np.intp) -> np.ndarray:
            # 1-D, so that every gather returns a contiguous array
            return np.concatenate([np.zeros(0, dtype)] + [part.ravel() for part in parts])

        self._cone_src, self._cone_diag_imag = flat(src), flat(diag_imag)
        self._cone_at, self._cone_dst = flat(at), flat(dst)
        self._cone_inv_scale, self._cone_scale = flat(inv_scale, float), flat(scale, float)

        w, v = np.linalg.eigh(a @ a.T)
        cut = w.max(initial=0.0) * 1e-12 + 1e-300
        self._pinv_v = v
        self._pinv_w = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
        # x + A^T (A A^T)^+ (b - A x) projects onto {A x = b}
        self._lift = a.T @ (v * self._pinv_w) @ v.T
        # The row-space point whose pairing with A^T y is b^T y.
        self._x0 = self._lift @ b

    def pinv_gram(self, r: np.ndarray) -> np.ndarray:
        return self._pinv_v @ ((self._pinv_v.T @ r) * self._pinv_w)

    def project_affine(self, x: np.ndarray) -> np.ndarray:
        return x + self._lift @ (self.b - self.a @ x)

    def project_cone(self, x: np.ndarray) -> np.ndarray:
        """Clip the spectrum of every PSD block: one gather into the packed
        buffer, one stacked eigh per dimension, one gather and scatter back."""
        f = x[self._cone_src] * self._cone_inv_scale
        f[self._cone_diag_imag] = 0.0
        packed = f.view(complex)
        g = np.empty_like(f)
        projected = g.view(complex)
        # a 1x1 PSD block is the half-line; its imaginary slot is zero
        np.maximum(f[: self._half_line], 0.0, out=g[: self._half_line])
        for k, d, lo, hi in self._cone_slices:
            w, v = np.linalg.eigh(packed[lo:hi].reshape(k, d, d))
            np.maximum(w, 0.0, out=w)
            np.matmul(v * w[..., None, :], v.conj().swapaxes(-1, -2),
                      out=projected[lo:hi].reshape(k, d, d))
        out = x.copy()
        out[self._cone_dst] = g[self._cone_at] * self._cone_scale
        return out

    def project_dual_affine(self, s: np.ndarray) -> np.ndarray:
        """Project onto {s in range(A^T): x0^T s = -1}."""
        r = self._lift @ (self.a @ s)
        return r - ((1.0 + self._x0 @ r) / (self._x0 @ self._x0)) * self._x0

    def project_dual_cone(self, s: np.ndarray) -> np.ndarray:
        """Clip the PSD blocks and zero the free ones."""
        out = self.project_cone(s)
        out[self._free] = 0.0
        return out


def _assemble_factors(eng: _Engine, ys: list[np.ndarray]) -> np.ndarray:
    x = np.zeros(eng.n_cols)
    for y, b, off in zip(ys, eng.blocks, eng.block_off):
        m = y @ y.conj().T if b.psd else y
        x[off : off + b.dim * b.dim] = hvec(m)
    return x


def _step_factors(blocks: list[Block], ys: list[np.ndarray], step: np.ndarray) -> list[np.ndarray]:
    out = []
    k = 0
    for b, y in zip(blocks, ys):
        if b.psd:
            d, r = y.shape
            seq = step[k : k + 2 * d * r].reshape(r, d, 2)
            out.append(y + (seq[..., 0] + 1j * seq[..., 1]).T)
            k += 2 * d * r
        else:
            d = y.shape[0]
            out.append(y + unhvec(step[k : k + d * d], d))
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


def _gauss_newton(eng: _Engine, ys: list[np.ndarray]) -> np.ndarray:
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
    for _ in range(_GN_MAX_STEPS):
        if rn <= floor:
            break
        jac = np.hstack([np.zeros((eng.n_rows, 0))] + [
            _factor_jacobian(y, a_blk) if b.psd else a_blk
            for b, y, a_blk in zip(eng.blocks, ys, a_blks)
        ])
        if not jac.shape[1]:
            break
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        t = 1.0
        improved = False
        for _ in range(8):
            trial = _step_factors(eng.blocks, ys, t * step)
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


def _guess_factors(eng: _Engine, x: np.ndarray, extra: int, res: float) -> list[np.ndarray]:
    """Factor each block at the rank its spectrum suggests, plus headroom.

    Spurious eigenvalues shrink along with the residual while true ones stay
    put, so a cut at _FACE_RES_FACTOR times the residual separates them long
    before the iterates themselves converge. `extra` appends that many gently
    seeded directions from just below the cut; refinement can always shrink
    them back to zero, but a missing direction leaves a rank-deficient dead
    end.
    """
    ys: list[np.ndarray] = []
    for b, off in zip(eng.blocks, eng.block_off):
        m = unhvec(x[off : off + b.dim * b.dim], b.dim)
        if not b.psd:
            ys.append(m)
            continue
        w, v = np.linalg.eigh(m)
        cut = max(max(w[-1], 0.0) * _FACE_REL_TOL + _FACE_ABS_FLOOR, _FACE_RES_FACTOR * res)
        keep = w > cut
        y = v[:, keep] * np.sqrt(w[keep])
        if extra:
            rest = np.flatnonzero(~keep)
            take = rest[-extra:]
            if take.size:
                seed = math.sqrt(max(res, 1e-12))
                y = np.concatenate([y, v[:, take] * seed], axis=1)
        ys.append(y)
    return ys


def _face_polish(eng: _Engine, x: np.ndarray) -> np.ndarray:
    """Polish a near-feasible point to machine precision at guessed block ranks.

    Two rank guesses, leanest first: the exact guess gives quadratic
    convergence, while the one padded by a direction costs more per step but
    avoids the rank-deficient local minima a too-lean factorization can wedge
    into. A wrong guess is harmless because only improvements are kept.
    """

    def residual(v: np.ndarray) -> float:
        return float(np.linalg.norm(eng.a @ v - eng.b, ord=np.inf))

    best, best_res = x, residual(x)
    for extra in (0, 1):
        if best_res < 1e-13:
            break
        ys = _guess_factors(eng, best, extra, best_res)
        cand = _gauss_newton(eng, ys)
        res = residual(cand)
        if res < best_res:
            best, best_res = cand, res
    return best


# ---------------------------------------------------------------------------
# Program transforms.

def _equality_form(prog: ConicFeasibilityProgram) -> tuple[list[Block], list[Row]]:
    """Slacken PSD rows and pin the strict row; returns (blocks, rows).

    The slack blocks follow the program's own blocks, so a program whose
    rows are all equalities comes back unchanged.
    """
    blocks = list(prog.blocks)
    rows: list[Row] = []
    strict_seen = False
    for r in prog.rows:
        if r.sense == "eq":
            rows.append(r)
        elif r.sense == "psd":
            blocks.append(Block(f"row_slack_{r.name}", r.dim, True))
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
    return blocks, rows


def _certify(
    blocks: list[Block], rows: list[Row], multipliers: dict[str, np.ndarray]
) -> dict[str, np.ndarray] | None:
    """Scale multipliers to pairing -1 and re-verify them from the block maps.

    Returns the scaled certificate, or None when the pairing with the
    right-hand side is not negative, a scaled multiplier's norm exceeds
    _CERT_NORM_CAP, or an adjoint image leaves the dual cone (PSD on PSD
    blocks, zero on free blocks) by more than _CERT_TOL.
    """
    pairing = sum(float(np.trace(np.asarray(r.rhs) @ multipliers[r.name]).real) for r in rows)
    if pairing >= -1e-15:
        return None
    cert = {r.name: multipliers[r.name] / -pairing for r in rows}
    if max(float(np.linalg.norm(y)) for y in cert.values()) > _CERT_NORM_CAP:
        return None
    images: dict[int, np.ndarray] = {}
    for r in rows:
        for bj, m in r.terms:
            images[bj] = images.get(bj, 0) + m.adjoint().apply(cert[r.name])
    for j, img in images.items():
        if blocks[j].psd:
            if np.linalg.eigvalsh(hermitize(img))[0] < -_CERT_TOL:
                return None
        elif np.linalg.norm(img) > _CERT_TOL:
            return None
    return cert


# ---------------------------------------------------------------------------
# The decision loop.

_Projection = Callable[[np.ndarray], np.ndarray]


def _run_ap(affine: _Projection, cone: _Projection, x: np.ndarray, iters: int) -> np.ndarray:
    for _ in range(iters):
        y = x + _OVER_RELAXATION * (affine(x) - x)
        x = y + _OVER_RELAXATION * (cone(y) - y)
    return x


def solve(prog: ConicFeasibilityProgram, cfg: SolverConfig | None = None) -> FeasibilityOutcome:
    """Decide feasibility; deterministic for a fixed config seed.

    FEASIBLE comes with a polished point meeting every row within
    _POLISHED_TOL; INFEASIBLE_WITH_CERTIFICATE comes with verified Farkas
    multipliers keyed by row name. UNDECIDED is returned only once the
    iteration budget is exhausted with neither witness.
    """
    cfg = cfg or SolverConfig()
    blocks, rows = _equality_form(prog)
    eng = _Engine(blocks, *assemble(blocks, rows))
    rng = np.random.default_rng(cfg.seed)

    def residuals(x: np.ndarray) -> dict[str, float]:
        return _row_residuals(rows, eng.a @ x - eng.b)

    # Right-hand side off the affine range is already a finished certificate.
    r0 = eng.b - eng.a @ eng._x0
    nr0 = float(np.linalg.norm(r0))
    if nr0 > _RANGE_TOL * max(1.0, float(np.linalg.norm(eng.b))):
        cert = _certify(blocks, rows, _split(rows, -r0 / nr0**2))
        if cert is not None:
            return FeasibilityOutcome(
                "INFEASIBLE_WITH_CERTIFICATE", None, cert, residuals(np.zeros(eng.n_cols)), 0
            )

    x = 0.1 * rng.standard_normal(eng.n_cols)
    s = None  # the Farkas iterate, seeded at the first check
    for it in range(_CHECK_EVERY, _MAX_ITERS + 1, _CHECK_EVERY):
        x = _run_ap(eng.project_affine, eng.project_cone, x, _CHECK_EVERY)
        cand = eng.project_cone(x)
        res = residuals(cand)
        if max(res.values(), default=0.0) <= _POLISH_GATE:
            polished = _face_polish(eng, cand)
            pres = residuals(polished)
            if max(pres.values(), default=0.0) <= _POLISHED_TOL:
                # the slack blocks come last, so the program's own blocks cut first
                point = _split(prog.blocks, polished)
                return FeasibilityOutcome("FEASIBLE", point, None, pres, it)
        if s is None:
            # cand - P_L(cand) = A^T w tends to -v for the minimal gap vector
            # v from the affine set to the cone (Bauschke & Borwein 1993), so
            # it sits near the dual cone with pairing b^T w near -|v|^2 < 0.
            s = cand - eng.project_affine(cand)
        s = _run_ap(eng.project_dual_affine, eng.project_dual_cone, s, _CHECK_EVERY)
        cert = _certify(blocks, rows, _split(rows, eng.pinv_gram(eng.a @ eng.project_dual_cone(s))))
        if cert is not None:
            return FeasibilityOutcome("INFEASIBLE_WITH_CERTIFICATE", None, cert, res, it)
    return FeasibilityOutcome("UNDECIDED", None, None, residuals(eng.project_cone(x)), _MAX_ITERS)


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
        diff = prog.row_value(r, vals) - np.asarray(r.rhs, dtype=complex)
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
