"""Feasibility decisions for block conic programs.

`solve` decides two kinds of program. An existence program, whose rows are
all equalities on PSD blocks, is decided directly. A witness program, which
`programs._farkas_alternative` generates from an existence program, is
decided through that existence program, and the two answers swap: a
polished existence point X is a certificate of the witness program
(multiplier -X_B on the row of each block B, and 1 on the strict row), and
an existence certificate is a witness point as it stands. Any other program
is rejected with SolverError. The decision is a function of the read-only
existence program and the solver seed alone, so it is made once per seed:
`_decided` keeps `_decide`'s answer in the existence program's `derived`
dict (`_decisions`), with its point and certificate arrays read-only, and
every later solve of either program at that seed reads it, with no sweep,
polish or certification. Each solve returns a new outcome with dicts of its
own, so one caller's edits reach no other; a decision that raises is not
kept, and raises again when asked again.

The method is relaxed alternating projections between the affine set
{A x = b} and the product of PSD cones, in a real coordinate system where
each Hermitian block is flattened isometrically (trace pairing = dot
product). `assemble` builds the dense A and b from the program rows, each
term's part with stacked calls of its map on Hermitian basis matrices: on
the block's basis (columns) when the row is at least as large as the block,
on the row's basis through the adjoint (rows) when it is smaller, in chunks
of at most _ASSEMBLE_BUDGET complex entries. A program is read-only, so it
is assembled once (`_assembly`), and the engine on that assembly is built
once (`_engine`): both stay in the program's `derived` dict, read-only,
with its witness program, and every later solve and SDPA export of the
program reads them. The SDPA export reads the same (A, b), and the polish
reads its row matrices through `_row_matrices`, built at the first polish
of the engine.
The coordinate maps `hvec`/`unhvec` behind both are one gather each, between
the coordinates and the float view of the complex matrix, through a table
of positions and scales built once per matrix dimension; they act on stacks
of matrices and vectors along the leading axes. The cone step reads every
block in one gather, through those tables, into one packed buffer of
complex matrices grouped by dimension; each group is projected by one call
of LAPACK's stacked eigh gufunc (`numpy.linalg._umath_linalg.eigh_lo`, the
routine `numpy.linalg.eigh` calls) on a zero-copy view of its slice,
eigenvalue clipping and a product written straight into a second packed
buffer (1x1 blocks are clipped at zero), and one gather in column order and
one multiply give the coordinates back: the arithmetic of unhvec, eigh and
hvec on the same floats, in a fixed few numpy calls per step instead of
about a dozen per dimension. The gufunc skips the Python wrapper's checks,
casts and error state on every call. It flags non-convergence as an invalid
value, so each chunk of sweeps, and each cone step of a check, runs under
one error state that raises it as LinAlgError, as the wrapper did. LAPACK
returns NaN eigenvalues for a 2x2 NaN block without the flag, so a check
whose plain point's residual is not finite raises LinAlgError too. It is
private numpy API: the one name `_eigh` binds it, or `numpy.linalg.eigh`
on a numpy without it, so the cone step keeps one call site either way.

A program whose data are real is decided on its real coordinates. `_decide`
tests the assembled (A, b) once: it splits when no entry of A couples a real
coordinate (a diagonal or upper real part) to an imaginary one (an upper
imaginary part) of a block or row, and b has no imaginary row coordinate.
Complex conjugation negates exactly the imaginary coordinates, so on a split
program it maps the affine set, the PSD cone and the Farkas conditions onto
themselves; the mean of a point and its conjugate is then a point with zero
imaginary parts, and likewise for a certificate (symmetry reduction;
Gatermann & Parrilo, J. Pure Appl. Algebra 2004). The real rows and columns
of A alone therefore decide the program. The engine runs on them with each
block's d(d+1)/2 real symmetric coordinates: a float packed buffer and float
`eigh` in the cone step, and real d x r factors in the polish, whose
Jacobian has half the columns. Points and certificates expand back to
complex blocks with zero imaginary parts, so `verify_point`, `_certify`,
reconstruction and the SDPA export all read the full program, and a real
problem's rebuilt protocol is real. A real problem on its boundary, whose
real polish stalls within _STALL of a point it cannot finish, is finished
by the polish padding again on the same coordinates (see `_face_polish`),
so the decision never leaves them. The fixtures split at every q; the
Pauli and Weyl families split at q = 0 only.

Infeasibility is reported only with a Farkas certificate: one multiplier
matrix per row whose adjoint image is PSD on every block, and whose pairing
with the right-hand side is -1; that is a point of the witness program. In
hvec coordinates the adjoint is the transpose, so the image s = A^T y is a
point of the row space of A, and for b in the range of A, b^T y = x0^T s
with x0 = A^T (A A^T)^+ b. The certificate search is then the same relaxed
alternating projection, on the same pseudo-inverse, between
{s in range(A^T): x0^T s = -1} and the PSD cone, which is its own dual.
Both searches run in one loop, checked at 1, 2, 4, ... sweeps and once more
at the budget _MAX_ITERS, so a cell is decided within twice the sweeps it
needs. Each check first takes the plain point p = P_K(P_A x) of the primal
iterate x, the cone step of its affine projection, and returns it FEASIBLE
as it stands when |A p - b| <= _POLISHED_TOL, which bounds every row's
residual. Alternating projections converge linearly on a program with an
interior (Lewis, Luke & Malick, Found. Comput. Math. 2009): at solver seed
0 the plain point of every fixture and family cell with one meets its rows
to 1e-13 within 1-8 sweeps. Holding the exact program's shares on the span
q queries reach (`programs.reachable_span`) gives the phase-oracle cells at
q = 1 an interior: deutsch at eps 0.1 is decided at 4 sweeps and xor12
(3 bits) at 8, on solver seeds 0-9 and 0-19, with no polish. With no
interior they converge sublinearly (Drusvyatskiy, Li & Wolkowicz, Math.
Program. 2017), and those cells are left to the polish: at eps 0.1 the
exact programs of const, deutsch and xor12 at q=2, whose state blocks have
none, and all-equal (3 bits) at q=1, which sits on its boundary, and q=2.
The checks before c = _FIRST_CHECK sweeps try the plain
point only. From c on each is a full check, which goes on to the cone point
cand = P_K(x), tries it polished, then one certificate, so B sweeps make
about log2(B/c) full checks. Sweeps run in chunks leave x as one chunk
does, so the early checks change no float that a full check reads.
The primal iterate's displacement from the affine set, d = cand - P_L(cand),
tends to -v for the minimal gap vector v from the affine set to the cone
(Bauschke & Borwein 1993), near the dual cone with pairing near -|v|^2 < 0.
So every full check screens d's multipliers y = (A A^T)^+ A P(d), P the
cone step: when b^T y < 0 and A^T y lies within _POLISHED_TOL |b^T y| of
the cone (`certifies`), it tries them unswept. Otherwise the Farkas iterate
s, seeded from the first full check's d, advances by the sweeps the primal
iterate made since the last full check, and the check tries
y = (A A^T)^+ A P(s). The certificate is scaled to pairing -1 and
re-verified by `verify_point` as a point of the witness program before
anything is reported; a witness program's answer reuses that report. The
infeasible relaxed programs of the fixtures and families at q = 0, eps > 0
certify unswept at the first full check, and the rotations near their
boundary at a later one (theta 0.305, q=3, eps 0.1: 4 096 sweeps; the
Farkas iterate alone does not finish it within the budget).

Near-feasible points are polished by rank-restricted Gauss-Newton: each
block's rank is guessed from its spectrum with a residual-scaled cut, the
blocks are refactored as Y Y-adjoint (the Burer-Monteiro factorization),
and the factors are refined against the equality rows. The polish works on
the cone step's packed buffer. The rank guess reads every spectrum through
the cone step's gather and one stacked `eigh` per dimension; a 1x1 block
is its own eigenvalue. All factors live in one flat real vector, each
block's factor a view of its part, so a trial is theta + t * step. A trial
point writes each Y Y-adjoint into the block's slot of the packed buffer
(`matmul` with `out=`) and reads the coordinates back through the cone
step's gather. The Jacobian is written in place into one array
per Gauss-Newton run, and reads the row side of A: on a block each scalar
row is tr(C_k X) with C_k = unhvec(row k of the block's columns), the SDPA
export's constraint matrices, built once per engine by `_row_matrices`
(the export gathers their entries from A directly);
the row's rate along a factor step Delta is 2 Re tr(Y-adjoint C_k Delta),
so the factor's Jacobian is 2 [Re, Im](C_k Y) on the rows that read the
block. For all rank-one 1x1 blocks at once, the products and the Jacobian
columns are written elementwise, with the arithmetic numpy's `matmul` does
on 1x1 operands. Each step is the per-block polish's arithmetic on the
same floats, so the polished points are the same bit for bit. Candidates
lie in the cone by construction, so success lands equality residuals near
1e-14, which downstream extraction steps rely on; failed guesses are
discarded. An existence program is FEASIBLE only at a point that meets
every row within _POLISHED_TOL, a plain point or a polished one; a point
the polish cannot finish is swept further. A witness program's
FEASIBLE point is a certificate, so it holds to _CERT_TOL.
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
from .programs import (Block, ConicFeasibilityProgram, Row, _apply_groups, _derived,
                       _farkas_alternative, _stack_index)

# LAPACK's stacked eigh as numpy's own wrapper calls it, without the
# wrapper's per-call checks, casts and error state; a numpy without this
# private gufunc runs the cone step through the wrapper instead
_eigh = getattr(getattr(np.linalg, "_umath_linalg", None), "eigh_lo", np.linalg.eigh)

__all__ = [
    "SolverConfig",
    "PointReport",
    "FeasibilityOutcome",
    "SolverError",
    "solve",
    "verify_point",
]

# Sweeps before the first full check, which tries the polish and a
# certificate; the checks before it, at 1, 2, 4, 8 and 16 sweeps, try the
# plain point only. The cells that reach the polish have no interior: on
# the fixtures and the 3-bit problems (solver seeds 0-9), const, deutsch,
# xor12 and all-equal at q=2, xor12 at q=1 eps 0, and all-equal at q=1 eps
# 0.1. Their cone points are cruder before 32 sweeps: at 16, the exact
# programs at eps 0.1 of deutsch, xor12 and all-equal at q=2 and of
# all-equal at q=1 sit at 8.2e-2 to 0.15, above _POLISH_GATE, and at 8
# every such cell sits at 0.12 or above.
_FIRST_CHECK = 32
# Primal sweep budget before UNDECIDED, and the last check: over ten times
# the 4 096 sweeps of the slowest certificate in the tests (the rotation
# I against R(0.305), q = 3, eps 0.1, `build_primal`).
_MAX_ITERS = 50000
# Relaxation of both projection steps, in (0, 2); at 2 each step reflects.
_OVER_RELAXATION = 1.8
# Room a certificate, as a point of the witness program, may leave outside
# its rows and blocks, per unit of its pairing. A witness program's FEASIBLE
# point is such a certificate, so it holds to this, not to _POLISHED_TOL.
_CERT_TOL = 1e-7
# Largest multiplier norm per unit of pairing: beyond it _CERT_TOL's room is
# below the double-precision rounding of the adjoint image (1e-7 / 1e8).
_CERT_NORM_CAP = 1e8
# Cone-projected residual at or below which a full check tries the face
# polish. At the first full check the feasible fixture cells that the plain
# point leaves undecided sit at 5.9e-3 to 1.8e-2 (solver seeds 0-9), those
# of the 3-bit problems at 9.6e-4 to 3.2e-2, and all-equal (3 bits) q=1 eps
# 0.1 at 9.8e-3 to 1.6e-2 (seeds 0-99), while certificate cells stay above
# 0.95 and the Haar-pairs instance near 0.23. With its shares as full 8x8
# blocks, off the span one query reaches, xor12 (3 bits) q=1 eps 0.1 sat at
# 0.06-0.07 at 64 sweeps, where Gauss-Newton crept to its step cap on 6 of
# 10 seeds; on the span its plain point meets the rows at 8 sweeps.
_POLISH_GATE = 5e-2
# FEASIBLE means every row met within this, by the plain point or the
# polish: reconstruction's 1e-6 Gram check turned a 3e-8 residual into a
# 2.8e-5 miss.
_POLISHED_TOL = 1e-10
# A polish whose lean and padded rungs land at or below this, but above
# _POLISHED_TOL, has stalled next to a point it cannot finish for want of a
# factor direction, and pads again (see `_face_polish`). all-equal (3 bits)
# q=1 eps 0.1 sits on its boundary (no Slater point). With its shares as
# full 8x8 blocks, over solver seeds 0-99 its real form's padded rung
# finished 17 polishes, landed at 1.5e-10 to 4.5e-7 in 87 and at 2.5e-4 or
# above in 80; padding again decided every seed (seed 0 at 128 sweeps:
# 2.4e-7, then 4.2e-10, then 6.2e-11). On the span one query reaches, its
# lean rung finishes at the first full check on every seed 0-99, and no
# solve in the tests, the CI commands or the benchmark pads again; the
# polish tests reach the window on the full-block form. The infeasible rotations
# near their boundary (theta 0.3 and 0.305, q=3, eps 0.1) polish to 6.5e-4
# to 3.4e-3, above the window, so they pad no more.
_STALL = 1e-5
# Rank guess: eigenvalues below this fraction of a block's largest are
# taken as spurious.
_FACE_REL_TOL = 1e-5
# The cut also sits at this multiple of the residual, since spurious
# eigenvalues shrink with the residual while true ones stay put.
_FACE_RES_FACTOR = 10.0
# Gauss-Newton steps per rank guess: converging guesses on the fixture grid
# take at most 22, and on the 3-bit problems at q <= 2 at most 26 (solver
# seeds 0-9), so the cap only stops a guess that creeps, and decides how far
# it gets. A protocol rebuilt from a point loses success roughly in step
# with the point's residual: on all-equal (3 bits) q=1 eps 0.1 with its
# shares as full 8x8 blocks, solver seeds 0-19, the worst seed (3) polished
# to 3.9e-11, 2.1e-11, 1.0e-11 and 1.2e-12 at caps of 40, 60, 100 and 150,
# and its protocol succeeded with 0.9 minus 1.1e-6, 8.9e-7, 5.4e-7 and
# 2.0e-7. On the span one query reaches the cell polishes in 4 steps to
# about 1e-15, and its protocols succeed with 0.9 to within 3e-15 on seeds
# 0-99.
_GN_MAX_STEPS = 100
# Relative distance of b from the range of A that makes the program
# infeasible outright: far above the rounding of the 1e-12-cut Gram
# pseudo-inverse.
_RANGE_TOL = 1e-9
# Complex entries per map call in `assemble`, a basis matrix and its image
# counted together. The cut bounds the stacks a map call builds: pauli2
# (two-qubit Pauli identification) `build_primal` at eps 0.1 reads its 64x64
# state blocks from 16x16 chain rows through the adjoint, one 64x64 image per
# basis matrix of the row. With one BLAS thread, at q=2 and q=3 assembly
# peaks 11.7 and 11.5 MiB beyond A with the cut, 49.0 MiB without it, and
# takes 66-81 and 104-111 ms against 83-100 and 141-145 ms (medians of 15).
_ASSEMBLE_BUDGET = 1 << 18


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

    # np.max and np.min keep a NaN, which Python's max and min drop after a number
    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.row_residuals.values()), initial=0.0))

    @property
    def min_block_eig(self) -> float:
        eigs = list(self.block_min_eigs.values())
        return float(np.min(eigs)) if eigs else 0.0

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
    2 (i d + j) and Im m[i, j] right after it; that of a real matrix holds
    m[i, j] at i d + j. hvec gathers the view at `at` and multiplies by
    `scale`; unhvec gathers the coordinates at `src`, multiplies by
    `inv_scale` and zeroes the view at `diag_imag`.
    """

    at: np.ndarray  # view position of each coordinate: diagonal, upper Re, upper Im
    scale: np.ndarray  # 1 on the diagonal, sqrt 2 off it
    src: np.ndarray  # the coordinate behind each view position
    inv_scale: np.ndarray  # 1 on the diagonal, 1/sqrt 2 off it, -1/sqrt 2 on lower Im
    diag_imag: np.ndarray  # view positions of the diagonal's imaginary parts


@functools.lru_cache(maxsize=None)
def _coords(d: int, real: bool = False) -> _Coords:
    """The coordinate table of d x d matrices, built once per d: Hermitian,
    or real symmetric, whose coordinates are the Hermitian ones without the
    imaginary parts."""
    i, j = np.triu_indices(d, 1)
    k = len(i)
    w = 1 if real else 2  # floats per entry
    diag = w * (d + 1) * np.arange(d)
    up, low = w * (i * d + j), w * (j * d + i)
    off = np.arange(d, d + k)
    at = np.concatenate([diag, up] if real else [diag, up, up + 1])
    src = np.zeros(w * d * d, dtype=np.intp)
    inv_scale = np.zeros(w * d * d)
    # the reciprocal: a multiply by it rounds each part as numpy's complex
    # division by sqrt 2 does
    r = 1.0 / math.sqrt(2.0)
    parts = [(diag, np.arange(d), 1.0), (up, off, r), (low, off, r)]
    if not real:
        parts += [(up + 1, off + k, r), (low + 1, off + k, -r)]
    for pos, coord, c in parts:
        src[pos] = coord
        inv_scale[pos] = c
    table = _Coords(at, np.concatenate([np.ones(d), np.full(len(at) - d, math.sqrt(2.0))]),
                    src, inv_scale, np.zeros(0, dtype=np.intp) if real else diag + 1)
    for arr in table:
        arr.flags.writeable = False
    return table


def _n_coords(d: int, real: bool = False) -> int:
    """Coordinates of a d x d Hermitian, or real symmetric, matrix."""
    return d * (d + 1) // 2 if real else d * d


def hvec(m: np.ndarray) -> np.ndarray:
    """Flatten a Hermitian matrix so that tr(XY) becomes a real dot product.

    The coordinates are the diagonal, then sqrt 2 times the real and then the
    imaginary parts of the strict upper triangle, row-major: one gather of
    the matrix's float view through the `_coords` table. Applies to the last
    two axes of m, so a stack of matrices gives the stack of their
    coordinate vectors; any strided stack is copied first.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    d = m.shape[-1]
    t = _coords(d)
    out = np.take(m.reshape(m.shape[:-2] + (d * d,)).view(float), t.at, axis=-1)
    out *= t.scale
    return out


def unhvec(v: np.ndarray, d: int, real: bool = False) -> np.ndarray:
    """Inverse of hvec, applied along the last axis of v.

    One gather of v through the `_coords` table fills the float view of the
    matrix: (a + ib) / sqrt 2 above the diagonal, its conjugate below. With
    `real`, v holds a real symmetric matrix's coordinates, the leading
    d(d+1)/2 of hvec's, and the matrix is real.
    """
    v = np.asarray(v, dtype=float)
    n = _n_coords(d, real)
    if v.shape[-1:] != (n,):
        raise ValueError(f"coordinate vector of shape {v.shape} is not {d}x{d}")
    t = _coords(d, real)
    out = np.take(v, t.src, axis=-1)
    out *= t.inv_scale
    if real:
        return out.reshape(v.shape[:-1] + (d, d))
    out[..., t.diag_imag] = 0.0
    return out.view(complex).reshape(v.shape[:-1] + (d, d))


def assemble(blocks: list[Block], rows: list[Row]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Dense coordinate form of the rows: (A, b, block column offsets).

    Column block j holds hvec coordinates of block j, row slice i those of
    row i, so A x - b stacks hvec(row value - rhs) over the rows. Each term's
    part of A is built from the side of its map m with fewer Hermitian basis
    matrices B_k = unhvec(e_k): when the row is at least as large as the
    block, column k is hvec(m(B_k)) over the block's basis; when it is
    smaller, row k is hvec(m-adjoint(B_k)) over the row's basis, since
    A[k] . hvec(X) = tr(B_k m(X)) = tr(m-adjoint(B_k) X). The basis stack
    goes through the map in chunks of at most _ASSEMBLE_BUDGET complex
    entries, basis matrices and images together.
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
            # rows of `part` run over the basis of the side that is mapped
            part = a[sl, block_off[bj] : block_off[bj] + d * d]
            if r.dim >= d:
                side, dim, part = m, d, part.T
            else:
                side, dim = m.adjoint(), r.dim
            step = max(1, _ASSEMBLE_BUDGET // (d * d + r.dim * r.dim))
            for lo in range(0, dim * dim, step):
                hi = min(lo + step, dim * dim)
                part[lo:hi] += hvec(side.apply(unhvec(np.eye(hi - lo, dim * dim, lo), dim)))
    return a, b, block_off[:-1]


@_derived
def _assembly(prog: ConicFeasibilityProgram) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """`assemble` of the program's blocks and rows, made once per program
    and shared by its engine and the SDPA export, with A and b read-only."""
    a, b, block_off = assemble(prog.blocks, prog.rows)
    a.flags.writeable = b.flags.writeable = False
    return a, b, block_off


# ---------------------------------------------------------------------------
# Equality-form engine.

def _offsets(items: list, real: bool = False) -> list[int]:
    """Where each block's or row's coordinates start, and their total last."""
    return list(itertools.accumulate((_n_coords(it.dim, real) for it in items), initial=0))


def _split(items: list, v: np.ndarray, real: bool = False) -> dict[str, np.ndarray]:
    """Cut coordinates into one Hermitian matrix per block or row, by name;
    real coordinates give complex matrices with zero imaginary parts."""
    offs = _offsets(items, real)
    return {it.name: unhvec(v[lo:hi], it.dim, real).astype(complex, copy=False)
            for it, lo, hi in zip(items, offs, offs[1:])}


def _row_residuals(rows: list[Row], r: np.ndarray, real: bool = False) -> dict[str, float]:
    """Norm of each row's slice of the residual A x - b."""
    offs = _offsets(rows, real)
    return {row.name: float(np.linalg.norm(r[lo:hi])) for row, lo, hi in zip(rows, offs, offs[1:])}


def _real_form(blocks: list[Block], rows: list[Row], a: np.ndarray,
               b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Masks of the real row and column coordinates when (A, b) splits.

    It splits when no entry of A couples a real coordinate (diagonal, upper
    real part) to an imaginary one (upper imaginary part), and b has no
    imaginary row coordinate; then the real rows and columns alone decide
    the program (see the module docstring). None otherwise.
    """

    def real(items: list) -> np.ndarray:
        offs = _offsets(items)
        mask = np.zeros(offs[-1], dtype=bool)
        for it, off in zip(items, offs):
            mask[off : off + _n_coords(it.dim, True)] = True
        return mask

    rm, cm = real(rows), real(blocks)
    if b[~rm].any() or a[np.ix_(rm, ~cm)].any() or a[np.ix_(~rm, cm)].any():
        return None
    return rm, cm


class _Engine:
    """Primal and Farkas projections for A x = b over PSD blocks, on one Gram pseudo-inverse.

    With `real`, the coordinates, A and b are the real form's (see
    `_real_form`), and the blocks are real symmetric: the packed buffer,
    the spectra and the polish's factors are real.
    """

    def __init__(self, blocks: list[Block], a: np.ndarray, b: np.ndarray, block_off: list[int],
                 real: bool = False):
        self.blocks = blocks
        self.a = a
        self.b = b
        self.block_off = block_off
        self.real = real
        self._floats = 1 if real else 2  # per matrix entry in the packed buffer
        self.n_rows, self.n_cols = a.shape
        self._dims = np.array([blk.dim for blk in blocks], dtype=np.intp)
        # The cone step's packed buffer holds the matrices of all blocks,
        # grouped by ascending dimension, so the 1x1 blocks lead. Its
        # float view is filled from x in one gather through unhvec's `_coords`
        # table shifted to each block's columns, and read back in one gather
        # through hvec's table shifted to each matrix's place, reordered by
        # column; a group of k blocks of dimension d is a zero-copy (k, d, d)
        # slice.
        groups: dict[int, list[int]] = {}
        for j, blk in enumerate(blocks):
            groups.setdefault(blk.dim, []).append(j)
        src, inv_scale, diag_imag, at, scale, dst = ([] for _ in range(6))
        self._cone_slices = []  # (k, d, start, stop, blocks) in the buffer, for d > 1
        self._line_blocks = np.zeros(0, dtype=np.intp)  # the 1x1 blocks, in buffer order
        self._half_line = 0  # float slots of the 1x1 blocks
        self._pack_at = np.zeros(len(blocks), dtype=np.intp)  # each block's first entry in the buffer
        start = 0
        for d in sorted(groups):
            t = _coords(d, real)
            js = np.array(groups[d])
            js.flags.writeable = False
            offs = np.array(block_off)[js][:, None]
            k, size = len(js), d * d
            place = self._floats * (start + size * np.arange(k))[:, None]  # each matrix in the float view
            src.append(offs + t.src)
            inv_scale.append(np.tile(t.inv_scale, k))
            diag_imag.append(place + t.diag_imag)
            at.append(place + t.at)
            scale.append(np.tile(t.scale, k))
            dst.append(offs + np.arange(len(t.at)))
            self._pack_at[js] = start + size * np.arange(k)
            if d == 1:
                self._line_blocks, self._half_line = js, self._floats * k
            else:
                self._cone_slices.append((k, d, start, start + k * size, js))
            start += k * size
        self._pack_len = start

        def flat(parts: list[np.ndarray], dtype=np.intp) -> np.ndarray:
            # 1-D, so that every gather returns a contiguous array
            return np.concatenate([np.zeros(0, dtype)] + [part.ravel() for part in parts])

        self._cone_src, self._cone_diag_imag = flat(src), flat(diag_imag)
        self._cone_inv_scale = flat(inv_scale, float)
        # every column is some block's coordinate, so the read-back positions
        # in column order fill the coordinates with no scatter
        order = np.argsort(flat(dst))
        self._cone_at, self._cone_scale = flat(at)[order], flat(scale, float)[order]

        w, v = np.linalg.eigh(a @ a.T)
        cut = w.max(initial=0.0) * 1e-12 + 1e-300
        # x + A^T (A A^T)^+ (b - A x) projects onto {A x = b}; the transpose
        # (A A^T)^+ A gives the multipliers y of a row-space point s = A^T y
        self._lift = a.T @ (v * np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)) @ v.T
        # The row-space point whose pairing with A^T y is b^T y.
        self._x0 = self._lift @ b
        # every solve of the program shares its engine (`_engine`), so what
        # the engine derives is read-only; a and b are the caller's
        for key, arr in vars(self).items():
            if isinstance(arr, np.ndarray) and key not in ("a", "b"):
                arr.flags.writeable = False

    def project_affine(self, x: np.ndarray) -> np.ndarray:
        return x + self._lift @ (self.b - self.a @ x)

    def _pack(self, x: np.ndarray) -> np.ndarray:
        """The packed buffer's float view, gathered from the coordinates x:
        the 1x1 blocks lead, as (value, 0) pairs when complex, then the
        `_cone_slices`."""
        f = x[self._cone_src] * self._cone_inv_scale
        if not self.real:
            f[self._cone_diag_imag] = 0.0
        return f

    def _matrices(self, f: np.ndarray) -> np.ndarray:
        """The packed buffer's entries behind its float view f."""
        return f if self.real else f.view(complex)

    def _unpack(self, g: np.ndarray) -> np.ndarray:
        """The coordinates of the matrices in the packed buffer's float view g:
        one gather in column order and one multiply, since every column is
        some block's."""
        out = g[self._cone_at]
        out *= self._cone_scale
        return out

    def project_cone(self, x: np.ndarray) -> np.ndarray:
        """Clip the spectrum of every block: one gather into the packed
        buffer, one stacked LAPACK eigh per dimension, one gather back.
        The PSD cone is its own dual, so this is the Farkas cone step too.
        The eigh gufunc flags non-convergence as an invalid value, so callers
        run this under `_eigh_errors`."""
        f = self._pack(x)
        g = np.empty_like(f)
        packed, projected = self._matrices(f), self._matrices(g)
        # a 1x1 PSD block is the half-line; its imaginary slot, if any, is zero
        np.maximum(f[: self._half_line], 0.0, out=g[: self._half_line])
        for k, d, lo, hi, _ in self._cone_slices:
            w, v = _eigh(packed[lo:hi].reshape(k, d, d))
            np.maximum(w, 0.0, out=w)
            np.matmul(v * w[..., None, :], (v if self.real else v.conj()).swapaxes(-1, -2),
                      out=projected[lo:hi].reshape(k, d, d))
        return self._unpack(g)

    def cone_point(self, x: np.ndarray) -> np.ndarray:
        """`project_cone` outside a sweep chunk, under its own `_eigh_errors`."""
        with _eigh_errors():
            return self.project_cone(x)

    def project_dual_affine(self, s: np.ndarray) -> np.ndarray:
        """Project onto {s in range(A^T): x0^T s = -1}."""
        r = self._lift @ (self.a @ s)
        return r - ((1.0 + self._x0 @ r) / (self._x0 @ self._x0)) * self._x0

    def multipliers(self, s: np.ndarray) -> np.ndarray:
        """The multipliers y = (A A^T)^+ A P(s) of the Farkas iterate s, P
        the cone step: what a check hands `_certify`."""
        return self._lift.T @ self.cone_point(s)

    def certifies(self, y: np.ndarray) -> bool:
        """Whether multipliers y are a certificate as exact as a polished
        point: pairing b^T y < 0, and the adjoint image A^T y within
        _POLISHED_TOL |b^T y| of the cone."""
        pairing = float(self.b @ y)
        if not pairing < 0.0:
            return False
        image = self.a.T @ y
        return float(np.linalg.norm(self.cone_point(image) - image)) <= _POLISHED_TOL * -pairing

    @functools.cached_property
    def _row_mats(self) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """`_row_matrices` of every block of dimension d > 1, built at the
        first polish, read-only; None for a 1x1 block, whose rows read A as
        it stands."""
        mats = [_row_matrices(self.a[:, off : off + _n_coords(b.dim, self.real)], b.dim, self.real)
                if b.dim > 1 else None for b, off in zip(self.blocks, self.block_off)]
        for arr in itertools.chain.from_iterable(filter(None, mats)):
            arr.flags.writeable = False
        return mats


@_derived
def _engine(prog: ConicFeasibilityProgram) -> _Engine:
    """The engine of an existence program, made once per program and
    shared by its solves: on the real form when the assembled (A, b)
    splits, with A and b read-only, on the shared assembly otherwise."""
    a, b, block_off = _assembly(prog)
    split = _real_form(prog.blocks, prog.rows, a, b)
    if split is None:
        return _Engine(prog.blocks, a, b, block_off)
    rm, cm = split
    a, b = a[np.ix_(rm, cm)], b[rm]
    a.flags.writeable = b.flags.writeable = False
    return _Engine(prog.blocks, a, b, _offsets(prog.blocks, True)[:-1], real=True)


def _row_matrices(a_blk: np.ndarray, d: int, real: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The rows that read a d x d block, and their constraint matrices on it.

    a_blk is A cut to the block's columns. Returns (touch, C): the indices of
    its nonzero rows and, for each, the Hermitian C_k = unhvec(a_blk[k]), so
    that a_blk[k] . hvec(X) = tr(C_k X); real symmetric with `real`.
    """
    touch = np.flatnonzero(a_blk.any(axis=1))
    return touch, unhvec(a_blk[touch], d, real)


def _factor_jacobian(y: np.ndarray, touch: np.ndarray, c: np.ndarray, n_rows: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Jacobian of Y -> (tr(C_k Y Y^H))_k for one d x r factor Y.

    Row k comes from `_row_matrices` and reads tr(C_k X). Along unit * e_i e_l^T
    it changes at 2 Re(unit * conj((C_k Y)[i, l])), that is 2 Re or 2 Im of
    (C_k Y)[i, l]; columns run over l, then i, then the real and imaginary
    unit, the order of a block's part of the flat factor vector. A real Y
    (with real C_k) has the real unit only. Rows outside touch are zero:
    those of `out`, an (n_rows, 2 d r) array (d r when real) that is written
    in place when given, are left as they are.
    """
    (d, r), t = y.shape, len(touch)
    width = (2 if np.iscomplexobj(y) else 1) * d * r
    cy = (c.reshape(t * d, d) @ y).reshape(t, d, r)
    if out is None:
        out = np.zeros((n_rows, width))
    out[touch] = 2.0 * np.ascontiguousarray(cy.swapaxes(1, 2)).view(float).reshape(t, width)
    return out


def _factor_starts(eng: _Engine, ranks: np.ndarray) -> np.ndarray:
    """Where each block's part of the flat factor vector starts (see `_Factors`)."""
    sizes = eng._floats * eng._dims * ranks
    return np.cumsum(sizes) - sizes


def _factor_view(theta: np.ndarray, lo: int, d: int, r: int, real: bool = False) -> np.ndarray:
    """The d x r factor whose part of theta starts at lo, as a view."""
    if real:
        return theta[lo : lo + d * r].reshape(r, d).T
    return theta[lo : lo + 2 * d * r].view(complex).reshape(r, d).T


class _Factors:
    """Block factors at fixed ranks as views of one flat real vector theta.

    The blocks' parts follow each other in block order. Block j's 2 d r
    floats hold its d x r factor Y transposed, row-major, with real and
    imaginary parts side by side: the column order of `_factor_jacobian`, so
    entry c of theta is column c of the Jacobian, and a step is added to
    theta as it stands. On a real engine the factors are real, d r floats
    each. Rank-zero blocks have no part. A rank-one 1x1 block's factor is
    one number a + ib, which adds a^2 + b^2 to its coordinate and gives its
    Jacobian columns 2 (c a, c b) for its column c of A, a zero read as +0
    (a real a adds a^2, with column 2 c a): the arithmetic of numpy's matmul
    on 1x1 operands, done elementwise for all such blocks at once.
    """

    def __init__(self, eng: _Engine, ranks: np.ndarray):
        self.eng = eng
        dims, fl = eng._dims, eng._floats
        starts = _factor_starts(eng, ranks)
        self.size = int(fl * dims @ ranks)
        line = np.flatnonzero(ranks * (dims == 1))
        self._pair = np.concatenate([starts[line] + i for i in range(fl)])
        self._pair_coef = eng.a[:, np.tile(np.asarray(eng.block_off)[line], fl)]
        self._line_slots = fl * eng._pack_at[line]
        mats = np.flatnonzero(ranks * (dims > 1))
        # (start in theta, d, r, block) of each block of dimension d > 1
        self.mats = list(zip(starts[mats].tolist(), dims[mats].tolist(), ranks[mats].tolist(),
                             mats.tolist()))
        self._conj = np.empty(self.size)
        self._yhs = [y.T for y in self.views(self._conj)]  # Y-adjoint, once _conj holds conj(theta)
        # the packed buffer: slots of rank-zero blocks stay zero
        self._g = np.zeros(fl * eng._pack_len)
        packed = eng._matrices(self._g)
        self._slots = [packed[at : at + d * d].reshape(d, d)
                       for at, d in zip(eng._pack_at[mats].tolist(), dims[mats].tolist())]

    def views(self, theta: np.ndarray) -> list[np.ndarray]:
        """The factors of the blocks of dimension d > 1 as views of theta."""
        return [_factor_view(theta, lo, d, r, self.eng.real) for lo, d, r, _ in self.mats]

    def assemble(self, theta: np.ndarray, ys: list[np.ndarray]) -> np.ndarray:
        """Coordinates of the blocks Y Y-adjoint, ys being `views(theta)`:
        each product is written into its slot of the packed buffer and read
        back through the cone step's gather."""
        sq = theta[self._pair]
        sq *= sq
        if self.eng.real:
            self._g[self._line_slots] = sq
            yhs = [y.T for y in ys]
        else:
            half = len(sq) // 2
            self._g[self._line_slots] = sq[:half] + sq[half:]
            np.conjugate(theta.view(complex), out=self._conj.view(complex))
            yhs = self._yhs
        for y, yh, slot in zip(ys, yhs, self._slots):
            np.matmul(y, yh, out=slot)
        return self.eng._unpack(self._g)

    def jacobian(self, theta: np.ndarray, ys: list[np.ndarray], jac: np.ndarray) -> None:
        """Write the Jacobian at theta into jac, an (n_rows, size) array whose
        entries outside the rows that read each block are zero."""
        jac[:, self._pair] = (self._pair_coef * theta[self._pair] + 0.0) * 2.0
        for y, (lo, d, r, j) in zip(ys, self.mats):
            touch, c = self.eng._row_mats[j]
            _factor_jacobian(y, touch, c, self.eng.n_rows, jac[:, lo : lo + self.eng._floats * d * r])


def _gauss_newton(eng: _Engine, theta: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Refine block factors against the equality rows; returns flat coords.

    Blocks are parametrized as Y Y-adjoint at fixed rank, so every candidate
    lies in the cone exactly and only the affine residual is minimized.
    Steps come from a least-squares Jacobian solve with backtracking; stalls
    terminate quietly and the caller keeps whatever was best. The factors
    live in theta (see `_Factors`), a trial point in a second vector of the
    same layout, and the Jacobian in one array written in place.
    """
    fac = _Factors(eng, ranks)
    trial = np.empty_like(theta)
    ys, trial_ys = fac.views(theta), fac.views(trial)
    jac = np.zeros((eng.n_rows, fac.size))
    x = fac.assemble(theta, ys)
    r = eng.a @ x - eng.b
    rn = float(np.linalg.norm(r))
    floor = 1e-15 * max(1.0, float(np.linalg.norm(eng.b)))
    for _ in range(_GN_MAX_STEPS):
        if rn <= floor or not fac.size:
            break
        fac.jacobian(theta, ys, jac)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        t = 1.0
        improved = False
        for _ in range(8):
            np.add(theta, t * step, out=trial)
            xt = fac.assemble(trial, trial_ys)
            rt = eng.a @ xt - eng.b
            rtn = float(np.linalg.norm(rt))
            if rtn < rn:
                theta, trial, ys, trial_ys = trial, theta, trial_ys, ys
                x, r, rn = xt, rt, rtn
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return x


def _guess_factors(eng: _Engine, x: np.ndarray, extra: int, res: float) -> tuple[np.ndarray, np.ndarray]:
    """Factor each block at the rank its spectrum suggests, plus headroom.

    Spurious eigenvalues shrink along with the residual while true ones stay
    put, so a cut at _FACE_RES_FACTOR times the residual separates them long
    before the iterates themselves converge. `extra` appends that many gently
    seeded directions from just below the cut; refinement can always shrink
    them back to zero, but a missing direction leaves a rank-deficient dead
    end. The spectra come from the cone step's gather, one stacked eigh per
    dimension; a 1x1 block is its own eigenvalue, with eigenvector 1.
    Returns the flat factor vector (see `_Factors`) and each block's rank.
    """

    def cut(top: np.ndarray) -> np.ndarray:
        return np.maximum(np.maximum(top, 0.0) * _FACE_REL_TOL, _FACE_RES_FACTOR * res)

    seed = math.sqrt(max(res, 1e-12))
    f = eng._pack(x)
    packed = eng._matrices(f)
    spectra = [np.linalg.eigh(packed[lo:hi].reshape(k, d, d)) for k, d, lo, hi, _ in eng._cone_slices]
    kept = np.zeros(len(eng.blocks), dtype=np.intp)
    line = eng._line_blocks
    vals = f[: eng._half_line : eng._floats]
    on = vals > cut(vals)
    kept[line] = on
    for (_, _, _, _, js), (w, _) in zip(eng._cone_slices, spectra):
        kept[js] = np.count_nonzero(w > cut(w[:, -1])[:, None], axis=1)
    ranks = np.minimum(kept + extra, eng._dims)
    starts = _factor_starts(eng, ranks)
    theta = np.empty(int(eng._floats * eng._dims @ ranks))
    # a kept 1x1 block is (sqrt value, 0), a padded one (seed, 0); a real
    # engine's lack the 0
    some = ranks[line] > 0
    at = starts[line][some]
    theta[at] = np.where(on, np.sqrt(np.where(on, vals, 0.0)), seed)[some]
    if not eng.real:
        theta[at + 1] = 0.0
    for (_, d, _, _, js), (w, v) in zip(eng._cone_slices, spectra):
        for i, j in enumerate(js.tolist()):
            r, rank = int(kept[j]), int(ranks[j])
            if rank:
                y = _factor_view(theta, int(starts[j]), d, rank, eng.real)
                y[:, :r] = v[i, :, d - r :] * np.sqrt(w[i, d - r :])
                y[:, r:] = v[i, :, d - rank : d - r] * seed
    return theta, ranks


def _face_polish(eng: _Engine, x: np.ndarray) -> np.ndarray:
    """Polish a near-feasible point to machine precision at guessed block ranks.

    Rank guesses, leanest first: the exact guess gives quadratic
    convergence, while the one padded by a direction costs more per step but
    avoids the rank-deficient local minima a too-lean factorization can wedge
    into. A point the padded rung leaves within _STALL, but above
    _POLISHED_TOL, lacks a further direction: the polish pads again from the
    improved point while each new rung lowers the residual. A wrong guess is
    harmless because only improvements are kept.
    """

    def residual(v: np.ndarray) -> float:
        return float(np.linalg.norm(eng.a @ v - eng.b, ord=np.inf))

    best, best_res = x, residual(x)
    extra = 0
    while best_res >= 1e-13:
        cand = _gauss_newton(eng, *_guess_factors(eng, best, extra, best_res))
        res = residual(cand)
        improved = res < best_res
        if improved:
            best, best_res = cand, res
        if extra and not (improved and _POLISHED_TOL < best_res <= _STALL):
            break
        extra = 1
    return best


# ---------------------------------------------------------------------------
# Certificates.

def _certify(
    witness: ConicFeasibilityProgram, multipliers: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], PointReport] | None:
    """Scale multipliers of the existence program's rows to pairing -1 and
    re-verify them as a point of its witness program.

    Returns the scaled certificate with its `verify_point` report on the
    witness program, or None when the pairing with the right-hand side is
    not negative, a scaled multiplier's norm exceeds _CERT_NORM_CAP, or the
    certificate misses a row or a block of the witness program by more than
    _CERT_TOL.
    """
    rows = witness.existence.rows
    pairing = sum(float(np.trace(np.asarray(r.rhs) @ multipliers[r.name]).real) for r in rows)
    if pairing >= -1e-15:
        return None
    cert = {r.name: multipliers[r.name] / -pairing for r in rows}
    if max(float(np.linalg.norm(y)) for y in cert.values()) > _CERT_NORM_CAP:
        return None
    report = verify_point(witness, cert)
    return (cert, report) if report.within(_CERT_TOL) else None


# ---------------------------------------------------------------------------
# The decision loop.

_Projection = Callable[[np.ndarray], np.ndarray]


def _raise_nonconvergence(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh_errors() -> np.errstate:
    """The error state under which the cone step's eigh gufunc reports
    non-convergence, its invalid-value flag, as LinAlgError."""
    return np.errstate(invalid="call", call=_raise_nonconvergence)


def _run_ap(affine: _Projection, cone: _Projection, x: np.ndarray, iters: int) -> np.ndarray:
    with _eigh_errors():
        for _ in range(iters):
            y = x + _OVER_RELAXATION * (affine(x) - x)
            x = y + _OVER_RELAXATION * (cone(y) - y)
    return x


def solve(prog: ConicFeasibilityProgram, cfg: SolverConfig | None = None) -> FeasibilityOutcome:
    """Decide feasibility; deterministic for a fixed config seed.

    On an existence program, FEASIBLE comes with a point in the cone,
    plain or polished, meeting every row within _POLISHED_TOL, and
    INFEASIBLE_WITH_CERTIFICATE with verified Farkas multipliers keyed by
    row name. A witness program is decided through its existence program,
    whose answer swaps sides: its point becomes the multipliers (negated,
    and 1 on the strict row), and its certificate the witness point, which
    holds to _CERT_TOL; the iterations, and the residuals but for a witness
    point's, are the existence solve's. UNDECIDED is returned only once the
    iteration budget is exhausted with neither.

    Each existence program keeps its decision per seed (see `_decided`), so
    asking either side of a cell again at the same seed decides nothing
    again: the outcome is new, with dicts of its own, over the kept
    decision's arrays, which are read-only.
    """
    cfg = cfg or SolverConfig()
    if prog.existence is None:
        if any(r.sense != "eq" for r in prog.rows) or not all(b.psd for b in prog.blocks):
            raise SolverError("solve takes equality rows on PSD blocks, or the witness "
                              "program generated from such a program")
        out, _ = _decided(_farkas_alternative(prog), cfg)
        return _fresh(out.status, out.point, out.certificate, out.residuals, out.iterations)
    out, report = _decided(prog, cfg)
    if out.status == "FEASIBLE":
        cert = {r.name: np.ones((1, 1), dtype=complex) if r.sense == "strict" else -out.point[r.name]
                for r in prog.rows}
        return _fresh("INFEASIBLE_WITH_CERTIFICATE", None, cert, out.residuals, out.iterations)
    if out.status == "INFEASIBLE_WITH_CERTIFICATE":
        # `_certify` has verified it as a point of this very program
        return _fresh("FEASIBLE", out.certificate, None, report.row_residuals, out.iterations)
    return _fresh(out.status, None, None, out.residuals, out.iterations)


def _fresh(status: str, point: dict | None, certificate: dict | None, residuals: dict,
           iterations: int) -> FeasibilityOutcome:
    """An outcome with dicts of its own over a kept decision's arrays, so
    that one caller's edits reach no other."""
    return FeasibilityOutcome(status, None if point is None else dict(point),
                              None if certificate is None else dict(certificate),
                              dict(residuals), iterations)


@_derived
def _decisions(prog: ConicFeasibilityProgram) -> dict[int, tuple[FeasibilityOutcome, PointReport | None]]:
    """`_decide`'s answers on an existence program, by solver seed (see
    `_decided`)."""
    return {}


def _decided(witness: ConicFeasibilityProgram,
             cfg: SolverConfig) -> tuple[FeasibilityOutcome, PointReport | None]:
    """`_decide`, made once per existence program and solver seed and kept
    in `_decisions`, with its point and certificate arrays read-only: the
    program is read-only and the decision is a function of it and the seed.
    A call that raises keeps nothing."""
    kept = _decisions(witness.existence)
    if cfg.seed not in kept:
        out, report = _decide(witness, cfg)
        for blocks in (out.point, out.certificate):
            for arr in (blocks or {}).values():
                arr.flags.writeable = False
        kept[cfg.seed] = out, report
    return kept[cfg.seed]


def _decide(witness: ConicFeasibilityProgram,
            cfg: SolverConfig) -> tuple[FeasibilityOutcome, PointReport | None]:
    """`solve` on the existence program of a witness program, whose points
    check the certificates; with a certificate, also `_certify`'s report of
    it as a point of the witness program."""
    prog = witness.existence
    eng = _engine(prog)

    def residuals(x: np.ndarray) -> dict[str, float]:
        return _row_residuals(prog.rows, eng.a @ x - eng.b, eng.real)

    # Right-hand side off the affine range is already a finished certificate.
    r0 = eng.b - eng.a @ eng._x0
    nr0 = float(np.linalg.norm(r0))
    if nr0 > _RANGE_TOL * max(1.0, float(np.linalg.norm(eng.b))):
        found = _certify(witness, _split(prog.rows, -r0 / nr0**2, eng.real))
        if found is not None:
            cert, report = found
            return FeasibilityOutcome(
                "INFEASIBLE_WITH_CERTIFICATE", None, cert, residuals(np.zeros(eng.n_cols)), 0
            ), report

    x = 0.1 * np.random.default_rng(cfg.seed).standard_normal(eng.n_cols)
    s = None  # the Farkas iterate, seeded from the first full check's d
    it = swept = 0  # primal sweeps made, and at the last full check
    while it < _MAX_ITERS:
        gap = min(max(it, 1), _MAX_ITERS - it)
        it += gap
        x = _run_ap(eng.project_affine, eng.project_cone, x, gap)
        plain = eng.cone_point(eng.project_affine(x))
        r = eng.a @ plain - eng.b
        rn = float(np.linalg.norm(r))
        if not math.isfinite(rn):
            # LAPACK flags a NaN 4x4 block as non-convergence, but returns
            # NaN eigenvalues for a 2x2 one unflagged
            raise np.linalg.LinAlgError("the iterate is not finite")
        if rn <= _POLISHED_TOL:
            return FeasibilityOutcome("FEASIBLE", _split(prog.blocks, plain, eng.real), None,
                                      _row_residuals(prog.rows, r, eng.real), it), None
        if it < _FIRST_CHECK:
            continue
        cand = eng.cone_point(x)
        res = residuals(cand)
        if max(res.values(), default=0.0) <= _POLISH_GATE:
            polished = _face_polish(eng, cand)
            pres = residuals(polished)
            if max(pres.values(), default=0.0) <= _POLISHED_TOL:
                return FeasibilityOutcome("FEASIBLE", _split(prog.blocks, polished, eng.real), None,
                                          pres, it), None
        d = cand - eng.project_affine(cand)
        s = d if s is None else s
        y = eng.multipliers(d)
        if not eng.certifies(y):
            s = _run_ap(eng.project_dual_affine, eng.project_cone, s, it - swept)
            y = eng.multipliers(s)
        swept = it
        found = _certify(witness, _split(prog.rows, y, eng.real))
        if found is not None:
            cert, report = found
            return FeasibilityOutcome("INFEASIBLE_WITH_CERTIFICATE", None, cert, res, it), report
    # the last check lands on the budget, and x has not moved since
    return FeasibilityOutcome("UNDECIDED", None, None, res, _MAX_ITERS), None


def _stack_least_eigs(stack: np.ndarray) -> list[float]:
    """Least eigenvalue of the Hermitian part of each matrix of a (k, d, d)
    stack, in order: one stacked `hermitize` and `eigh` for d above 1. Each
    matrix meets the same arithmetic and LAPACK routine as alone, so the
    bits do not depend on the stacking. A 1x1 matrix x + iy needs neither:
    its eigenvalue is x - (y - y), which is x, or NaN when y is not finite
    (the Hermitian part's imaginary part y - y is then NaN): bit for bit
    what `eigh` returns for its Hermitian part, signed zeros included, and
    NaN where it returns NaN, for |x| < 2^1023, beyond which the Hermitian
    part's x + x overflows."""
    if stack.shape[-1] == 1:
        return [z.real - (z.imag - z.imag) for z in stack[:, 0, 0].tolist()]
    return np.linalg.eigh(hermitize(stack))[0][:, 0].tolist()


def verify_point(prog: ConicFeasibilityProgram, point: dict[str, np.ndarray]) -> PointReport:
    """Pure re-evaluation of every row and block at the given point.

    The point's blocks are stacked once, one complex stack per block
    dimension; every group of a row's terms and the PSD blocks' check gather
    their matrices from those stacks (`programs._stack_index`). The least
    eigenvalue of the Hermitian part of each PSD row comes from its own
    `_stack_least_eigs` call, and those of the PSD blocks from one call per
    block dimension: one stacked `hermitize` and `eigh` for a dimension
    above 1, the entry for a 1x1 part.
    """
    index = _stack_index(prog)
    stacks = {d: np.empty((k, d, d), dtype=complex) for d, k in index.sizes.items()}
    for b, k in zip(prog.blocks, index.places):
        v = np.asarray(point[b.name], dtype=complex)
        if v.shape != (b.dim, b.dim):
            raise ValueError(f"block {b.name!r} has shape {v.shape}, expected {(b.dim, b.dim)}")
        stacks[b.dim][k] = v
    row_residuals = {}
    strict_slack = None
    for r, (groups, at) in zip(prog.rows, index.rows):
        value = _apply_groups(r.dim, groups, [stacks[d][i] for d, i in at])
        diff = value - np.asarray(r.rhs, dtype=complex)
        if r.sense == "eq":
            row_residuals[r.name] = float(np.linalg.norm(diff))
        elif r.sense == "psd":
            (w,) = _stack_least_eigs(diff[None])
            # max(0.0, -w) would drop a NaN w
            row_residuals[r.name] = 0.0 if w >= 0 else -w
        elif r.sense == "strict":
            strict_slack = float(-diff[0, 0].real)
        else:
            raise SolverError(f"unknown row sense {r.sense!r}")
    least = [0.0] * len(index.psd_names)
    for d, (at, to) in index.psd.items():
        for k, w in zip(to, _stack_least_eigs(stacks[d][at])):
            least[k] = w
    block_min_eigs = dict(zip(index.psd_names, least))
    return PointReport(row_residuals, block_min_eigs, strict_slack)
