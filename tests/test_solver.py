import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qqc.linalg import hermitize
from qqc.problem import QueryProblem
from qqc.programs import (
    Block,
    BlockMap,
    ConicFeasibilityProgram,
    Row,
    build_dual,
    build_dual_relaxed,
    build_primal,
    build_primal_relaxed,
    _farkas_alternative,
)
from qqc.reconstruct import reconstruct_algorithm
from qqc.simulate import run, success_report
from qqc import solver
from qqc.solver import (
    FeasibilityOutcome,
    SolverConfig,
    SolverError,
    _Engine,
    _certify,
    _face_polish,
    _factor_jacobian,
    _factor_view,
    _Factors,
    _gauss_newton,
    _guess_factors,
    _row_matrices,
    _run_ap,
    assemble,
    hvec,
    solve,
    unhvec,
    verify_point,
)

from conftest import BUILDERS, FAMILIES, FEASIBLE_CELLS, PROBLEMS


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def _ident(d, scale=1.0):
    return BlockMap("id", d_in=d, d_out=d, scale=scale)


def _pauli2():
    # the 16 two-qubit Paulis, each its own output (s = 16, n = 4)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1])]
    labels = tuple(a + b for a, b in itertools.product("IXYZ", repeat=2))
    ops = np.stack([np.kron(a, b) for a, b in itertools.product(paulis, repeat=2)])
    return QueryProblem(4, labels, ops.astype(complex), labels, {z: z for z in labels})


def _trace_row(name, idx, d, rhs, scale=1.0):
    m = BlockMap("trace_against", d_in=d, d_out=1, scale=scale,
                 mat=np.eye(d, dtype=complex))
    return Row(name, 1, [(idx, m)], np.array([[rhs]], dtype=complex))


def test_hvec_round_trip_and_isometry():
    rng = np.random.default_rng(5)
    for d in (1, 2, 5):
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        va, vb = hvec(a), hvec(b)
        assert va.shape == (d * d,)
        assert va.dtype == np.float64
        assert np.allclose(unhvec(va, d), a)
        # real coordinates preserve the trace pairing
        assert np.isclose(float(va @ vb), np.trace(a @ b).real)
        # a stack of matrices maps to the stack of their coordinate vectors
        stack = np.array([[random_hermitian(rng, d) for _ in range(2)] for _ in range(3)])
        vs = hvec(stack)
        assert vs.shape == (3, 2, d * d)
        for i in range(3):
            for j in range(2):
                assert np.array_equal(vs[i, j], hvec(stack[i, j]))
        assert np.allclose(unhvec(vs, d), stack)


def _upper_pairs(d):
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def _hvec_reference(m):
    """hvec written out: the diagonal, then sqrt 2 Re and sqrt 2 Im of the
    upper triangle, row-major; one matrix per call."""
    up = _upper_pairs(m.shape[0])
    return np.array([m[i, i].real for i in range(m.shape[0])]
                    + [math.sqrt(2.0) * m[i, j].real for i, j in up]
                    + [math.sqrt(2.0) * m[i, j].imag for i, j in up])


def _unhvec_reference(v, d):
    """unhvec written out: (a + ib) / sqrt 2 above the diagonal, part by part
    with the reciprocal, and its conjugate below."""
    up = _upper_pairs(d)
    r = 1.0 / math.sqrt(2.0)
    m = np.zeros((d, d), dtype=complex)
    for i in range(d):
        m[i, i] = v[i]
    for k, (i, j) in enumerate(up):
        a, b = v[d + k] * r, v[d + len(up) + k] * r
        m[i, j] = complex(a, b)
        m[j, i] = complex(a, -b)
    return m


def _same_bits(x, y):
    return (x.dtype == y.dtype and x.shape == y.shape
            and np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes())


def _with_signed_zeros(rng, shape):
    # standard normal entries, a quarter of them replaced by +0.0 or -0.0
    x = rng.standard_normal(shape)
    zero = rng.random(shape) < 0.25
    x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return x


@pytest.mark.parametrize("d", [1, 2, 3, 8, 27])
@pytest.mark.parametrize("lead", [(), (5,), (3, 4), (0,)], ids=str)
def test_coordinate_maps_match_written_out_formula_bitwise(d, lead):
    rng = np.random.default_rng(d)
    shape = lead + (d, d)
    m = np.empty(shape, dtype=complex)  # a + 1j * b would lose some -0.0 parts
    m.real, m.imag = _with_signed_zeros(rng, shape), _with_signed_zeros(rng, shape)
    read_only = m.copy()
    read_only.flags.writeable = False
    inputs = [m, m.swapaxes(-1, -2), m.conj().swapaxes(-1, -2), m.real, read_only]
    for x in inputs:
        ref = np.zeros(lead + (d * d,))
        for idx in np.ndindex(*lead):
            ref[idx] = _hvec_reference(np.asarray(x[idx], dtype=complex))
        assert _same_bits(hvec(x), ref)
    v = _with_signed_zeros(rng, lead + (d * d,))
    ref = np.zeros(lead + (d, d), dtype=complex)
    for idx in np.ndindex(*lead):
        ref[idx] = _unhvec_reference(v[idx], d)
    wide = np.repeat(v, 2, axis=-1)  # every other entry: a strided view of v
    frozen = v.copy()
    frozen.flags.writeable = False
    for x in (v, wide[..., ::2], frozen):
        assert _same_bits(unhvec(x, d), ref)
    with pytest.raises(ValueError, match="coordinate vector"):
        unhvec(v[..., 1:], d)
    with pytest.raises(ValueError, match="coordinate vector"):
        unhvec(np.zeros(lead + (d * d + 1,)), d)


_ASSEMBLY_CASES = [(pname, builder, q) for pname in PROBLEMS for builder in BUILDERS
                   for q in (0, 1, 2)] + [("pauli_id", "primal", 1)]


@pytest.mark.parametrize("pname,builder,q", _ASSEMBLY_CASES)
def test_assemble_matches_row_values(pname, builder, q):
    # A x - b stacks hvec(row value - rhs) at any point, block and row
    # coordinates following program order
    p = FAMILIES[pname] if pname in FAMILIES else PROBLEMS[pname]
    prog = BUILDERS[builder](p, q, 0.1)
    a, b, block_off = assemble(prog.blocks, prog.rows)
    assert block_off == list(np.cumsum([0] + [blk.dim ** 2 for blk in prog.blocks])[:-1])
    rng = np.random.default_rng(3)
    for _ in range(3):
        point = {blk.name: random_hermitian(rng, blk.dim) for blk in prog.blocks}
        x = np.concatenate([hvec(point[blk.name]) for blk in prog.blocks])
        want = np.concatenate([hvec(prog.row_value(r, point) - r.rhs) for r in prog.rows])
        assert np.max(np.abs(a @ x - b - want)) <= 1e-12
        # A^T is the adjoint: A^T hvec(Y) stacks hvec of each block's sum of
        # adjoint images, the transpose the Farkas system is read from
        ys = [random_hermitian(rng, r.dim) for r in prog.rows]
        image = a.T @ np.concatenate([hvec(y) for y in ys])
        for j, (blk, off) in enumerate(zip(prog.blocks, block_off)):
            want = sum((m.adjoint().apply(y) for r, y in zip(prog.rows, ys)
                        for bj, m in r.terms if bj == j), np.zeros((blk.dim, blk.dim)))
            assert np.max(np.abs(image[off : off + blk.dim**2] - hvec(want))) <= 1e-12


def _assemble_by_columns(blocks, rows):
    """Reference assembly: column k of a term is hvec of its map at the
    basis matrix B_k = unhvec(e_k), one basis matrix at a time."""
    block_off = np.cumsum([0] + [blk.dim**2 for blk in blocks])
    row_off = np.cumsum([0] + [r.dim**2 for r in rows])
    a = np.zeros((row_off[-1], block_off[-1]))
    for ri, r in enumerate(rows):
        for bj, m in r.terms:
            d = blocks[bj].dim
            for k in range(d * d):
                basis = unhvec(np.eye(d * d)[k], d)
                a[row_off[ri] : row_off[ri + 1], block_off[bj] + k] += hvec(m.apply(basis))
    b = np.concatenate([hvec(r.rhs) for r in rows])
    return a, b


_REFERENCE_CASES = [(pname, builder, q, eps)
                    for pname in [*PROBLEMS, *FAMILIES] for builder in BUILDERS
                    for q in range(2 if pname == "weyl3" else 3) for eps in (0.0, 0.1)]


@pytest.mark.parametrize("pname,builder,q,eps", _REFERENCE_CASES)
def test_assemble_matches_column_reference(pname, builder, q, eps):
    # a term whose row is smaller than its block is built from the row side,
    # hvec(m-adjoint(B_k)); on the existence programs that gives the same
    # bits as the column side, on the witness programs' own rows the same
    # numbers to within two ulps of one (their 1x1 trace rows read all-ones
    # matrices)
    p = FAMILIES[pname] if pname in FAMILIES else PROBLEMS[pname]
    prog = BUILDERS[builder](p, q, eps)
    blocks, rows = prog.blocks, prog.rows
    a, b, _ = assemble(blocks, rows)
    ref_a, ref_b = _assemble_by_columns(blocks, rows)
    assert _same_bits(b, ref_b)
    if builder.startswith("primal"):
        assert _same_bits(a, ref_a)
    else:
        assert np.max(np.abs(a - ref_a)) <= 4.4e-16


@pytest.mark.parametrize("pname,builder,q", [("weyl3", "dual", 1), ("pauli_id", "primal", 2),
                                             ("deutsch", "primal_relaxed", 2)])
def test_assemble_chunks_give_the_same_bits(monkeypatch, pname, builder, q):
    # the budget only cuts the basis stack: one basis matrix per map call
    # (budget 1) or one stack per term gives the same A, on either side
    p = FAMILIES[pname] if pname in FAMILIES else PROBLEMS[pname]
    prog = BUILDERS[builder](p, q, 0.1)
    blocks, rows = prog.blocks, prog.rows
    a, _, _ = assemble(blocks, rows)
    for budget in (1, 1 << 40):
        monkeypatch.setattr(solver, "_ASSEMBLE_BUDGET", budget)
        assert _same_bits(assemble(blocks, rows)[0], a)


def test_assemble_memory_stays_near_its_budget():
    # pauli2 q=2 `build_primal` reads its 64x64 state block from 16x16 chain
    # rows through the adjoint; one stack of all 256 images of 64x64 took
    # 49.0 MiB beyond A, and the budget keeps it near 11.7 MiB
    prog = build_primal(_pauli2(), 2, 0.1)
    tracemalloc.start()
    try:
        a, _, _ = assemble(prog.blocks, prog.rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - a.nbytes <= 20 * 2**20


@pytest.mark.parametrize("case", ["deutsch_primal_relaxed", "weyl3_primal"])
def test_project_cone_matches_per_block_reference(case):
    # deutsch at q=2 mixes 2x2, 4x4 and 8x8 blocks; weyl3 at q=2 has a 27x27
    # state block next to the 3x3 start state, 9x9 shares and 1x1 success
    # slacks, which take the clipping path
    if case == "deutsch_primal_relaxed":
        prog = BUILDERS["primal_relaxed"](PROBLEMS["deutsch"], 2, 0.1)
        dims = {2, 4, 8}
    else:
        prog = BUILDERS["primal"](FAMILIES["weyl3"], 2, 0.1)
        dims = {1, 3, 9, 27}
    blocks = prog.blocks
    eng = _Engine(blocks, *assemble(blocks, prog.rows))
    assert {b.dim for b in blocks} == dims

    def per_block(x):
        # from the written-out coordinate formula, not the maps the engine calls
        out = x.copy()
        for b, off in zip(blocks, eng.block_off):
            m = _unhvec_reference(x[off : off + b.dim**2], b.dim)
            w, v = np.linalg.eigh(hermitize(m))
            out[off : off + b.dim**2] = _hvec_reference((v * np.clip(w, 0.0, None)) @ v.conj().T)
        return out

    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.standard_normal(eng.n_cols)
        px = eng.project_cone(x)
        assert np.max(np.abs(px - per_block(x))) <= 1e-12
        assert np.max(np.abs(eng.project_cone(px) - px)) <= 1e-12


@pytest.mark.parametrize("case", ["deutsch_primal_relaxed", "weyl3_primal"])
def test_dual_projections_land_in_their_sets(case):
    # the Farkas pair: row-space points of pairing -1, and the PSD cone,
    # which is its own dual
    if case == "deutsch_primal_relaxed":
        prog = BUILDERS["primal_relaxed"](PROBLEMS["deutsch"], 1, 0.1)
    else:
        prog = BUILDERS["primal"](FAMILIES["weyl3"], 1, 0.1)
    blocks = prog.blocks
    a, b, block_off = assemble(blocks, prog.rows)
    eng = _Engine(blocks, a, b, block_off)
    rng = np.random.default_rng(13)
    for _ in range(3):
        s = eng.project_dual_affine(rng.standard_normal(eng.n_cols))
        norm = np.linalg.norm(s)
        assert np.linalg.norm(s - eng._lift @ (a @ s)) <= 1e-10 * norm
        assert eng._x0 @ s == pytest.approx(-1.0, abs=1e-10)
        assert np.linalg.norm(eng.project_dual_affine(s) - s) <= 1e-10 * norm
        # the multipliers (A A^T)^+ A s behind s pair with b to -1
        y = eng._lift.T @ s
        assert np.linalg.norm(a.T @ y - s) <= 1e-10 * norm
        assert b @ y == pytest.approx(-1.0, abs=1e-10)

        c = eng.project_cone(rng.standard_normal(eng.n_cols))
        for blk, off in zip(blocks, eng.block_off):
            w = np.linalg.eigvalsh(unhvec(c[off : off + blk.dim**2], blk.dim))
            assert w[0] >= -1e-12
        assert np.max(np.abs(eng.project_cone(c) - c)) <= 1e-12


# deutsch at q=2: dims 2, 4, 8; weyl3 at q=2: dims 1, 3, 9, 27; then 1x1
# blocks only
_PACKED_CASES = {
    "deutsch_primal_relaxed": lambda: BUILDERS["primal_relaxed"](PROBLEMS["deutsch"], 2, 0.1),
    "weyl3_primal": lambda: BUILDERS["primal"](FAMILIES["weyl3"], 2, 0.1),
    "half_lines": lambda: ConicFeasibilityProgram(
        [Block(f"h{i}", 1, True) for i in range(3)],
        [Row("sum", 1, [(i, _ident(1)) for i in range(3)], np.ones((1, 1), dtype=complex))]),
}


@pytest.mark.parametrize("case", list(_PACKED_CASES))
def test_packed_cone_step_matches_grouped_projection_bitwise(case):
    # the grouped projection written out: per dimension, unhvec of the
    # gathered coordinates, one stacked eigh, clipping and hvec scattered
    # back; the 1x1 blocks on the half-line
    prog = _PACKED_CASES[case]()
    eng = _Engine(prog.blocks, *assemble(prog.blocks, prog.rows))
    groups = {}
    for blk, off in zip(prog.blocks, eng.block_off):
        groups.setdefault(blk.dim, []).append(off)

    def grouped(x):
        out = x.copy()
        for d, offs in groups.items():
            idx = np.add.outer(offs, np.arange(d * d))
            if d == 1:
                out[idx] = np.maximum(x[idx], 0.0)
                continue
            w, v = np.linalg.eigh(unhvec(x[idx], d))
            np.clip(w, 0.0, None, out=w)
            out[idx] = hvec((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2))
        return out

    rng = np.random.default_rng(17)
    for _ in range(3):
        x = _with_signed_zeros(rng, eng.n_cols)
        want = grouped(x)
        got = eng.project_cone(x)
        assert np.array_equal(got, want) and _same_bits(got, want)


def _hvec_gram(y):
    return hvec(y @ y.conj().T)


def _pauli_id_state_block():
    # A cut to the 8x8 state block of pauli_id's exact program at q = 2: the
    # block is read by only some of the rows
    prog = build_primal(FAMILIES["pauli_id"], 2, 0.1)
    a, _, block_off = assemble(prog.blocks, prog.rows)
    j = [blk.name for blk in prog.blocks].index("state_iq_1")
    assert prog.blocks[j].dim == 8
    return a[:, block_off[j] : block_off[j] + 64]


@pytest.mark.parametrize("d,source", [(2, "eye"), (4, "eye"), (8, "eye"), (8, "pauli_id")],
                         ids=["2", "4", "8", "8-pauli_id"])
def test_factor_jacobian_matches_central_differences(d, source):
    # columns run over l, then k, then the real and imaginary unit; rows that
    # do not read the block stay zero
    a_blk = np.eye(d * d) if source == "eye" else _pauli_id_state_block()
    touch, c = _row_matrices(a_blk, d)
    if source == "pauli_id":
        assert 0 < len(touch) < a_blk.shape[0]
    # a rank-zero factor has no columns
    assert _factor_jacobian(np.zeros((d, 0)), touch, c, a_blk.shape[0]).shape == (a_blk.shape[0], 0)
    rng = np.random.default_rng(d)
    h = 1e-4
    for r in range(1, d + 1):
        y = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        jac = _factor_jacobian(y, touch, c, a_blk.shape[0])
        assert jac.shape == (a_blk.shape[0], 2 * d * r)
        cols = []
        for l in range(r):
            for k in range(d):
                for unit in (1.0, 1j):
                    e = np.zeros((d, r), dtype=complex)
                    e[k, l] = unit * h
                    cols.append(a_blk @ (_hvec_gram(y + e) - _hvec_gram(y - e)) / (2 * h))
        fd = np.stack(cols, axis=1)
        assert np.linalg.norm(jac - fd) <= 1e-7 * np.linalg.norm(fd)


def test_factor_jacobian_columns_follow_the_factor_vector():
    # a step along entry c of the flat factor vector, of which the factor is
    # a view, moves hvec(Y Y^H) along column c of the Jacobian to first order
    rng = np.random.default_rng(2)
    d, r, h = 3, 2, 1e-4
    theta = rng.standard_normal(2 * d * r)
    y = _factor_view(theta, 0, d, r)
    assert y.shape == (d, r) and np.shares_memory(y, theta)
    jac = _factor_jacobian(y, *_row_matrices(np.eye(d * d), d), d * d)
    for c in range(2 * d * r):
        step = np.zeros(2 * d * r)
        step[c] = h
        yp = _factor_view(theta + step, 0, d, r)
        ym = _factor_view(theta - step, 0, d, r)
        fd = (_hvec_gram(yp) - _hvec_gram(ym)) / (2 * h)
        assert np.linalg.norm(jac[:, c] - fd) <= 1e-7 * np.linalg.norm(fd)


# The face polish as it was written per block, before the factors moved into
# one flat vector and the trial points into the packed buffer: the reference
# the polish must meet bit for bit.

def _ref_assemble_factors(eng, ys):
    x = np.zeros(eng.n_cols)
    for y, b, off in zip(ys, eng.blocks, eng.block_off):
        x[off : off + b.dim * b.dim] = hvec(y @ y.conj().T)
    return x


def _ref_step_factors(ys, step):
    out = []
    k = 0
    for y in ys:
        d, r = y.shape
        seq = step[k : k + 2 * d * r].reshape(r, d, 2)
        out.append(y + (seq[..., 0] + 1j * seq[..., 1]).T)
        k += 2 * d * r
    return out


def _ref_gauss_newton(eng, ys):
    x = _ref_assemble_factors(eng, ys)
    r = eng.a @ x - eng.b
    rn = float(np.linalg.norm(r))
    floor = 1e-15 * max(1.0, float(np.linalg.norm(eng.b)))
    lin = [_row_matrices(eng.a[:, off : off + b.dim * b.dim], b.dim)
           for b, off in zip(eng.blocks, eng.block_off)]
    for _ in range(solver._GN_MAX_STEPS):
        if rn <= floor:
            break
        jac = np.hstack([np.zeros((eng.n_rows, 0))] + [
            _factor_jacobian(y, *m, eng.n_rows) for y, m in zip(ys, lin)
        ])
        if not jac.shape[1]:
            break
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        t = 1.0
        improved = False
        for _ in range(8):
            trial = _ref_step_factors(ys, t * step)
            xt = _ref_assemble_factors(eng, trial)
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


def _ref_guess_factors(eng, x, extra, res):
    ys = []
    for b, off in zip(eng.blocks, eng.block_off):
        w, v = np.linalg.eigh(unhvec(x[off : off + b.dim * b.dim], b.dim))
        cut = max(max(w[-1], 0.0) * solver._FACE_REL_TOL + solver._FACE_ABS_FLOOR,
                  solver._FACE_RES_FACTOR * res)
        keep = w > cut
        y = v[:, keep] * np.sqrt(w[keep])
        if extra:
            take = np.flatnonzero(~keep)[-extra:]
            if take.size:
                y = np.concatenate([y, v[:, take] * math.sqrt(max(res, 1e-12))], axis=1)
        ys.append(y)
    return ys


def _ref_face_polish(eng, x):
    def residual(v):
        return float(np.linalg.norm(eng.a @ v - eng.b, ord=np.inf))

    best, best_res = x, residual(x)
    for extra in (0, 1):
        if best_res < 1e-13:
            break
        cand = _ref_gauss_newton(eng, _ref_guess_factors(eng, best, extra, best_res))
        res = residual(cand)
        if res < best_res:
            best, best_res = cand, res
    return best


def _rank_zero_program():
    # "x" is diag(1, 0) and "k" is 2; "zero" (2x2) is pinned to 0, and "h"
    # (1x1) too, by a row that reads "x" and, with negative coefficients,
    # "h" and "k": both guess rank zero
    blocks = [Block("x", 2, True), Block("zero", 2, True), Block("h", 1, True), Block("k", 1, True)]
    z = np.diag([1.0, -1.0]).astype(complex)
    rows = [
        _trace_row("tr_x", 0, 2, 1.0),
        Row("z_x", 1, [(0, BlockMap("trace_against", d_in=2, d_out=1, mat=z))],
            np.ones((1, 1), dtype=complex)),
        _trace_row("tr_zero", 1, 2, 0.0),
        _trace_row("k", 3, 1, 2.0),
        Row("mix", 1, [(0, BlockMap("trace_against", d_in=2, d_out=1, mat=np.eye(2, dtype=complex))),
                       (2, _ident(1, -3.0)), (3, _ident(1, -0.5))], np.zeros((1, 1), dtype=complex)),
    ]
    return ConicFeasibilityProgram(blocks, rows)


def _line_program():
    # 1x1 blocks only, read with mixed signs
    blocks = [Block(f"h{i}", 1, True) for i in range(4)]
    rows = [
        Row("sum", 1, [(i, _ident(1)) for i in range(4)], np.ones((1, 1), dtype=complex)),
        Row("diff", 1, [(0, _ident(1)), (1, _ident(1, -2.0))], np.zeros((1, 1), dtype=complex)),
        Row("last", 1, [(3, _ident(1, 0.5))], np.full((1, 1), 0.1, dtype=complex)),
    ]
    return ConicFeasibilityProgram(blocks, rows)


_POLISH_CASES = {
    **{f"{pname}-{kind}-{eps}": (lambda pname=pname, kind=kind, eps=eps:
                                  BUILDERS[kind]({**PROBLEMS, **FAMILIES}[pname], 1, eps))
       for pname in ("deutsch", "pauli_id", "weyl3") for kind in ("primal", "primal_relaxed")
       for eps in (0.0, 0.1)},
    "rank_zero": _rank_zero_program,
    "half_lines": _line_program,
}


def _polish_start(prog, seed, sweeps):
    # the point a check hands the polish: sweeps from the solver's start
    eng = _Engine(prog.blocks, *assemble(prog.blocks, prog.rows))
    x = 0.1 * np.random.default_rng(seed).standard_normal(eng.n_cols)
    return eng, eng.project_cone(_run_ap(eng.project_affine, eng.project_cone, x, sweeps))


@pytest.mark.parametrize("case", list(_POLISH_CASES))
def test_face_polish_matches_per_block_reference_bitwise(case):
    # the polish on the packed buffer and the flat factor vector returns the
    # per-block polish's point bit for bit: from a check's point, and for
    # each rank guess, with and without the padding direction, from there
    prog = _POLISH_CASES[case]()
    lean = []
    for seed, sweeps in ((0, solver._FIRST_CHECK), (1, 4)):
        eng, x = _polish_start(prog, seed, sweeps)
        got, want = _face_polish(eng, x), _ref_face_polish(eng, x)
        assert _same_bits(got, want), (seed, sweeps)
        res = float(np.linalg.norm(eng.a @ x - eng.b, ord=np.inf))
        for extra in (0, 1):
            theta, ranks = _guess_factors(eng, x, extra, res)
            ref_ys = _ref_guess_factors(eng, x, extra, res)
            assert ranks.tolist() == [y.shape[1] for y in ref_ys]
            lean.append(ranks.tolist())
            assert _same_bits(theta, np.concatenate(
                [np.zeros(0)] + [np.ascontiguousarray(y.T).view(float).ravel() for y in ref_ys]))
            assert _same_bits(_gauss_newton(eng, theta, ranks), _ref_gauss_newton(eng, ref_ys))
    if case == "rank_zero":
        # the lean guess at the check's point
        assert lean[0] == [1, 0, 0, 1]


@pytest.mark.parametrize("case", ["rank_zero", "half_lines", "pauli_id-primal-0.1"])
def test_factor_set_matches_per_block_assembly_and_jacobian(case):
    # at random factors, signed zeros included, and random ranks, zero among
    # them: the packed assembly and the in-place Jacobian, the 1x1 blocks'
    # elementwise part included, equal the per-block ones bit for bit
    prog = _POLISH_CASES[case]()
    eng = _Engine(prog.blocks, *assemble(prog.blocks, prog.rows))
    rng = np.random.default_rng(23)
    for _ in range(4):
        ranks = rng.integers(0, eng._dims + 1)
        fac = _Factors(eng, ranks)
        theta = _with_signed_zeros(rng, fac.size)
        ys = fac.views(theta)
        per_block = [_factor_view(theta, int(lo), d, int(r))
                     for lo, d, r in zip(solver._factor_starts(eng, ranks), eng._dims, ranks)]
        assert _same_bits(fac.assemble(theta, ys), _ref_assemble_factors(eng, per_block))
        jac = np.zeros((eng.n_rows, fac.size))
        fac.jacobian(theta, ys, jac)
        ref = np.hstack([np.zeros((eng.n_rows, 0))] + [
            _factor_jacobian(y, *_row_matrices(eng.a[:, off : off + b.dim**2], b.dim), eng.n_rows)
            for y, b, off in zip(per_block, eng.blocks, eng.block_off)])
        assert _same_bits(jac, ref)


@pytest.mark.parametrize("builder", ["primal", "dual"])
@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_row_matrices_read_each_block_of_the_rows(builder, q, eps):
    # tr(C_k X) is row k's part of A x on the block, and the rows left out
    # do not read the block at all
    prog = BUILDERS[builder](PROBLEMS["deutsch"], q, eps)
    a, _, block_off = assemble(prog.blocks, prog.rows)
    rng = np.random.default_rng(q)
    for blk, off in zip(prog.blocks, block_off):
        a_blk = a[:, off : off + blk.dim * blk.dim]
        touch, c = _row_matrices(a_blk, blk.dim)
        assert c.shape == (len(touch), blk.dim, blk.dim)
        x = random_hermitian(rng, blk.dim)
        traces = np.einsum("kij,ji->k", c, x)
        assert np.allclose(traces.imag, 0.0, atol=1e-12)
        assert np.allclose(traces.real, (a_blk @ hvec(x))[touch], rtol=1e-12, atol=1e-12)
        assert not np.delete(a_blk, touch, axis=0).any()


def test_solve_small_feasible_program():
    # x PSD with tr x = 1 and <diag(1,-1), x> = 1 forces x = diag(1, 0)
    blocks = [Block("x", 2, True)]
    rows = [
        _trace_row("trace", 0, 2, 1.0),
        Row("pin", 1, [(0, BlockMap("trace_against", d_in=2, d_out=1,
                                    mat=np.diag([1.0, -1.0]).astype(complex)))],
            np.array([[1.0]], dtype=complex)),
    ]
    prog = ConicFeasibilityProgram(blocks, rows)
    out = solve(prog)
    assert out.status == "FEASIBLE"
    assert np.allclose(out.point["x"], np.diag([1.0, 0.0]), atol=1e-6)
    assert max(out.residuals.values()) <= 1e-7


def test_solve_reports_infeasibility_certificate():
    # tr x = -1 with x PSD has no solution
    blocks = [Block("x", 2, True)]
    rows = [_trace_row("trace", 0, 2, -1.0)]
    prog = ConicFeasibilityProgram(blocks, rows)
    out = solve(prog)
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
    assert set(out.certificate) == {"trace"}
    # Farkas check by hand: adjoint image PSD, pairing negative
    y = out.certificate["trace"]
    image = float(y[0, 0].real) * np.eye(2)
    assert np.linalg.eigvalsh(image)[0] >= -1e-7
    assert (y[0, 0] * -1.0).real < 0


def test_solve_is_deterministic():
    blocks = [Block("x", 3, True)]
    rows = [_trace_row("trace", 0, 3, 1.0)]
    prog = ConicFeasibilityProgram(blocks, rows)
    a = solve(prog, SolverConfig(seed=7))
    b = solve(prog, SolverConfig(seed=7))
    assert a.status == b.status == "FEASIBLE"
    assert a.iterations == b.iterations
    assert np.array_equal(a.point["x"], b.point["x"])


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("pname,q,eps", FEASIBLE_CELLS)
def test_feasible_means_polished_at_every_seed(pname, q, eps, seed):
    # a FEASIBLE point is polished at every solver seed, and reconstruction
    # can use it; deutsch q=1 eps=0.1 once stopped unpolished at seeds 4 and 5.
    # FEASIBLE promises 1e-10; the polish itself lands near 1e-14.
    res = reconstruct_algorithm(PROBLEMS[pname], q, eps, SolverConfig(seed=seed))
    assert max(res.outcome.residuals.values(), default=0.0) <= 1e-12


def test_solve_certificate_for_rhs_off_the_affine_range():
    # tr x = 1 and tr x = 2 clash before any cone enters
    blocks = [Block("x", 2, True)]
    rows = [_trace_row("one", 0, 2, 1.0), _trace_row("two", 0, 2, 2.0)]
    out = solve(ConicFeasibilityProgram(blocks, rows))
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
    assert out.iterations == 0
    pairing = sum(np.trace(r.rhs @ out.certificate[r.name]).real for r in rows)
    assert pairing == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(out.certificate["one"], [[1.0]], atol=1e-12)
    assert np.allclose(out.certificate["two"], [[-1.0]], atol=1e-12)


def test_certify_rejects_an_image_outside_the_dual_cone(deutsch, cached_solve):
    # -(I - J/4) on the init multiplier keeps the pairing (its right-hand
    # side is J, and tr(J (I - J/4)) = 0) but adds -(I - J/4), cut to each
    # class, to the image on each PSD share block: eigenvalues -1 and -1/2
    prog = build_primal(deutsch, 0, 0.0)
    cert = cached_solve("deutsch", "primal", 0, 0.0).certificate
    assert _certify(_farkas_alternative(prog), cert) is not None
    bent = dict(cert, init=cert["init"] - (np.eye(4) - np.ones((4, 4)) / 4))
    assert _certify(_farkas_alternative(prog), bent) is None


def test_certify_rejects_multipliers_over_the_norm_cap():
    # x = 1 and -x = 1 on one 1x1 PSD block: both multiplier sets pair to -1
    # with a PSD image, but the first one's norm is 1e9
    prog = ConicFeasibilityProgram(
        [Block("x", 1, True)],
        [Row("a", 1, [(0, _ident(1))], np.ones((1, 1), dtype=complex)),
         Row("b", 1, [(0, _ident(1, -1.0))], np.ones((1, 1), dtype=complex))])
    big = {"a": np.array([[1e9]], dtype=complex), "b": np.array([[-1e9 - 1]], dtype=complex)}
    assert _certify(_farkas_alternative(prog), big) is None
    small = {"a": np.zeros((1, 1), dtype=complex), "b": -np.ones((1, 1), dtype=complex)}
    cert = _certify(_farkas_alternative(prog), small)
    assert cert is not None
    assert np.allclose(cert["b"], -1.0)


def _haar_pairs():
    # four Haar-random qubit unitaries, asked which pair each belongs to
    rng = np.random.default_rng(1)
    us = []
    for _ in range(4):
        z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        us.append(q * (np.diag(r) / np.abs(np.diag(r))))
    labels = ("a", "b", "c", "d")
    return QueryProblem(2, labels, np.stack(us), ("0", "1"),
                        {"a": "0", "b": "0", "c": "1", "d": "1"})


def test_certificate_for_haar_pairs_at_two_queries():
    # the witness program is feasible, so this existence program is
    # infeasible; its certificate must come within the sweep budget
    p = _haar_pairs()
    out = solve(build_primal(p, 2, 0.1))
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
    rep = verify_point(build_dual(p, 2, 0.1), out.certificate)
    assert rep.max_residual <= 1e-8
    assert rep.min_block_eig >= -1e-8
    assert rep.strict_slack > 0


def _rotation(theta):
    # I against the real rotation R(theta), asked which: q queries succeed at
    # best with (1 + sin q theta) / 2, so q = 3, eps 0.1 is infeasible for
    # theta below 0.3091
    c, s = np.cos(theta), np.sin(theta)
    return QueryProblem(2, ("i", "r"), np.array([np.eye(2), [[c, -s], [s, c]]], dtype=complex),
                        ("a", "b"), {"i": "a", "r": "b"})


@pytest.mark.parametrize("exist,witness", [(build_primal, build_dual),
                                           (build_primal_relaxed, build_dual_relaxed)])
def test_rotation_certificates_come_within_the_budget(exist, witness):
    # near the boundary a certificate takes thousands of sweeps (4 096 and
    # 2 048 here), far more than any fixture cell
    p = _rotation(0.28)
    out = solve(exist(p, 3, 0.1))
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
    rep = verify_point(witness(p, 3, 0.1), out.certificate)
    assert rep.max_residual <= 1e-8
    assert rep.min_block_eig >= -1e-8
    assert rep.strict_slack > 0


def test_checks_grow_with_the_logarithm_of_the_sweeps(monkeypatch):
    # checks come at c, 2c, 4c, ... sweeps and on the budget, so a run that
    # decides nothing in 2 048 sweeps polishes and certifies at most
    # log2(2048 / c) + 1 times each
    monkeypatch.setattr(solver, "_MAX_ITERS", 2048)
    calls = {"_face_polish": 0, "_certify": 0}

    def counting(name, inner):
        def counted(*args):
            calls[name] += 1
            return inner(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    out = solve(build_primal(_rotation(0.3), 3, 0.1))
    assert (out.status, out.iterations) == ("UNDECIDED", 2048)
    most = math.log2(2048 / solver._FIRST_CHECK) + 1
    assert 0 < calls["_face_polish"] <= most
    assert 0 < calls["_certify"] <= most


def test_two_qubit_pauli_identification_needs_one_query():
    # pauli2: no query succeeds with at most 1/16, so the exact program is
    # certified at q = 0 and both witness programs have a point there, and
    # one query decides with certainty (superdense coding), so neither
    # witness program has a point at q = 1, at either eps
    p = _pauli2()
    out = solve(build_primal(p, 0, 0.0))
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
    rep = verify_point(build_dual(p, 0, 0.0), out.certificate)
    assert rep.max_residual <= 1e-8
    assert rep.min_block_eig >= -1e-8
    assert rep.strict_slack > 0
    alg = reconstruct_algorithm(p, 1, 0.0).algorithm
    # a 4-dimensional workspace, the ancilla of superdense coding
    assert alg.w_dim == 4
    assert success_report(run(alg, p), p, 0.0).min_success >= 1.0 - 1e-6
    want = {0: "FEASIBLE", 1: "INFEASIBLE_WITH_CERTIFICATE"}
    for build, q, eps in itertools.product((build_dual, build_dual_relaxed), (0, 1), (0.0, 0.1)):
        assert solve(build(p, q, eps)).status == want[q], (build.__name__, q, eps)


@pytest.mark.parametrize("q", [0, 1])
def test_weyl3_relaxed_pair_is_exclusive(q):
    # one side of the relaxed pair is FEASIBLE and the other certified: the
    # relaxed floor of qutrit Weyl identification is 1
    p = FAMILIES["weyl3"]
    exist = solve(build_primal_relaxed(p, q, 0.1))
    witness = solve(build_dual_relaxed(p, q, 0.1))
    want = ("INFEASIBLE_WITH_CERTIFICATE", "FEASIBLE") if q == 0 else (
        "FEASIBLE", "INFEASIBLE_WITH_CERTIFICATE")
    assert (exist.status, witness.status) == want


def _negative_trace(d):
    return Row("strict", 1, [(0, BlockMap("trace_against", d_in=d, d_out=1, scale=-1.0,
                                          mat=np.eye(d, dtype=complex)))],
               np.zeros((1, 1), dtype=complex), sense="strict")


def _unlinked_witness(wit):
    # a generated witness program's blocks and rows, without its existence program
    return ConicFeasibilityProgram(wit.blocks, wit.rows)


# Hand-written programs that are neither equality rows on PSD blocks nor a
# witness program generated from one, each with a strict row or a free block
_REJECTED = {
    # Hermitian y with y PSD and tr(-y) < 0
    "free_block_with_strict_row": lambda: ConicFeasibilityProgram(
        [Block("y", 2, False)],
        [Row("floor", 2, [(0, _ident(2))], np.zeros((2, 2), dtype=complex), sense="psd"),
         _negative_trace(2)]),
    "strict_row": lambda: ConicFeasibilityProgram(
        [Block("x", 2, True)], [_trace_row("trace", 0, 2, 1.0), _negative_trace(2)]),
    "free_only": lambda: ConicFeasibilityProgram(
        [Block("y", 2, False), Block("z", 3, False)],
        [_trace_row("ty", 0, 2, 1.0), _trace_row("tz", 1, 3, 2.0)]),
    "witness_copy": lambda: _unlinked_witness(build_dual(PROBLEMS["deutsch"], 0, 0.0)),
}


@pytest.mark.parametrize("case", list(_REJECTED))
def test_solve_rejects_programs_outside_its_forms(case):
    with pytest.raises(SolverError, match="equality rows on PSD blocks"):
        solve(_REJECTED[case]())


def test_witness_answers_swap_the_existence_answers(cached_solve):
    # a witness certificate is the existence point negated, bit for bit, with
    # multiplier 1 on the strict row; a witness point is the existence
    # certificate as it stands
    for cell in itertools.product(PROBLEMS, (0, 1, 2), (0.0, 0.1)):
        pname, q, eps = cell
        for exist_side, wit_side in (("primal", "dual"), ("primal_relaxed", "dual_relaxed")):
            exist = cached_solve(pname, exist_side, q, eps)
            wit = cached_solve(pname, wit_side, q, eps)
            assert wit.iterations == exist.iterations, (*cell, wit_side)
            if exist.status == "FEASIBLE":
                assert wit.status == "INFEASIBLE_WITH_CERTIFICATE" and wit.point is None
                rows = BUILDERS[wit_side](PROBLEMS[pname], q, eps).rows
                assert set(wit.certificate) == {r.name for r in rows}
                for name, y in wit.certificate.items():
                    want = np.ones((1, 1), dtype=complex) if name == "strict" else -exist.point[name]
                    assert _same_bits(y, want), (*cell, wit_side, name)
            else:
                assert exist.status == "INFEASIBLE_WITH_CERTIFICATE"
                assert wit.status == "FEASIBLE" and wit.certificate is None
                assert set(wit.point) == set(exist.certificate)
                for name, y in wit.point.items():
                    assert _same_bits(y, exist.certificate[name]), (*cell, wit_side, name)


def test_verify_point_flags_violations():
    blocks = [Block("x", 2, True)]
    rows = [_trace_row("trace", 0, 2, 1.0)]
    prog = ConicFeasibilityProgram(blocks, rows)
    rep = verify_point(prog, {"x": np.diag([2.0, 0.0]).astype(complex)})
    assert rep.row_residuals["trace"] == pytest.approx(1.0)
    assert not rep.within(1e-7)
    with pytest.raises(ValueError):
        verify_point(prog, {"x": np.eye(3, dtype=complex)})


def test_verify_point_stacks_eigenvalues_in_program_order():
    # PSD blocks of dimensions 1, 2 and 3 interleave with a free block, and
    # PSD rows of dimensions 3 and 2 with an equality row: every least
    # eigenvalue keeps its name and place and equals the per-matrix eigh's
    rng = np.random.default_rng(12)
    dims = [2, 1, 3, 1, 2, 3]
    blocks = [Block(f"b{i}", d, True) for i, d in enumerate(dims)]
    blocks.insert(3, Block("free", 2, False))
    rows = [
        Row("wide", 3, [(2, _ident(3)), (6, _ident(3, -0.5))], random_hermitian(rng, 3), sense="psd"),
        Row("eq", 2, [(3, _ident(2))], np.zeros((2, 2), dtype=complex)),
        Row("narrow", 2, [(0, _ident(2)), (5, _ident(2, 2.0))], random_hermitian(rng, 2), sense="psd"),
        Row("wide_too", 3, [(6, _ident(3))], np.zeros((3, 3), dtype=complex), sense="psd"),
    ]
    prog = ConicFeasibilityProgram(blocks, rows)
    point = {blk.name: random_hermitian(rng, blk.dim) for blk in blocks}
    rep = verify_point(prog, point)
    assert list(rep.block_min_eigs) == [blk.name for blk in blocks if blk.psd]
    assert list(rep.row_residuals) == [r.name for r in rows]
    for blk in blocks:
        if blk.psd:
            assert rep.block_min_eigs[blk.name] == float(np.linalg.eigh(hermitize(point[blk.name]))[0][0])
    for r in rows:
        diff = prog.row_value(r, point) - r.rhs
        if r.sense == "psd":
            want = float(max(0.0, -np.linalg.eigh(hermitize(diff))[0][0]))
        else:
            want = float(np.linalg.norm(diff))
        assert rep.row_residuals[r.name] == want
    assert min(rep.row_residuals.values()) > 0.0 and rep.min_block_eig < 0.0


def test_weak_duality_pairing_is_negative_on_certificates(deutsch, cached_solve):
    out = cached_solve("deutsch", "primal", 0, 0.0)
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
    # a verified certificate pairs with the right-hand side to -1
    prog = build_primal(deutsch, 0, 0.0)
    pairing = sum(np.trace(r.rhs @ out.certificate[r.name]).real
                  for r in prog.rows)
    assert pairing == pytest.approx(-1.0, abs=1e-6)


def test_certificates_start_at_the_first_check(cached_solve):
    # the Farkas iterate sweeps from the first check on, and the checks
    # double from there, so every certificate of the criterion-01 grid comes
    # by 64 sweeps; none waits 1000 primal sweeps for its search to start
    late = []
    for cell in itertools.product(PROBLEMS, BUILDERS, (0, 1, 2), (0.0, 0.1)):
        out = cached_solve(*cell)
        if out.status == "INFEASIBLE_WITH_CERTIFICATE" and out.iterations >= 1000:
            late.append((*cell, out.iterations))
    assert late == []


def test_outcome_shape():
    blocks = [Block("x", 2, True)]
    rows = [_trace_row("trace", 0, 2, 1.0)]
    out = solve(ConicFeasibilityProgram(blocks, rows))
    assert isinstance(out, FeasibilityOutcome)
    assert out.certificate is None
    assert out.iterations >= 1
    assert set(out.residuals) == {"trace"}
