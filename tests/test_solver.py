import dataclasses
import itertools
import math
import tracemalloc
import warnings

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
    reachable_span,
    _farkas_alternative,
)
from qqc.reconstruct import reconstruct_algorithm
from qqc.simulate import run, success_report
from qqc import solver
from qqc.solver import (
    FeasibilityOutcome,
    PointReport,
    SolverConfig,
    SolverError,
    _Engine,
    _assembly,
    _certify,
    _decisions,
    _engine,
    _face_polish,
    _factor_jacobian,
    _factor_view,
    _Factors,
    _gauss_newton,
    _guess_factors,
    _n_coords,
    _real_form,
    _row_matrices,
    _run_ap,
    assemble,
    hvec,
    solve,
    unhvec,
    verify_point,
)

from conftest import (
    BUILDERS, FAMILIES, FEASIBLE_CELLS, PROBLEMS, START_FACE_PROBLEMS, full_span_copy,
)


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


@pytest.mark.parametrize("flip", ["transpose", "conjugate transpose"])
def test_hvec_of_a_transposed_stack_is_that_of_its_contiguous_copy(flip):
    # 64 matrices of 16x16: a strided stack gives the bits of the contiguous
    # copy's gather
    rng = np.random.default_rng(3)
    m = rng.standard_normal((64, 16, 16)) + 1j * rng.standard_normal((64, 16, 16))
    x = m.swapaxes(-1, -2) if flip == "transpose" else m.conj().swapaxes(-1, -2)
    assert not x.flags.c_contiguous
    assert _same_bits(hvec(x), hvec(np.ascontiguousarray(x)))


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_real_coordinates_are_the_leading_hermitian_ones(d):
    # a real symmetric matrix's coordinates are the leading d(d+1)/2 of
    # hvec's, and unhvec of them is the real part of the Hermitian unhvec
    # with the imaginary coordinates zero
    rng = np.random.default_rng(d)
    n = d * (d + 1) // 2
    assert _n_coords(d, True) == n and _n_coords(d) == d * d
    v = _with_signed_zeros(rng, (4, n))
    full = np.concatenate([v, np.zeros((4, d * d - n))], axis=-1)
    assert _same_bits(unhvec(v, d, real=True), unhvec(full, d).real.copy())
    with pytest.raises(ValueError, match="coordinate vector"):
        unhvec(np.zeros((4, n + 1)), d, real=True)


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


def _assemble_by_basis(blocks, rows, by_rows=False):
    """Reference assembly, one basis matrix B_k = unhvec(e_k) at a time:
    column k of a term is hvec of its map at B_k, over the block's basis;
    with `by_rows`, a term whose row is smaller than its block is built
    from the row side instead, row k being hvec of the adjoint at B_k over
    the row's basis, as `assemble` does."""
    block_off = np.cumsum([0] + [blk.dim**2 for blk in blocks])
    row_off = np.cumsum([0] + [r.dim**2 for r in rows])
    a = np.zeros((row_off[-1], block_off[-1]))
    for ri, r in enumerate(rows):
        for bj, m in r.terms:
            d = blocks[bj].dim
            part = a[row_off[ri] : row_off[ri + 1], block_off[bj] : block_off[bj] + d * d]
            if by_rows and r.dim < d:
                for k in range(r.dim**2):
                    part[k] += hvec(m.adjoint().apply(unhvec(np.eye(r.dim**2)[k], r.dim)))
            else:
                for k in range(d * d):
                    part[:, k] += hvec(m.apply(unhvec(np.eye(d * d)[k], d)))
    b = np.concatenate([hvec(r.rhs) for r in rows])
    return a, b


_REFERENCE_CASES = [(pname, builder, q, eps)
                    for pname in [*PROBLEMS, *FAMILIES] for builder in BUILDERS
                    for q in range(2 if pname == "weyl3" else 3) for eps in (0.0, 0.1)]


@pytest.mark.parametrize("pname,builder,q,eps", _REFERENCE_CASES)
def test_assemble_matches_column_reference(pname, builder, q, eps):
    # a term whose row is smaller than its block is built from the row side,
    # hvec(m-adjoint(B_k)), with the same bits as the one-at-a-time
    # reference of that side. The two sides agree to within two ulps of
    # one: on the witness programs' own rows (their 1x1 trace rows read
    # all-ones matrices), and on the relaxed pair rows, whose congruence
    # carries the oracle's phases (weyl3's e^{2 pi i/3}), and on the success
    # rows of an exact program whose shares sit on a proper reachable span E,
    # which read E† E_ii E; on the other exact existence programs they give
    # the same bits
    p = FAMILIES[pname] if pname in FAMILIES else PROBLEMS[pname]
    prog = BUILDERS[builder](p, q, eps)
    blocks, rows = prog.blocks, prog.rows
    a, b, _ = assemble(blocks, rows)
    side_a, ref_b = _assemble_by_basis(blocks, rows, by_rows=True)
    assert _same_bits(b, ref_b)
    assert _same_bits(a, side_a)
    ref_a, _ = _assemble_by_basis(blocks, rows)
    assert np.max(np.abs(a - ref_a)) <= 4.4e-16
    on_span = eps and q and reachable_span(p, q).shape[1] < p.size
    if builder == "primal" and not on_span:
        assert _same_bits(a, ref_a)


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


@pytest.mark.parametrize("case", ["deutsch_primal", "weyl3_primal", "deutsch_primal-real"])
def test_project_cone_matches_per_block_reference(case):
    # deutsch at q=2 mixes the 2x2 start state and shares (on its reachable
    # span) with an 8x8 state block and 1x1 success slacks; weyl3 at q=2 has
    # a 27x27 state block next to the 3x3 start state, 9x9 shares and 1x1
    # success slacks, which take the clipping path; deutsch splits, and its
    # real form projects real symmetric blocks
    if case.startswith("deutsch_primal"):
        prog = BUILDERS["primal"](PROBLEMS["deutsch"], 2, 0.1)
        dims = {1, 2, 8}
    else:
        prog = BUILDERS["primal"](FAMILIES["weyl3"], 2, 0.1)
        dims = {1, 3, 9, 27}
    blocks = prog.blocks
    real = case.endswith("-real")
    eng = _engine(prog) if real else _Engine(blocks, *assemble(blocks, prog.rows))
    assert eng.real == real
    assert {b.dim for b in blocks} == dims

    def per_block(x):
        # from the written-out coordinate formula, not the maps the engine
        # calls; a real block's coordinates lead its Hermitian ones, and it
        # is projected by a float eigh
        out = x.copy()
        for b, off in zip(blocks, eng.block_off):
            n = _n_coords(b.dim, real)
            m = _unhvec_reference(np.pad(x[off : off + n], (0, b.dim**2 - n)), b.dim)
            w, v = np.linalg.eigh(m.real if real else hermitize(m))
            out[off : off + n] = _hvec_reference((v * np.clip(w, 0.0, None)) @ v.conj().T)[:n]
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


# deutsch at q=2: dims 2 and 8; weyl3 at q=2: dims 1, 3, 9, 27; then 1x1
# blocks only
_PACKED_CASES = {
    "deutsch_primal_relaxed": lambda: BUILDERS["primal_relaxed"](PROBLEMS["deutsch"], 2, 0.1),
    "weyl3_primal": lambda: BUILDERS["primal"](FAMILIES["weyl3"], 2, 0.1),
    "half_lines": lambda: ConicFeasibilityProgram(
        [Block(f"h{i}", 1, True) for i in range(3)],
        [Row("sum", 1, [(i, _ident(1)) for i in range(3)], np.ones((1, 1), dtype=complex))]),
}


@pytest.mark.parametrize("case", [*_PACKED_CASES, "deutsch_primal_relaxed-real", "half_lines-real",
                                  *(f"{c}-fallback" for c in ("deutsch_primal_relaxed", "weyl3_primal",
                                                              "deutsch_primal_relaxed-real"))])
def test_packed_cone_step_matches_grouped_projection_bitwise(monkeypatch, case):
    # the grouped projection written out: per dimension, unhvec of the
    # gathered coordinates, one stacked eigh, clipping and hvec scattered
    # back; the 1x1 blocks on the half-line. On the real form the matrices
    # are real symmetric and the eigh is a float one. "-fallback" runs the
    # cone step through numpy's eigh, the binding of a numpy without the
    # LAPACK gufunc.
    if case.endswith("-fallback"):
        monkeypatch.setattr(solver, "_eigh", np.linalg.eigh)
    case = case.removesuffix("-fallback")
    real = case.endswith("-real")
    prog = _PACKED_CASES[case.removesuffix("-real")]()
    eng = _engine(prog) if real else _Engine(prog.blocks, *assemble(prog.blocks, prog.rows))
    assert eng.real == real
    groups = {}
    for blk, off in zip(prog.blocks, eng.block_off):
        groups.setdefault(blk.dim, []).append(off)

    def grouped(x):
        out = x.copy()
        for d, offs in groups.items():
            idx = np.add.outer(offs, np.arange(_n_coords(d, real)))
            if d == 1:
                out[idx] = np.maximum(x[idx], 0.0)
                continue
            w, v = np.linalg.eigh(unhvec(x[idx], d, real))
            np.clip(w, 0.0, None, out=w)
            out[idx] = hvec((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2))[..., : idx.shape[1]]
        return out

    rng = np.random.default_rng(17)
    for _ in range(3):
        x = _with_signed_zeros(rng, eng.n_cols)
        want = grouped(x)
        got = eng.project_cone(x)
        assert np.array_equal(got, want) and _same_bits(got, want)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("step", ["primal", "farkas", "check"])
def test_cone_step_nonconvergence_raises(real, step):
    # a NaN spreads through the affine step to every block, and LAPACK does
    # not converge on the 4x4 ones (ix's state block at q=2): a sweep chunk
    # of either pair, and a check's own cone step, raise LinAlgError as
    # numpy's eigh does, and warn of nothing
    prog = build_primal(PROBLEMS["ix"], 2, 0.1)
    eng = _engine(prog) if real else _Engine(prog.blocks, *assemble(prog.blocks, prog.rows))
    assert eng.real == real and 4 in {d for _, d, *_ in eng._cone_slices}
    x = np.zeros(eng.n_cols)
    x[0] = np.nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError):
            if step == "check":
                eng.cone_point(eng.project_affine(x))
            else:
                affine = eng.project_affine if step == "primal" else eng.project_dual_affine
                _run_ap(affine, eng.project_cone, x, 4)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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

# On a real engine the factors are real and the reference runs in floats.

def _ref_assemble_factors(eng, ys):
    x = np.zeros(eng.n_cols)
    for y, b, off in zip(ys, eng.blocks, eng.block_off):
        n = _n_coords(b.dim, eng.real)
        x[off : off + n] = hvec(y @ y.conj().T)[:n]
    return x


def _ref_step_factors(ys, step, real=False):
    out = []
    k = 0
    for y in ys:
        d, r = y.shape
        if real:
            out.append(y + step[k : k + d * r].reshape(r, d).T)
            k += d * r
            continue
        seq = step[k : k + 2 * d * r].reshape(r, d, 2)
        out.append(y + (seq[..., 0] + 1j * seq[..., 1]).T)
        k += 2 * d * r
    return out


def _ref_gauss_newton(eng, ys):
    x = _ref_assemble_factors(eng, ys)
    r = eng.a @ x - eng.b
    rn = float(np.linalg.norm(r))
    floor = 1e-15 * max(1.0, float(np.linalg.norm(eng.b)))
    lin = [_row_matrices(eng.a[:, off : off + _n_coords(b.dim, eng.real)], b.dim, eng.real)
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
            trial = _ref_step_factors(ys, t * step, eng.real)
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


def _ref_guess_factors(eng, x, res):
    ys = []
    for b, off in zip(eng.blocks, eng.block_off):
        w, v = np.linalg.eigh(unhvec(x[off : off + _n_coords(b.dim, eng.real)], b.dim, eng.real))
        cut = max(max(w[-1], 0.0) * solver._FACE_REL_TOL, solver._FACE_RES_FACTOR * res)
        keep = w > cut
        ys.append(v[:, keep] * np.sqrt(w[keep]))
    return ys


def _ref_face_polish(eng, x):
    # one run from the guessed factors, kept only when it lowers the residual
    def residual(v):
        return float(np.linalg.norm(eng.a @ v - eng.b, ord=np.inf))

    res = residual(x)
    if res < 1e-13:
        return x
    cand = _ref_gauss_newton(eng, _ref_guess_factors(eng, x, res))
    return cand if residual(cand) < res else x


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
    "all_equal-primal-0.1": lambda: build_primal(START_FACE_PROBLEMS["all_equal"], 1, 0.1),
    # the shares as full 8x8 blocks, off the reachable span
    "all_equal_full-primal-0.1":
        lambda: build_primal(full_span_copy(START_FACE_PROBLEMS["all_equal"]), 1, 0.1),
    "rank_zero": _rank_zero_program,
    "half_lines": _line_program,
}


# cases that also run on the real form, whose programs all split
_REAL_POLISH_CASES = ["deutsch-primal-0.1", "deutsch-primal_relaxed-0.0", "all_equal-primal-0.1",
                      "all_equal_full-primal-0.1", "rank_zero", "half_lines"]


def _case_engine(case):
    # the engine of a polish case: "<case>-real" is the case's real form
    real = case.endswith("-real")
    prog = _POLISH_CASES[case.removesuffix("-real")]()
    eng = _engine(prog) if real else _Engine(prog.blocks, *assemble(prog.blocks, prog.rows))
    assert eng.real == real
    return eng


def _polish_start(eng, seed, sweeps):
    # the point a check hands the polish: sweeps from the solver's start
    x = 0.1 * np.random.default_rng(seed).standard_normal(eng.n_cols)
    return eng.project_cone(_run_ap(eng.project_affine, eng.project_cone, x, sweeps))


@pytest.mark.parametrize("case", [*_POLISH_CASES, *(f"{c}-real" for c in _REAL_POLISH_CASES)])
def test_face_polish_matches_per_block_reference_bitwise(case):
    # the polish on the packed buffer and the flat factor vector returns the
    # per-block polish's point bit for bit: from a check's point, and for
    # the rank guess and its Gauss-Newton run from there
    eng = _case_engine(case)
    guessed = []
    for seed, sweeps in [(0, solver._FIRST_CHECK), (1, 4)]:
        x = _polish_start(eng, seed, sweeps)
        assert _same_bits(_face_polish(eng, x), _ref_face_polish(eng, x)), (seed, sweeps)
        res = float(np.linalg.norm(eng.a @ x - eng.b, ord=np.inf))
        theta, ranks = _guess_factors(eng, x, res)
        ref_ys = _ref_guess_factors(eng, x, res)
        assert ranks.tolist() == [y.shape[1] for y in ref_ys]
        guessed.append(ranks.tolist())
        assert _same_bits(theta, np.concatenate(
            [np.zeros(0)] + [np.ascontiguousarray(y.T).view(float).ravel() for y in ref_ys]))
        assert _same_bits(_gauss_newton(eng, theta, ranks), _ref_gauss_newton(eng, ref_ys))
    if case.startswith("rank_zero"):
        # the guess at the check's point
        assert guessed[0] == [1, 0, 0, 1]


@pytest.mark.parametrize("case", ["rank_zero", "half_lines", "pauli_id-primal-0.1", "rank_zero-real",
                                  "half_lines-real", "deutsch-primal-0.1-real"])
def test_factor_set_matches_per_block_assembly_and_jacobian(case):
    # at random factors, signed zeros included, and random ranks, zero among
    # them: the packed assembly and the in-place Jacobian, the 1x1 blocks'
    # elementwise part included, equal the per-block ones bit for bit
    eng = _case_engine(case)
    rng = np.random.default_rng(23)
    for _ in range(4):
        ranks = rng.integers(0, eng._dims + 1)
        fac = _Factors(eng, ranks)
        theta = _with_signed_zeros(rng, fac.size)
        ys = fac.views(theta)
        per_block = [_factor_view(theta, int(lo), d, int(r), eng.real)
                     for lo, d, r in zip(solver._factor_starts(eng, ranks), eng._dims, ranks)]
        assert _same_bits(fac.assemble(theta, ys), _ref_assemble_factors(eng, per_block))
        jac = np.zeros((eng.n_rows, fac.size))
        fac.jacobian(theta, ys, jac)
        ref = np.hstack([np.zeros((eng.n_rows, 0))] + [
            _factor_jacobian(y, *_row_matrices(eng.a[:, off : off + _n_coords(b.dim, eng.real)], b.dim,
                                               eng.real), eng.n_rows)
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


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("pname", [*PROBLEMS, *FAMILIES])
def test_programs_of_real_problems_take_the_real_form(pname, q, eps):
    # the fixtures have real unitaries; the Pauli and Weyl families do not,
    # but at q = 0 no program reads a unitary. A witness program is decided
    # through its existence program, so it takes that program's form.
    p = {**PROBLEMS, **FAMILIES}[pname]
    real = pname in PROBLEMS or q == 0
    for builder in BUILDERS.values():
        prog = builder(p, q, eps)
        prog = prog.existence or prog
        a, b, _ = assemble(prog.blocks, prog.rows)
        split = _real_form(prog.blocks, prog.rows, a, b)
        assert (split is not None) == real, builder.__name__
        eng = _engine(prog)
        assert eng.real == real
        if real:
            assert eng.a.shape == (sum(_n_coords(r.dim, True) for r in prog.rows),
                                   sum(_n_coords(blk.dim, True) for blk in prog.blocks))
            assert eng.block_off == solver._offsets(prog.blocks, True)[:-1]
        else:
            assert eng.a.shape == a.shape


def test_an_imaginary_right_hand_side_keeps_the_program_complex():
    # real maps, but a right-hand side with an imaginary off-diagonal entry:
    # conjugation does not fix the affine set, and its only point is complex
    rhs = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    for want, value in ((False, rhs), (True, rhs.real.astype(complex))):
        prog = ConicFeasibilityProgram([Block("x", 2, True)], [Row("pin", 2, [(0, _ident(2))], value)])
        assert _engine(prog).real == want
        out = solve(prog)
        assert out.status == "FEASIBLE"
        assert np.allclose(out.point["x"], value, atol=1e-10)


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
    # a copy keeps no decision, so it decides again
    b = solve(dataclasses.replace(prog), SolverConfig(seed=7))
    assert a.status == b.status == "FEASIBLE"
    assert a.iterations == b.iterations
    assert np.array_equal(a.point["x"], b.point["x"])


def _outcome_bytes(out):
    parts = [out.status.encode(), str(out.iterations).encode()]
    for blocks in (out.point, out.certificate):
        for name in sorted(blocks or {}):
            parts += [name.encode(), np.ascontiguousarray(blocks[name]).tobytes()]
    return b"|".join(parts)


@pytest.mark.parametrize("build", [build_primal, build_dual, build_primal_relaxed, build_dual_relaxed],
                         ids=lambda b: b.__name__)
@pytest.mark.parametrize("pname,q,eps", [("deutsch", 1, 0.1), ("or2", 1, 0.0), ("pauli_id", 1, 0.1)])
def test_a_second_solve_on_the_shared_engine_gives_the_same_bytes(build, pname, q, eps):
    # a copy of the problem has nothing cached, so the first solve builds
    # the engine and the second reuses it
    p = dataclasses.replace({**PROBLEMS, **FAMILIES}[pname])
    prog = build(p, q, eps)
    existence = prog.existence or prog
    assert "_engine" not in existence.derived
    first = solve(prog, SolverConfig(seed=3))
    eng = _engine(existence)
    # the kept decision goes, so the second solve decides again
    del existence.derived["_decisions"]
    second = solve(prog, SolverConfig(seed=3))
    assert _engine(existence) is eng
    assert _outcome_bytes(second) == _outcome_bytes(first)
    assert first.status != "UNDECIDED"


@pytest.mark.parametrize("pname,q,eps,real", [("deutsch", 1, 0.1, True), ("deutsch", 0, 0.0, True),
                                              ("pauli_id", 1, 0.1, False)])
def test_the_shared_assembly_and_engine_refuse_writes(pname, q, eps, real):
    p = dataclasses.replace({**PROBLEMS, **FAMILIES}[pname])
    prog = build_primal(p, q, eps)
    assert solve(prog).status != "UNDECIDED"
    a, b, _ = _assembly(prog)
    eng = _engine(prog)
    assert eng.real is real
    # a complex engine runs on the assembly itself, the real form on a copy
    assert (eng.a is a) is not real
    frozen = [a, b, eng.a, eng.b, eng._lift, eng._x0, eng._dims, eng._pack_at, eng._cone_src,
              eng._cone_inv_scale, eng._cone_diag_imag, eng._cone_at, eng._cone_scale,
              eng._line_blocks, *(js for *_, js in eng._cone_slices),
              *itertools.chain.from_iterable(filter(None, eng._row_mats))]
    for arr in frozen:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0] if arr.size else 0


def test_a_copied_program_has_no_engine():
    # derived data are not a field: dataclasses.replace starts the copy
    # empty, and its own engine gives the same answer
    p = dataclasses.replace(PROBLEMS["deutsch"])
    prog = build_primal(p, 1, 0.1)
    out = solve(prog)
    assert set(prog.derived) >= {"_assembly", "_engine", "_farkas_alternative"}
    copy = dataclasses.replace(prog)
    assert copy.derived == {}
    assert copy.rows is prog.rows
    assert _outcome_bytes(solve(copy)) == _outcome_bytes(out)
    assert _engine(copy) is not _engine(prog)
    assert _assembly(copy)[0] is not _assembly(prog)[0]


def test_solve_of_an_existence_program_reuses_its_witness_program():
    p = dataclasses.replace(PROBLEMS["or2"])
    prog = build_primal(p, 1, 0.1)
    out = solve(prog)
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
    witness = prog.derived["_farkas_alternative"]
    assert witness is build_dual(p, 1, 0.1) and witness.existence is prog
    solve(prog)
    assert prog.derived["_farkas_alternative"] is witness


def _count_sweep_chunks(monkeypatch):
    chunks = [0]

    def counted(*args):
        chunks[0] += 1
        return _run_ap(*args)

    monkeypatch.setattr(solver, "_run_ap", counted)
    return chunks


@pytest.mark.parametrize("pname,status", [("deutsch", "FEASIBLE"), ("or2", "INFEASIBLE_WITH_CERTIFICATE")])
def test_one_decision_answers_both_sides_of_a_cell(monkeypatch, pname, status):
    # the witness program is decided through its existence program, which
    # keeps the decision: neither the witness solve nor a repeat sweeps
    chunks = _count_sweep_chunks(monkeypatch)
    p = dataclasses.replace(PROBLEMS[pname])
    exist = solve(build_primal(p, 1, 0.1))
    assert exist.status == status and exist.iterations > 0 and chunks[0] > 0
    chunks[0] = 0
    wit = solve(build_dual(p, 1, 0.1))
    again = solve(build_primal(p, 1, 0.1))
    assert chunks[0] == 0
    assert wit.status != status and wit.iterations == exist.iterations
    assert _outcome_bytes(again) == _outcome_bytes(exist)


def test_a_second_seed_makes_a_decision_of_its_own(monkeypatch):
    chunks = _count_sweep_chunks(monkeypatch)
    prog = build_primal(dataclasses.replace(PROBLEMS["deutsch"]), 1, 0.1)
    first = solve(prog, SolverConfig(seed=0))
    swept = chunks[0]
    second = solve(prog, SolverConfig(seed=1))
    assert chunks[0] > swept > 0
    assert set(_decisions(prog)) == {0, 1}
    assert first.status == second.status == "FEASIBLE"
    assert _outcome_bytes(first) != _outcome_bytes(second)


@pytest.mark.parametrize("pname", ["deutsch", "or2"])
def test_the_kept_arrays_refuse_writes(pname):
    # deutsch's existence program has a point at q=1, eps 0.1, or2's a
    # certificate; the outcome hands the kept arrays out as they are
    prog = build_primal(dataclasses.replace(PROBLEMS[pname]), 1, 0.1)
    out = solve(prog)
    (kept, _), = _decisions(prog).values()
    blocks = kept.point or kept.certificate
    handed = out.point or out.certificate
    assert blocks and handed is not blocks
    assert all(handed[name] is arr for name, arr in blocks.items())
    for arr in blocks.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0


@pytest.mark.parametrize("build", [build_primal, build_dual], ids=lambda b: b.__name__)
@pytest.mark.parametrize("pname", ["deutsch", "or2"])
def test_an_edit_to_one_outcome_reaches_no_other(build, pname):
    prog = build(dataclasses.replace(PROBLEMS[pname]), 1, 0.1)
    first = solve(prog)
    want = _outcome_bytes(first)
    residuals = dict(first.residuals)
    blocks = first.point or first.certificate
    for name in blocks:
        blocks[name] = np.full_like(blocks[name], np.nan)
    for name in first.residuals:
        first.residuals[name] = math.nan
    second = solve(prog)
    assert _outcome_bytes(second) == want
    assert second.residuals == residuals
    assert (second.point or second.certificate) is not blocks


def test_a_decision_that_raises_is_kept_nowhere(monkeypatch):
    # a non-finite iterate raises LinAlgError at the first check, after one
    # sweep, on every call: a failed decision is not kept
    chunks = []

    def poisoned(affine, cone, x, iters):
        x = x.copy()
        x[0] = np.nan
        chunks.append(iters)
        return _run_ap(affine, cone, x, iters)

    monkeypatch.setattr(solver, "_run_ap", poisoned)
    prog = build_primal(dataclasses.replace(PROBLEMS["deutsch"]), 1, 0.1)
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError):
            solve(prog)
    assert chunks == [1] * 2
    assert _decisions(prog) == {}


_OTHER_SIDE = {"primal": "dual", "dual": "primal",
               "primal_relaxed": "dual_relaxed", "dual_relaxed": "primal_relaxed"}


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("pname,q,eps", [("deutsch", 1, 0.1), ("or2", 1, 0.0), ("pauli_id", 1, 0.1)])
def test_a_kept_decision_gives_the_bytes_of_a_fresh_one(builder, pname, q, eps):
    # a program solved on a fresh problem, against the same program whose
    # cell the other side has already decided
    cfg = SolverConfig(seed=3)
    base = {**PROBLEMS, **FAMILIES}[pname]
    fresh = solve(BUILDERS[builder](dataclasses.replace(base), q, eps), cfg)
    p = dataclasses.replace(base)
    prog = BUILDERS[builder](p, q, eps)
    solve(BUILDERS[_OTHER_SIDE[builder]](p, q, eps), cfg)
    assert set(_decisions(prog.existence or prog)) == {3}
    kept = solve(prog, cfg)
    assert fresh.status != "UNDECIDED"
    assert _outcome_bytes(kept) == _outcome_bytes(fresh)
    assert list(kept.residuals) == list(fresh.residuals)
    assert _same_bits(np.array(list(kept.residuals.values())), np.array(list(fresh.residuals.values())))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("pname,q,eps", FEASIBLE_CELLS)
def test_feasible_means_polished_at_every_seed(pname, q, eps, seed):
    # a FEASIBLE point meets every row at every solver seed, and
    # reconstruction can use it; deutsch q=1 eps=0.1 once stopped unpolished
    # at seeds 4 and 5. FEASIBLE promises 1e-10; the plain point and the
    # polish land near 1e-14.
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
    found = _certify(_farkas_alternative(prog), small)
    assert found is not None
    assert np.allclose(found[0]["b"], -1.0)


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


@pytest.mark.parametrize("exist,witness,most", [
    pytest.param(build_primal, build_dual, 4096, id="build_primal-build_dual"),
    pytest.param(build_primal_relaxed, build_dual_relaxed, 2048,
                 id="build_primal_relaxed-build_dual_relaxed"),
])
def test_rotation_certificates_come_within_the_budget(exist, witness, most):
    # near the boundary a certificate takes thousands of sweeps (at theta
    # 0.305, 4 096 exact and 2 048 relaxed), far more than any fixture cell;
    # there the Farkas iterate alone does not finish within the budget, and
    # a check's displacement from the affine set certifies
    for theta in (0.28, 0.3, 0.305):
        p = _rotation(theta)
        out = solve(exist(p, 3, 0.1))
        assert out.status == "INFEASIBLE_WITH_CERTIFICATE", theta
        assert out.iterations <= most, theta
        rep = verify_point(witness(p, 3, 0.1), out.certificate)
        assert rep.max_residual <= 1e-8
        assert rep.min_block_eig >= -1e-8
        assert rep.strict_slack > 0


def test_checks_grow_with_the_logarithm_of_the_sweeps(monkeypatch):
    # checks come at c, 2c, 4c, ... sweeps and on the budget, so a run that
    # decides nothing in 1 024 sweeps polishes and certifies at most
    # log2(1024 / c) + 1 times each; R(0.3) exact is decided at 2 048
    monkeypatch.setattr(solver, "_MAX_ITERS", 1024)
    calls = {"_face_polish": 0, "_certify": 0}

    def counting(name, inner):
        def counted(*args):
            calls[name] += 1
            return inner(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    out = solve(build_primal(_rotation(0.3), 3, 0.1))
    assert (out.status, out.iterations) == ("UNDECIDED", 1024)
    most = math.log2(1024 / solver._FIRST_CHECK) + 1
    assert 0 < calls["_face_polish"] <= most
    assert 0 < calls["_certify"] <= most


def test_each_polish_is_one_gauss_newton_run(monkeypatch):
    # R(0.3) exact sits near its boundary: each full check from 32 sweeps to
    # its certificate at 2 048 polishes a point the rank guess cannot
    # finish, with one Gauss-Newton run
    runs = []
    gauss_newton, face_polish = solver._gauss_newton, solver._face_polish

    def counted_run(*args):
        runs[-1] += 1
        return gauss_newton(*args)

    def counted_polish(*args):
        runs.append(0)
        return face_polish(*args)

    monkeypatch.setattr(solver, "_gauss_newton", counted_run)
    monkeypatch.setattr(solver, "_face_polish", counted_polish)
    out = solve(build_primal(_rotation(0.3), 3, 0.1))
    assert (out.status, out.iterations) == ("INFEASIBLE_WITH_CERTIFICATE", 2048)
    assert runs == [1] * 7


def test_an_undecided_witness_program_reports_its_existence_rows(monkeypatch):
    # a witness program decided through its existence program passes an
    # UNDECIDED answer on as it stands, residuals keyed by the existence rows
    monkeypatch.setattr(solver, "_MAX_ITERS", 64)
    prog = build_dual(_rotation(0.3), 3, 0.1)
    out = solve(prog)
    assert (out.status, out.iterations) == ("UNDECIDED", 64)
    assert out.point is None and out.certificate is None
    assert list(out.residuals) == [r.name for r in prog.existence.rows]


def _count_lstsq(monkeypatch):
    calls = [0]
    inner = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


@pytest.mark.parametrize("pname,q,eps", [("pauli_id", 1, 0.1), ("weyl3", 1, 0.1), ("deutsch", 1, 0.0)])
def test_a_cell_with_an_interior_is_decided_unpolished(monkeypatch, pname, q, eps):
    # alternating projections converge linearly on a cell with an interior,
    # so the plain point P_K(P_A x) meets every row at an early check, with
    # no Gauss-Newton step
    calls = _count_lstsq(monkeypatch)
    prog = build_primal(dataclasses.replace({**PROBLEMS, **FAMILIES}[pname]), q, eps)
    out = solve(prog)
    assert out.status == "FEASIBLE" and out.iterations < solver._FIRST_CHECK
    assert calls[0] == 0
    rep = verify_point(prog, out.point)
    assert rep.max_residual <= solver._POLISHED_TOL
    assert rep.min_block_eig >= -1e-12


@pytest.mark.parametrize("problem,q", [(PROBLEMS["deutsch"], 2), (START_FACE_PROBLEMS["all_equal"], 1)],
                         ids=["deutsch", "all_equal"])
def test_a_cell_with_no_interior_still_reaches_the_polish(monkeypatch, problem, q):
    # with no interior the plain point converges sublinearly and never meets
    # the rows, so the first full check hands its cone point to the polish:
    # at eps 0.1 deutsch's state block at q=2 has none, and all-equal at q=1
    # sits on its boundary (0.9 is the best one query reaches), although
    # its shares sit on the reachable span
    swept, polished_at = [0], []

    def sweeps(affine, cone, x, iters):
        if affine.__name__ == "project_affine":
            swept[0] += iters
        return _run_ap(affine, cone, x, iters)

    def polish(eng, x):
        polished_at.append(swept[0])
        return _face_polish(eng, x)

    monkeypatch.setattr(solver, "_run_ap", sweeps)
    monkeypatch.setattr(solver, "_face_polish", polish)
    out = solve(build_primal(dataclasses.replace(problem), q, 0.1))
    assert out.status == "FEASIBLE"
    assert polished_at[0] == solver._FIRST_CHECK
    assert out.iterations >= solver._FIRST_CHECK


def test_sweeps_chunked_at_each_doubling_give_one_chunks_bits(monkeypatch):
    # the early checks cut the first _FIRST_CHECK sweeps into chunks of 1, 1,
    # 2, 4, 8 and 16, and leave the primal iterate as one chunk does, so every
    # check from _FIRST_CHECK on reads the same floats
    prog = build_primal(_rotation(0.3), 3, 0.1)
    eng = _engine(prog)
    start = 0.1 * np.random.default_rng(0).standard_normal(eng.n_cols)
    x = start
    for iters in (1, 1, 2, 4, 8, 16):
        x = _run_ap(eng.project_affine, eng.project_cone, x, iters)
    assert _same_bits(x, _run_ap(eng.project_affine, eng.project_cone, start, solver._FIRST_CHECK))
    # and those are the chunks a decision sweeps: the primal's, then the
    # Farkas iterate's gap since the last full check
    chunks = []

    def counted(affine, cone, x, iters):
        chunks.append((affine.__name__, iters))
        return _run_ap(affine, cone, x, iters)

    monkeypatch.setattr(solver, "_run_ap", counted)
    monkeypatch.setattr(solver, "_MAX_ITERS", 64)
    solve(build_primal(_rotation(0.3), 3, 0.1))
    primal = [n for name, n in chunks if name == "project_affine"]
    dual = [n for name, n in chunks if name == "project_dual_affine"]
    assert primal == [1, 1, 2, 4, 8, 16, 32] and dual == [32, 32]


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


def _verify_row_by_row(prog, point):
    # verify_point's report from one `row_value` per row and one `eigh` per
    # matrix, with no stacking
    def least(m):
        if m.shape == (1, 1):
            z = complex(m[0, 0])
            return z.real - (z.imag - z.imag)
        return float(np.linalg.eigh(hermitize(m))[0][0])

    residuals, slack = {}, None
    for r in prog.rows:
        diff = prog.row_value(r, point) - np.asarray(r.rhs, dtype=complex)
        if r.sense == "eq":
            residuals[r.name] = float(np.linalg.norm(diff))
        elif r.sense == "psd":
            w = least(diff)
            residuals[r.name] = 0.0 if w >= 0 else -w
        else:
            slack = float(-diff[0, 0].real)
    eigs = {b.name: least(np.asarray(point[b.name], dtype=complex)) for b in prog.blocks if b.psd}
    return residuals, eigs, slack


@pytest.mark.parametrize("pname", sorted({**PROBLEMS, **FAMILIES}))
def test_verify_point_gives_the_bits_of_a_row_by_row_evaluation(pname):
    # the existence and witness programs at q <= 2 (q <= 1 for weyl3) and
    # eps in {0, 0.1}, at random points, some blocks given as real arrays:
    # every residual, least eigenvalue and slack keeps its bits and its
    # place in the program's order
    p = {**PROBLEMS, **FAMILIES}[pname]
    rng = np.random.default_rng(53)
    for build in BUILDERS.values():
        for q in range(2 if pname == "weyl3" else 3):
            for eps in (0.0, 0.1):
                prog = build(p, q, eps)
                point = {b.name: random_hermitian(rng, b.dim) for b in prog.blocks}
                for b in prog.blocks[::3]:
                    point[b.name] = point[b.name].real.copy()
                rep = verify_point(prog, point)
                residuals, eigs, slack = _verify_row_by_row(prog, point)
                assert list(rep.row_residuals) == [r.name for r in prog.rows if r.sense != "strict"]
                assert list(rep.block_min_eigs) == [b.name for b in prog.blocks if b.psd]
                assert repr(rep.row_residuals) == repr(residuals)
                assert repr(rep.block_min_eigs) == repr(eigs)
                assert repr(rep.strict_slack) == repr(slack)


def test_verify_point_names_the_first_bad_block_in_program_order():
    # blocks of dimension 2, 3, 2: a wrong shape or a missing block is
    # reported for the first such block of the program, not of its
    # dimension's stack
    blocks = [Block("a", 2, True), Block("b", 3, True), Block("c", 2, False)]
    rows = [Row("sum", 2, [(0, _ident(2)), (2, _ident(2))], np.zeros((2, 2), dtype=complex))]
    prog = ConicFeasibilityProgram(blocks, rows)
    good = {"a": np.eye(2), "b": np.eye(3), "c": np.eye(2)}
    assert verify_point(prog, good).row_residuals == {"sum": float(np.linalg.norm(2 * np.eye(2)))}
    with pytest.raises(ValueError, match=r"block 'b' has shape \(2, 2\), expected \(3, 3\)"):
        verify_point(prog, {**good, "b": np.eye(2), "c": np.eye(3)})
    with pytest.raises(ValueError, match="block 'c' has shape"):
        verify_point(prog, {**good, "c": np.eye(3)})
    with pytest.raises(KeyError, match="'b'"):
        verify_point(prog, {"a": np.eye(2)})
    # a map that does not take its block's dimension is refused, as applying it would be
    clash = ConicFeasibilityProgram(blocks, [Row("bad", 2, [(1, _ident(2))], np.zeros((2, 2), dtype=complex))])
    with pytest.raises(ValueError, match="map expects 2x2 input"):
        verify_point(clash, good)


def test_least_eig_of_a_1x1_part_is_eighs_bit_for_bit():
    # a 1x1 part skips hermitize and eigh, and gives the value eigh gives
    # over magnitudes 1e-300 to 1e300 of both parts, signed zeros,
    # infinities and NaN in either part; a 2x2 part goes through eigh
    rng = np.random.default_rng(47)
    mag = 10.0 ** rng.uniform(-300, 300, size=(2, 4000))
    sign = rng.choice([-1.0, 1.0], size=(2, 4000))
    z = sign[0] * mag[0] + 1j * sign[1] * mag[1]
    z = np.concatenate([z, [0.0, -0.0, 1j, -0.0 - 2j, np.inf, -np.inf, complex(np.nan, 0.0),
                            complex(0.0, np.nan), complex(np.nan, np.nan), complex(1.0, np.inf)]])
    mats = [np.full((1, 1), v) for v in z]
    mats.insert(5, random_hermitian(rng, 2))
    ones = solver._stack_least_eigs(np.stack(mats[:5] + mats[6:]))
    got = np.array(ones[:5] + solver._stack_least_eigs(mats[5][None]) + ones[5:])
    with np.errstate(invalid="ignore"):  # hermitize's inf - inf
        want = np.array([np.linalg.eigh(hermitize(m))[0][0] for m in mats])
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan) and nan[-4:].all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


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


def _count_farkas_sweeps(monkeypatch):
    sweeps = [0]
    inner = _Engine.project_dual_affine

    def counted(self, s):
        sweeps[0] += 1
        return inner(self, s)

    monkeypatch.setattr(_Engine, "project_dual_affine", counted)
    return sweeps


@pytest.mark.parametrize("pname,q", [("deutsch", 0), ("or2", 0), ("ix", 0), ("or2", 1)])
@pytest.mark.parametrize("build,seeded", [(build_primal_relaxed, True), (build_primal, False)])
def test_relaxed_seeds_certify_without_farkas_sweeps(monkeypatch, pname, q, build, seeded):
    # on the relaxed programs the seed's multipliers are already a
    # certificate as exact as a polished point, so the first check tries
    # them with no Farkas sweep; the exact programs' seeds are not, and sweep
    sweeps = _count_farkas_sweeps(monkeypatch)
    out = solve(build(dataclasses.replace(PROBLEMS[pname]), q, 0.1))
    assert (out.status, out.iterations) == ("INFEASIBLE_WITH_CERTIFICATE", 32)
    assert (sweeps[0] == 0) == seeded


def test_a_seed_off_the_cone_is_swept(monkeypatch):
    # the relaxed or2 seed at q=2, eps 0.1 is 1.9e-5 off the cone per unit
    # of pairing: the screen refuses it, the first check sweeps, and the
    # swept certificate meets the witness program within 1e-8
    sweeps = _count_farkas_sweeps(monkeypatch)
    p = dataclasses.replace(PROBLEMS["or2"])
    out = solve(build_primal_relaxed(p, 2, 0.1))
    assert (out.status, out.iterations, sweeps[0]) == ("INFEASIBLE_WITH_CERTIFICATE", 32, 32)
    rep = verify_point(build_dual_relaxed(p, 2, 0.1), out.certificate)
    assert rep.max_residual <= 1e-8
    assert rep.min_block_eig >= -1e-8
    assert rep.strict_slack > 0


def test_a_later_check_certifies_without_farkas_sweeps(monkeypatch):
    # R(0.3) relaxed is decided at its sixth check, 1 024 sweeps: the five
    # checks before it swept the Farkas iterate by their gaps, 512 sweeps in
    # all, and the deciding check's displacement passed the screen unswept
    sweeps = _count_farkas_sweeps(monkeypatch)
    out = solve(build_primal_relaxed(_rotation(0.3), 3, 0.1))
    assert (out.status, out.iterations, sweeps[0]) == ("INFEASIBLE_WITH_CERTIFICATE", 1024, 512)


@pytest.mark.parametrize("pname,builder,q,eps,iterations", [
    ("or2", "dual", 1, 0.0, 0),  # right-hand side off the affine range
    ("or2", "dual_relaxed", 1, 0.1, 32),  # the seed, with no sweep
    ("deutsch", "dual", 0, 0.1, 32),  # the seed swept
])
def test_a_witness_point_is_verified_once(monkeypatch, pname, builder, q, eps, iterations):
    # a witness point is the certificate `_certify` has verified on the very
    # same program, and its residuals are that report's, bit for bit
    calls = [0]
    inner = solver.verify_point

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(solver, "verify_point", counted)
    prog = BUILDERS[builder](dataclasses.replace(PROBLEMS[pname]), q, eps)
    out = solve(prog)
    assert (out.status, out.iterations, calls[0]) == ("FEASIBLE", iterations, 1)
    fresh = inner(prog, out.point).row_residuals
    assert list(out.residuals) == list(fresh)
    assert _same_bits(np.array(list(out.residuals.values())), np.array(list(fresh.values())))


def test_a_non_finite_start_raises_at_the_first_check(monkeypatch):
    # every block of deutsch's exact program at q=1, eps 0 with d > 1 is 2x2,
    # on which LAPACK returns NaN eigenvalues without flagging them: the
    # first check, after one sweep, still raises LinAlgError, as the 4x4
    # case does, and warns of nothing
    prog = build_primal(dataclasses.replace(PROBLEMS["deutsch"]), 1, 0.0)
    assert {d for _, d, *_ in _engine(prog)._cone_slices} == {2}
    chunks = []

    def poisoned(affine, cone, x, iters):
        if not chunks:
            x = x.copy()
            x[0] = np.nan
        chunks.append(iters)
        return _run_ap(affine, cone, x, iters)

    monkeypatch.setattr(solver, "_run_ap", poisoned)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError):
            solve(prog)
    assert chunks == [1]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_outcome_shape():
    blocks = [Block("x", 2, True)]
    rows = [_trace_row("trace", 0, 2, 1.0)]
    out = solve(ConicFeasibilityProgram(blocks, rows))
    assert isinstance(out, FeasibilityOutcome)
    assert out.certificate is None
    assert out.iterations >= 1
    assert set(out.residuals) == {"trace"}


def test_point_report_keeps_a_nan():
    # Python's max and min skip a NaN that follows a number; the report's
    # reductions keep it, so no tolerance passes it
    rep = PointReport({"a": 0.0, "b": math.nan}, {"x": 0.0, "y": math.nan}, None)
    assert math.isnan(rep.max_residual)
    assert math.isnan(rep.min_block_eig)
    assert not rep.within(1e-6)
    assert not PointReport({"a": 0.0, "b": math.nan}, {"x": 0.0}, None).within(1e-6)
    # an empty report reads 0.0, and min_block_eig is the true least eigenvalue
    empty = PointReport({}, {}, None)
    assert (empty.max_residual, empty.min_block_eig) == (0.0, 0.0)
    assert PointReport({"a": 0.5}, {"x": 2.0, "y": 3.0}, None).min_block_eig == 2.0


def test_verify_point_reports_a_nan_slack():
    # the zero point of parity's exact program at q=0, eps 0.1 misses init,
    # sum_z c_z = s on the face of J, by s = 4; a NaN success slack must not
    # hide behind that number
    prog = build_primal(PROBLEMS["deutsch"], 0, 0.1)
    point = {b.name: np.zeros((b.dim, b.dim)) for b in prog.blocks}
    point["success_slack_11"] = np.full((1, 1), np.nan)
    rep = verify_point(prog, point)
    assert rep.row_residuals["init"] == 4.0
    assert math.isnan(rep.max_residual)
    assert math.isnan(rep.min_block_eig)
    assert not rep.within(5.0)


def test_verify_point_reports_a_nan_psd_row():
    # a PSD row's residual is its least eigenvalue's negative part, which
    # must keep a NaN: the zero point of parity's relaxed witness program at
    # q=1, eps 0.1 meets every row, and a NaN init multiplier spoils rho_0's
    # row
    prog = build_dual_relaxed(PROBLEMS["deutsch"], 1, 0.1)
    point = {b.name: np.zeros((b.dim, b.dim)) for b in prog.blocks}
    assert verify_point(prog, point).row_residuals == {"rho_0": 0.0}
    point["init"] = np.full((1, 1), np.nan)
    rep = verify_point(prog, point)
    assert math.isnan(rep.row_residuals["rho_0"])
    assert math.isnan(rep.max_residual)
    assert not rep.within(1e-6)
