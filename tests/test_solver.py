import itertools
import math

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
    certificate_to_dual_point,
)
from qqc.reconstruct import reconstruct_algorithm
from qqc.solver import (
    FeasibilityOutcome,
    SolverConfig,
    _Engine,
    _certify,
    _equality_form,
    _factor_jacobian,
    _step_factors,
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


@pytest.mark.parametrize("case", ["deutsch_dual_relaxed", "weyl3_primal"])
def test_project_cone_matches_per_block_reference(case):
    # deutsch mixes 2x2, 4x4 and 8x8 PSD blocks with free blocks; weyl3 at
    # q=2 has a 27x27 state block next to the 3x3 start state, 9x9 shares
    # and 1x1 success slacks, which take the clipping path
    if case == "deutsch_dual_relaxed":
        prog = BUILDERS["dual_relaxed"](PROBLEMS["deutsch"], 1, 0.1)
        dims = {2, 4, 8}
    else:
        prog = BUILDERS["primal"](FAMILIES["weyl3"], 2, 0.1)
        dims = {1, 3, 9, 27}
    blocks, rows = _equality_form(prog)
    eng = _Engine(blocks, *assemble(blocks, rows))
    assert {b.dim for b in blocks if b.psd} == dims

    def per_block(x):
        # from the written-out coordinate formula, not the maps the engine calls
        out = x.copy()
        for b, off in zip(blocks, eng.block_off):
            if b.psd:
                m = _unhvec_reference(x[off : off + b.dim**2], b.dim)
                w, v = np.linalg.eigh(hermitize(m))
                out[off : off + b.dim**2] = _hvec_reference((v * np.clip(w, 0.0, None)) @ v.conj().T)
        return out

    free = [i for b, off in zip(blocks, eng.block_off) if not b.psd
            for i in range(off, off + b.dim**2)]
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.standard_normal(eng.n_cols)
        px = eng.project_cone(x)
        assert np.max(np.abs(px - per_block(x))) <= 1e-12
        assert np.array_equal(px[free], x[free])
        assert np.max(np.abs(eng.project_cone(px) - px)) <= 1e-12


@pytest.mark.parametrize("case", ["deutsch_dual_relaxed", "weyl3_primal"])
def test_dual_projections_land_in_their_sets(case):
    # the Farkas pair: row-space points of pairing -1, and the dual cone
    # (PSD blocks clipped, free blocks zero)
    if case == "deutsch_dual_relaxed":
        prog = BUILDERS["dual_relaxed"](PROBLEMS["deutsch"], 1, 0.1)
    else:
        prog = BUILDERS["primal"](FAMILIES["weyl3"], 1, 0.1)
    blocks, rows = _equality_form(prog)
    a, b, block_off = assemble(blocks, rows)
    eng = _Engine(blocks, a, b, block_off)
    free = [i for blk, off in zip(blocks, eng.block_off) if not blk.psd
            for i in range(off, off + blk.dim**2)]
    rng = np.random.default_rng(13)
    for _ in range(3):
        s = eng.project_dual_affine(rng.standard_normal(eng.n_cols))
        norm = np.linalg.norm(s)
        assert np.linalg.norm(s - eng._lift @ (a @ s)) <= 1e-10 * norm
        assert eng._x0 @ s == pytest.approx(-1.0, abs=1e-10)
        assert np.linalg.norm(eng.project_dual_affine(s) - s) <= 1e-10 * norm
        # the multipliers behind s pair with b to -1
        y = eng.pinv_gram(a @ s)
        assert np.linalg.norm(a.T @ y - s) <= 1e-10 * norm
        assert b @ y == pytest.approx(-1.0, abs=1e-10)

        c = eng.project_dual_cone(rng.standard_normal(eng.n_cols))
        assert not c[free].any()
        for blk, off in zip(blocks, eng.block_off):
            if blk.psd:
                w = np.linalg.eigvalsh(unhvec(c[off : off + blk.dim**2], blk.dim))
                assert w[0] >= -1e-12
        assert np.max(np.abs(eng.project_dual_cone(c) - c)) <= 1e-12


# deutsch: PSD dims 2, 4, 8 next to free blocks; weyl3 at q=2: dims 1, 3, 9,
# 27; then 1x1 PSD blocks only, and free blocks only (empty gathers)
_PACKED_CASES = {
    "deutsch_dual_relaxed": lambda: BUILDERS["dual_relaxed"](PROBLEMS["deutsch"], 1, 0.1),
    "weyl3_primal": lambda: BUILDERS["primal"](FAMILIES["weyl3"], 2, 0.1),
    "half_lines": lambda: ConicFeasibilityProgram(
        [Block(f"h{i}", 1, True) for i in range(3)],
        [Row("sum", 1, [(i, _ident(1)) for i in range(3)], np.ones((1, 1), dtype=complex))]),
    "free_only": lambda: ConicFeasibilityProgram(
        [Block("y", 2, False), Block("z", 3, False)],
        [_trace_row("ty", 0, 2, 1.0), _trace_row("tz", 1, 3, 2.0)]),
}


@pytest.mark.parametrize("case", list(_PACKED_CASES))
def test_packed_cone_step_matches_grouped_projection_bitwise(case):
    # the grouped projection written out: per dimension, unhvec of the
    # gathered coordinates, one stacked eigh, clipping and hvec scattered
    # back; the 1x1 blocks on the half-line
    blocks, rows = _equality_form(_PACKED_CASES[case]())
    eng = _Engine(blocks, *assemble(blocks, rows))
    groups = {}
    for blk, off in zip(blocks, eng.block_off):
        if blk.psd:
            groups.setdefault(blk.dim, []).append(off)
    free = np.array([not blk.psd for blk in blocks for _ in range(blk.dim**2)], dtype=bool)

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
        want[free] = 0.0
        got = eng.project_dual_cone(x)
        assert np.array_equal(got, want) and _same_bits(got, want)


def _hvec_gram(y):
    return hvec(y @ y.conj().T)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_factor_jacobian_matches_central_differences(d):
    # columns run over l, then k, then the real and imaginary unit
    rng = np.random.default_rng(d)
    h = 1e-4
    for r in range(1, d + 1):
        y = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        jac = _factor_jacobian(y, np.eye(d * d))
        assert jac.shape == (d * d, 2 * d * r)
        cols = []
        for l in range(r):
            for k in range(d):
                for unit in (1.0, 1j):
                    e = np.zeros((d, r), dtype=complex)
                    e[k, l] = unit * h
                    cols.append((_hvec_gram(y + e) - _hvec_gram(y - e)) / (2 * h))
        fd = np.stack(cols, axis=1)
        assert np.linalg.norm(jac - fd) <= 1e-7 * np.linalg.norm(fd)


def test_factor_jacobian_columns_follow_step_factors():
    # a step along one Jacobian column, taken by _step_factors, moves
    # hvec(Y Y^H) along that column to first order
    rng = np.random.default_rng(2)
    d, r, h = 3, 2, 1e-4
    y = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    free = random_hermitian(rng, 2)
    jac = _factor_jacobian(y, np.eye(d * d))
    blocks = [Block("y", d, True), Block("free", 2, False)]
    for c in range(2 * d * r):
        step = np.zeros(2 * d * r + 4)
        step[c] = h
        yp, fp = _step_factors(blocks, [y, free], step)
        ym, _ = _step_factors(blocks, [y, free], -step)
        assert np.array_equal(fp, free)
        fd = (_hvec_gram(yp) - _hvec_gram(ym)) / (2 * h)
        assert np.linalg.norm(jac[:, c] - fd) <= 1e-7 * np.linalg.norm(fd)


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
    # I on the decompose multiplier keeps the pairing (its right-hand side is
    # zero) but adds -I to the image on the PSD final Gram block
    blocks, rows = _equality_form(build_primal(deutsch, 0, 0.0))
    cert = cached_solve("deutsch", "primal", 0, 0.0).certificate
    assert _certify(blocks, rows, cert) is not None
    bent = dict(cert, decompose=cert["decompose"] + np.eye(4))
    assert _certify(blocks, rows, bent) is None


def test_certify_rejects_multipliers_over_the_norm_cap():
    # x = 1 and -x = 1 on one 1x1 PSD block: both multiplier sets pair to -1
    # with a PSD image, but the first one's norm is 1e9
    blocks = [Block("x", 1, True)]
    rows = [Row("a", 1, [(0, _ident(1))], np.ones((1, 1), dtype=complex)),
            Row("b", 1, [(0, _ident(1, -1.0))], np.ones((1, 1), dtype=complex))]
    big = {"a": np.array([[1e9]], dtype=complex), "b": np.array([[-1e9 - 1]], dtype=complex)}
    assert _certify(blocks, rows, big) is None
    small = {"a": np.zeros((1, 1), dtype=complex), "b": -np.ones((1, 1), dtype=complex)}
    cert = _certify(blocks, rows, small)
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
    rep = verify_point(build_dual(p, 2, 0.1), certificate_to_dual_point(p, 2, 0.1, out.certificate))
    assert rep.max_residual <= 1e-8
    assert rep.min_block_eig >= -1e-8
    assert rep.strict_slack > 0


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


def test_free_block_program_with_strict_row():
    # find Hermitian y with y PSD and tr(-y) < 0; any positive multiple of I
    blocks = [Block("y", 2, False)]
    rows = [
        Row("floor", 2, [(0, _ident(2))], np.zeros((2, 2), dtype=complex),
            sense="psd"),
        Row("strict", 1,
            [(0, BlockMap("trace_against", d_in=2, d_out=1, scale=-1.0,
                          mat=np.eye(2, dtype=complex)))],
            np.zeros((1, 1), dtype=complex), sense="strict"),
    ]
    prog = ConicFeasibilityProgram(blocks, rows)
    out = solve(prog)
    assert out.status == "FEASIBLE"
    assert set(out.point) == {"y"}  # the row slack is not a program block
    rep = verify_point(prog, out.point)
    assert rep.max_residual <= 1e-7
    assert rep.strict_slack > 0


def test_verify_point_flags_violations():
    blocks = [Block("x", 2, True)]
    rows = [_trace_row("trace", 0, 2, 1.0)]
    prog = ConicFeasibilityProgram(blocks, rows)
    rep = verify_point(prog, {"x": np.diag([2.0, 0.0]).astype(complex)})
    assert rep.row_residuals["trace"] == pytest.approx(1.0)
    assert not rep.within(1e-7)
    with pytest.raises(ValueError):
        verify_point(prog, {"x": np.eye(3, dtype=complex)})


def test_weak_duality_pairing_is_negative_on_certificates(deutsch, cached_solve):
    out = cached_solve("deutsch", "primal", 0, 0.0)
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
    # a verified certificate pairs with the right-hand side to -1
    prog = build_primal(deutsch, 0, 0.0)
    pairing = sum(np.trace(r.rhs @ out.certificate[r.name]).real
                  for r in prog.rows)
    assert pairing == pytest.approx(-1.0, abs=1e-6)


def test_certificates_start_at_the_first_check(cached_solve):
    # the Farkas iterate sweeps from the first check on, so no certificate of
    # the criterion-01 grid waits 1000 primal sweeps for its search to start
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
