import dataclasses

import numpy as np
import pytest

from qqc.adversary import make_dual_witness, spectral_bound
from qqc.programs import (
    BlockMap,
    build_dual,
    build_dual_relaxed,
    build_primal,
    build_primal_relaxed,
    chain_program,
    pair_name,
    _farkas_alternative,
    _programs,
    _row_maps,
)
import qqc.linalg
import qqc.programs
from qqc.linalg import partial_trace
from qqc.sdpa import export_sdpa
from qqc.solver import assemble, verify_point

from conftest import FAMILIES, PROBLEMS

ALL = {**PROBLEMS, **FAMILIES}


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def _map_inventory(rng, s, n):
    """One instance of every map kind, sized for an (s, n) split."""
    u = np.linalg.qr(rng.standard_normal((s * n, s * n))
                     + 1j * rng.standard_normal((s * n, s * n)))[0]
    c = random_hermitian(rng, s)
    # plain congruences with split (2, 1): E† = [e_0 e_{s-1}]†, as in the
    # pair rows of the relaxed programs, and Z E† with Z = diag(1, -1)
    face = np.zeros((2, s))
    face[0, 0] = face[1, s - 1] = 1.0
    # the existence programs' first query, which reads the n x n start state
    # through the (s·n) x n matrix Omega (1_s ⊗ I_n), with u for Omega
    first = u @ np.kron(np.ones((s, 1)), np.eye(n))
    return [
        BlockMap("conj_pt", d_in=s * n, d_out=s, split=(s, n)),
        BlockMap("conj_pt", d_in=s * n, d_out=s, scale=-2.0, mat=u, split=(s, n)),
        BlockMap("conj_pt", d_in=n, d_out=s, scale=-1.0, mat=first, split=(s, n)),
        BlockMap("conj_pt", d_in=s, d_out=2, scale=0.5, mat=face, split=(2, 1)),
        BlockMap("conj_tensor", d_in=s, d_out=s * n, split=(s, n)),
        BlockMap("conj_tensor", d_in=s, d_out=s * n, scale=0.7, mat=u, split=(s, n)),
        BlockMap("conj_tensor", d_in=2, d_out=s, scale=-0.5, mat=np.diag([1.0, -1.0]) @ face,
                 split=(2, 1)),
        BlockMap("id", d_in=s, d_out=s, scale=-1.5),
        BlockMap("trace_against", d_in=s, d_out=1, mat=c),
        BlockMap("const_embed", d_in=1, d_out=s, scale=2.0, mat=c),
    ]


@pytest.mark.parametrize("seed", range(5))
def test_block_map_adjoint_pairing(seed):
    # <apply(x), y> == <x, adjoint(y)> in the real trace pairing
    rng = np.random.default_rng(seed)
    s, n = 3, 2
    for m in _map_inventory(rng, s, n):
        for _ in range(5):
            x = random_hermitian(rng, m.d_in)
            y = random_hermitian(rng, m.d_out)
            lhs = np.trace(m.apply(x) @ y).real
            rhs = np.trace(x @ m.adjoint().apply(y)).real
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_block_map_adjoint_is_involutive():
    rng = np.random.default_rng(9)
    for m in _map_inventory(rng, 3, 2):
        back = m.adjoint().adjoint()
        assert back.kind == m.kind
        assert back.d_in == m.d_in and back.d_out == m.d_out
        assert back.scale == m.scale
        for flipped in (m.adjoint(), back):
            assert flipped.mat is m.mat and flipped.split == m.split
    bogus = BlockMap("bogus", d_in=2, d_out=2)
    with pytest.raises(ValueError, match="unknown map kind"):
        bogus.apply(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="unknown map kind"):
        bogus.adjoint()


def test_block_map_applies_to_stacks():
    # a (2, 3) stack of inputs maps to the stack of the six single images
    rng = np.random.default_rng(4)
    for m in _map_inventory(rng, 3, 2):
        xs = np.array([[random_hermitian(rng, m.d_in) for _ in range(3)] for _ in range(2)])
        out = m.apply(xs)
        assert out.shape == (2, 3, m.d_out, m.d_out), m.kind
        for i in range(2):
            for j in range(3):
                assert np.max(np.abs(out[i, j] - m.apply(xs[i, j]))) <= 1e-12, m.kind


def test_pair_rows_read_the_pair_entry(deutsch):
    # with a zero slack the pair row reads -E† G E, the pair's principal
    # submatrix; at q = 0, G = c·J/s on the face of J, so every entry of
    # E† G E is c/s. On init's c = s, G = J has unit diagonal, as every point
    # of the program has, and the slack rhs - row = [[margin, G_ij],
    # [G_ji, margin]] is [[margin, 1], [1, margin]]
    eps = 0.1
    margin = 2.0 * np.sqrt(eps * (1.0 - eps))
    prog = build_primal_relaxed(deutsch, 0, eps)
    s = deutsch.size
    point = {b.name: np.zeros((b.dim, b.dim), dtype=complex) for b in prog.blocks}
    for c in (s, 2.5):
        point["final_gram"] = np.full((1, 1), c, dtype=complex)
        g = c / s
        for i, j in deutsch.differing_pairs():
            row = next(r for r in prog.rows if r.name == f"pair_{pair_name(deutsch, (i, j))}")
            assert len(row.terms) == 2
            want = np.array([[margin - 1.0 + g, g], [g, margin - 1.0 + g]])
            assert np.max(np.abs(row.rhs - prog.row_value(row, point) - want)) <= 1e-15


def test_success_rows_read_the_share_entry(deutsch):
    # with zero slacks each input's success row reads minus entry (i, i) of
    # its class's share and nothing else; at q = 0 share z is c_z·J/s, on
    # the face of J, so that entry is c_z/s
    prog = build_primal(deutsch, 0, 0.1)
    s = deutsch.size
    rng = np.random.default_rng(6)
    point = {b.name: np.zeros((b.dim, b.dim), dtype=complex) for b in prog.blocks}
    for z in deutsch.outputs:
        point[f"output_part_{z}"] = np.full((1, 1), rng.uniform(0.5, 4.0), dtype=complex)
    for i, lab in enumerate(deutsch.labels):
        row = next(r for r in prog.rows if r.name == f"success_{lab}")
        assert row.dim == 1
        want = -point[f"output_part_{deutsch.g[lab]}"][0, 0] / s
        assert abs(prog.row_value(row, point)[0, 0] - want) <= 1e-15


@pytest.mark.parametrize("pname", sorted(PROBLEMS) + sorted(FAMILIES))
@pytest.mark.parametrize("q", [0, 1])
def test_dual_reads_every_coordinate(pname, q):
    # no witness coordinate is pinned by structure alone: every column of
    # the assembled A is read by some row
    p = FAMILIES[pname] if pname in FAMILIES else PROBLEMS[pname]
    prog = build_dual(p, q, 0.1)
    a, _, _ = assemble(prog.blocks, prog.rows)
    assert a.any(axis=0).all()


def test_block_map_rejects_bad_input_shape():
    m = BlockMap("id", d_in=3, d_out=3)
    with pytest.raises(ValueError):
        m.apply(np.eye(2, dtype=complex))


def test_primal_structure(deutsch):
    # the shares split the final Gram matrix directly: no block of its own;
    # at q = 2 deutsch's reachable span is 2-dimensional (1 and (-1)^(x1+x2)),
    # so each share is a 2x2 block on it, and so is the last chain row
    prog = build_primal(deutsch, 2, 0.1)
    names = [b.name for b in prog.blocks]
    slacks = [f"success_slack_{lab}" for lab in deutsch.labels]
    assert names == ["rho_0", "state_iq_1", "output_part_0", "output_part_1"] + slacks
    dims = {b.name: b.dim for b in prog.blocks}
    assert dims["rho_0"] == 2 and dims["state_iq_1"] == 8 and dims["output_part_0"] == 2
    assert all(dims[name] == 1 for name in slacks)
    assert all(b.psd for b in prog.blocks)
    rows = {r.name: r for r in prog.rows}
    success = {f"success_{lab}" for lab in deutsch.labels}
    assert set(rows) == {"init", "chain_1", "final_gram_def"} | success
    assert all(r.sense == "eq" for r in prog.rows)
    assert rows["init"].dim == 1
    assert np.array_equal(rows["init"].rhs, [[1.0]])
    final_reads = {prog.blocks[bj].name for bj, _ in rows["final_gram_def"].terms}
    assert final_reads == {"state_iq_1", "output_part_0", "output_part_1"}
    assert rows["final_gram_def"].dim == 2
    for name in success:
        assert rows[name].dim == 1
        assert rows[name].rhs == pytest.approx(-0.9, abs=1e-15)


def test_primal_q0_pins_final_gram(const):
    # at q = 0 init pins the sum of the shares to J; at eps 0 that already
    # gives every input success 1, so there is no success slack or row
    prog = build_primal(const, 0, 0.0)
    assert [b.name for b in prog.blocks] == ["output_part_0"]
    rows = {r.name: r for r in prog.rows}
    assert set(rows) == {"init"}
    assert np.array_equal(rows["init"].rhs, np.ones((4, 4)))


def test_primal_q0_constant_hand_point(const):
    # all-ones Gram is one full share, c = s on the face of J; every
    # success slack = eps
    eps = 0.25
    prog = build_primal(const, 0, eps)
    point = {"output_part_0": np.full((1, 1), 4.0, dtype=complex)}
    point.update({f"success_slack_{lab}": np.full((1, 1), eps) for lab in const.labels})
    rep = verify_point(prog, point)
    assert rep.max_residual <= 1e-12
    assert rep.min_block_eig >= -1e-12


def test_primal_relaxed_structure(deutsch):
    # at q >= 1 there is no final Gram block and no final_gram_def row: each
    # pair row reads the last chain block X through one congruence at scale
    # -1 with split (2, n), X -> -tr_n((E† ⊗ I_n) M X M† (E ⊗ I_n)), for
    # query q's matrix M, and the slack through the identity. At q = 0 it
    # reads the 1x1 final_gram [[c]] on the face of J, G = c·J/s, set to
    # c = s by the 1x1 init, through one const_embed at scale -1:
    # [[c]] -> -(c/s)·[[1, 1], [1, 1]]
    s, n = deutsch.size, deutsch.n
    pairs = deutsch.differing_pairs()
    slack_names = {f"pair_slack_{pair_name(deutsch, pr)}" for pr in pairs}
    margin = 2.0 * np.sqrt(0.1 * 0.9)
    first = deutsch.omega @ np.kron(np.ones((s, 1)), np.eye(n))
    rng = np.random.default_rng(2)
    for q, last, mat in ((0, "final_gram", None), (1, "rho_0", first),
                         (2, "state_iq_1", deutsch.omega)):
        prog = build_primal_relaxed(deutsch, q, 0.1)
        chain = {"rho_0"} | {f"state_iq_{t}" for t in range(1, q)} if q else {"final_gram"}
        assert {b.name for b in prog.blocks} == chain | slack_names
        assert all(b.dim == 2 for b in prog.blocks if b.name in slack_names)
        rows = {r.name: r for r in prog.rows}
        assert set(rows) == {"init"} | {f"chain_{t}" for t in range(1, q)} | {
            f"pair_{pair_name(deutsch, pr)}" for pr in pairs}
        if q:
            x = random_hermitian(rng, mat.shape[1])
            gram = partial_trace(mat @ x @ mat.conj().T, (s, n))
        else:
            assert [b.dim for b in prog.blocks if b.name == last] == [1]
            assert rows["init"].dim == 1
            assert np.array_equal(rows["init"].rhs, [[s]])
            x = np.full((1, 1), rng.uniform(0.5, 4.0), dtype=complex)
            gram = x[0, 0] * np.ones((s, s)) / s
        for pr in pairs:
            row = rows[f"pair_{pair_name(deutsch, pr)}"]
            assert row.dim == 2
            assert np.array_equal(row.rhs, (margin - 1.0) * np.eye(2))
            (xi, face), (si, ident) = row.terms
            assert prog.blocks[xi].name == last
            if q:
                assert (face.kind, face.scale, face.split) == ("conj_pt", -1.0, (2, n))
            else:
                assert (face.kind, face.scale, face.d_in, face.d_out) == ("const_embed", -1.0, 1, 2)
                assert np.array_equal(face.mat, np.full((2, 2), 1.0 / s))
            assert np.max(np.abs(face.apply(x) + gram[np.ix_(pr, pr)])) <= 1e-14
            assert prog.blocks[si].name == f"pair_slack_{pair_name(deutsch, pr)}"
            assert (ident.kind, ident.scale) == ("id", 1.0)


def _slack_rows(prog):
    """Each existence block that only one row reads, through +id, and that row."""
    reads = {}
    for r in prog.rows:
        for bj, m in r.terms:
            reads.setdefault(prog.blocks[bj].name, []).append((r.name, m))
    return {name: rd[0][0] for name, rd in reads.items()
            if len(rd) == 1 and rd[0][1].kind == "id" and rd[0][1].scale == 1.0}


def test_dual_structure(deutsch):
    # witness blocks = existence rows, PSD exactly for the rows with a
    # slack; witness rows = the other existence blocks, plus strict
    for build, dual in ((build_primal, build_dual), (build_primal_relaxed, build_dual_relaxed)):
        for q in (0, 1, 2):
            for eps in (0.0, 0.1):
                prog, wit = build(deutsch, q, eps), dual(deutsch, q, eps)
                slack = _slack_rows(prog)
                assert set(slack) == {b.name for b in prog.blocks
                                      if b.name.startswith(("success_slack_", "pair_slack_"))}
                assert [(b.name, b.dim, b.psd) for b in wit.blocks] == [
                    (r.name, r.dim, r.name in slack.values()) for r in prog.rows]
                assert [(r.name, r.dim, r.sense) for r in wit.rows] == [
                    (b.name, b.dim, "psd") for b in prog.blocks if b.name not in slack] + [
                    ("strict", 1, "strict")]


def test_dual_relaxed_structure(deutsch):
    # on the start face the multiplier of tr rho_0 = 1 is a scalar and the
    # rho_0 row is n x n; with no final_gram row, the last chain block's row
    # reads its chain multiplier and each pair multiplier once, and the
    # strict row reads init and, through its rhs (margin - 1)·I, nonzero
    # even at eps 0, each pair multiplier
    prog = build_dual_relaxed(deutsch, 1, 0.1)
    pairs = [f"pair_{pair_name(deutsch, pr)}" for pr in deutsch.differing_pairs()]
    assert [(b.name, b.dim, b.psd) for b in prog.blocks] == [
        ("init", 1, False)] + [(name, 2, True) for name in pairs]
    assert [(r.name, r.dim) for r in prog.rows] == [("rho_0", 2), ("strict", 1)]
    assert [prog.blocks[bj].name for bj, _ in prog.rows[0].terms] == ["init"] + pairs
    at_two = build_dual_relaxed(deutsch, 2, 0.1)
    assert [(r.name, r.dim) for r in at_two.rows] == [("rho_0", 2), ("state_iq_1", 8), ("strict", 1)]
    assert [at_two.blocks[bj].name for bj, _ in at_two.rows[1].terms] == ["chain_1"] + pairs
    at_zero = build_dual_relaxed(deutsch, 1, 0.0)
    assert [at_zero.blocks[bj].name for bj, _ in at_zero.rows[-1].terms] == ["init"] + pairs


@pytest.mark.parametrize("pname", sorted(ALL))
@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("build, dual", [(build_primal, build_dual),
                                         (build_primal_relaxed, build_dual_relaxed)],
                         ids=["exact", "relaxed"])
def test_witness_rows_are_the_adjoint(pname, q, eps, build, dual):
    # <Y, A(X)> = <A†(Y), X> for random X on the existence blocks and Y on
    # its rows, with A†(Y) read through the witness rows and each slack
    # block paired with its row's multiplier; the strict row reads <b, Y>
    p = ALL[pname]
    prog, wit = build(p, q, eps), dual(p, q, eps)
    rng = np.random.default_rng(q)
    x = {b.name: random_hermitian(rng, b.dim) for b in prog.blocks}
    y = {r.name: random_hermitian(rng, r.dim) for r in prog.rows}

    def pair(a, b):
        return float(np.trace(a @ b).real)

    lhs = sum(pair(y[r.name], prog.row_value(r, x)) for r in prog.rows)
    rows = {r.name: r for r in wit.rows}
    rhs = sum(pair(wit.row_value(rows[b.name], y), x[b.name]) for b in prog.blocks if b.name in rows)
    rhs += sum(pair(y[row], x[block]) for block, row in _slack_rows(prog).items())
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    strict = wit.row_value(rows["strict"], y)[0, 0].real
    assert strict == pytest.approx(sum(pair(r.rhs, y[r.name]) for r in prog.rows), abs=1e-12)


@pytest.mark.parametrize(
    "q,eps", [(-1, 0.0), (0, -0.1), (0, 1.0), (1.5, 0.0), (1.0, 0.0), (True, 0.0)]
)
def test_builders_reject_bad_parameters(deutsch, q, eps):
    with pytest.raises(ValueError):
        build_primal(deutsch, q, eps)


def test_row_value_evaluates_terms(deutsch):
    # at eps 0 each share is a 2x2 block on its class, and the two classes
    # tile the diagonal of the final Gram matrix, which init reads at q = 0
    prog = build_primal(deutsch, 0, 0.0)
    point = {"output_part_0": np.eye(2, dtype=complex),
             "output_part_1": np.eye(2, dtype=complex)}
    point.update({f"success_slack_{lab}": np.zeros((1, 1)) for lab in deutsch.labels})
    row = next(r for r in prog.rows if r.name == "init")
    assert np.allclose(prog.row_value(row, point), np.eye(4))


def _stacked_inventory(rng, s, n, k):
    """k maps of each kind, one signature per kind, with their own mats and scales."""
    def unitary(d):
        return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return {
        "conj_pt": [BlockMap("conj_pt", d_in=s * n, d_out=s, scale=rng.uniform(-2, 2),
                             mat=unitary(s * n), split=(s, n)) for _ in range(k)],
        "conj_tensor": [BlockMap("conj_tensor", d_in=s, d_out=s * n, scale=rng.uniform(-2, 2),
                                 mat=unitary(s * n), split=(s, n)) for _ in range(k)],
        "id": [BlockMap("id", d_in=s, d_out=s, scale=rng.uniform(-2, 2)) for _ in range(k)],
        "trace_against": [BlockMap("trace_against", d_in=s, d_out=1, scale=rng.uniform(-2, 2),
                                   mat=random_hermitian(rng, s)) for _ in range(k)],
        "const_embed": [BlockMap("const_embed", d_in=1, d_out=s, scale=rng.uniform(-2, 2),
                                 mat=random_hermitian(rng, s)) for _ in range(k)],
    }


def test_block_map_applies_stacked_maps():
    # k maps of one kind, as one map with a stacked mat and (k, 1, 1) scales,
    # send a (k, d_in, d_in) stack to the stack of their single images
    rng = np.random.default_rng(12)
    k = 4
    for kind, maps in _stacked_inventory(rng, 3, 2, k).items():
        m = maps[0]
        mats = None if m.mat is None else np.stack([t.mat for t in maps])
        scales = np.array([t.scale for t in maps])[:, None, None]
        stacked = BlockMap(kind, m.d_in, m.d_out, scales, mats, m.split)
        xs = np.stack([random_hermitian(rng, m.d_in) for _ in range(k)])
        out = stacked.apply(xs)
        assert out.shape == (k, m.d_out, m.d_out), kind
        for t, x, got in zip(maps, xs, out):
            assert np.max(np.abs(got - t.apply(x))) <= 1e-13 * max(1.0, np.max(np.abs(got))), kind


def _per_term_value(prog, row, point):
    out = np.zeros((row.dim, row.dim), dtype=complex)
    for bi, m in row.terms:
        out += m.apply(np.asarray(point[prog.blocks[bi].name], dtype=complex))
    return out


@pytest.mark.parametrize("pname, build, q", [
    ("weyl3", build_dual_relaxed, 0),
    ("weyl3", build_dual_relaxed, 1),
    ("pauli_id", build_dual, 1),
])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_grouped_row_value_matches_a_per_term_loop(pname, build, q, eps):
    prog = build(ALL[pname], q, eps)
    # weyl3 has 27 differing pairs, all read by one row
    widest = max(len(r.terms) for r in prog.rows)
    assert widest >= (28 if pname == "weyl3" else 2)
    rng = np.random.default_rng(q)
    for _ in range(3):
        point = {b.name: random_hermitian(rng, b.dim) for b in prog.blocks}
        for row in prog.rows:
            got, want = prog.row_value(row, point), _per_term_value(prog, row, point)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), row.name


def _grouped_per_call(prog, row, point):
    """`row_value` grouping and stacking the row's terms at each call."""
    groups = {}
    for bi, m in row.terms:
        key = (m.kind, m.d_in, m.d_out, m.split, None if m.mat is None else m.mat.shape)
        groups.setdefault(key, []).append((bi, m))
    out = np.zeros((row.dim, row.dim), dtype=complex)
    for terms in groups.values():
        xs = [np.asarray(point[prog.blocks[bi].name], dtype=complex) for bi, _ in terms]
        if len(terms) == 1:
            out += terms[0][1].apply(xs[0])
            continue
        m = terms[0][1]
        mats = None if m.mat is None else np.stack([t.mat for _, t in terms])
        scales = np.array([t.scale for _, t in terms])[:, None, None]
        out += BlockMap(m.kind, m.d_in, m.d_out, scales, mats, m.split).apply(np.stack(xs)).sum(axis=0)
    return out


@pytest.mark.parametrize("pname, build, q", [
    ("weyl3", build_dual_relaxed, 0),
    ("weyl3", build_dual_relaxed, 1),
    ("weyl3", build_dual_relaxed, 2),
    ("pauli_id", build_dual, 1),
])
def test_stored_row_maps_give_the_per_call_bits(pname, build, q):
    # the groups are stacked once per program, and applying them gives the
    # bits of grouping and stacking the terms afresh; a per-term loop adds
    # in another order, within rounding (`..._matches_a_per_term_loop`)
    prog = build(ALL[pname], q, 0.1)
    rng = np.random.default_rng(q + 7)
    point = {b.name: random_hermitian(rng, b.dim) for b in prog.blocks}
    for row in prog.rows:
        got, want = prog.row_value(row, point), _grouped_per_call(prog, row, point)
        assert got.tobytes() == want.tobytes(), row.name
    assert _row_maps(prog) is _row_maps(prog)


def _row_value_with_wrappers(prog, row, point):
    """`row_value` through numpy's Python-level wrappers: a trace term's
    product by `np.einsum`, made complex and then scaled by its float
    scale, and a stacked group's images summed by `ndarray.sum`."""
    groups = {}
    for bi, m in row.terms:
        key = (m.kind, m.d_in, m.d_out, m.split, None if m.mat is None else m.mat.shape)
        groups.setdefault(key, []).append((bi, m))
    out = np.zeros((row.dim, row.dim), dtype=complex)
    for terms in groups.values():
        x = np.stack([np.asarray(point[prog.blocks[bi].name], dtype=complex) for bi, _ in terms])
        m = terms[0][1]
        mats = None if m.mat is None else np.stack([t.mat for _, t in terms])
        scales = np.array([t.scale for _, t in terms])[:, None, None]
        if m.kind == "trace_against":
            y = scales * np.einsum("...ij,...ji->...", mats, x).real[..., None, None].astype(complex)
        else:
            y = BlockMap(m.kind, m.d_in, m.d_out, scales, mats, m.split).apply(x)
        out += y.sum(axis=0)
    return out


@pytest.mark.parametrize("pname, build, q", [
    ("deutsch", build_dual_relaxed, 0),
    ("deutsch", build_primal, 0),
    ("ix", build_dual, 1),
    ("pauli_id", build_dual_relaxed, 0),
    ("pauli_id", build_dual, 1),
    ("weyl3", build_dual_relaxed, 0),
    ("weyl3", build_dual_relaxed, 1),
])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_row_values_keep_the_bits_of_numpy_wrappers(pname, build, q, eps):
    # row_value, and verify_point through the same helper, take trace
    # products from c_einsum, scale them in place by complex scales and sum
    # stacked images with np.add.reduce: every value keeps the bits of the
    # wrapper calls, at random points and at points holding inf, NaN and -0.0
    prog = build(ALL[pname], q, eps)
    rng = np.random.default_rng(q + 11)
    point = {b.name: random_hermitian(rng, b.dim) for b in prog.blocks}
    points = [point, {k: -v for k, v in point.items()}, {k: np.full_like(v, -0.0) for k, v in point.items()}]
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
        for b in prog.blocks[:: max(1, len(prog.blocks) // 3)]:
            spoiled = dict(point)
            spoiled[b.name] = point[b.name].copy()
            spoiled[b.name][0, 0] = bad
            points.append(spoiled)
    with np.errstate(invalid="ignore"):  # inf - inf and 0·inf, in both evaluations
        for pt in points:
            for row in prog.rows:
                got, want = prog.row_value(row, pt), _row_value_with_wrappers(prog, row, pt)
                assert got.tobytes() == want.tobytes(), row.name


def test_row_values_through_the_einsum_fallback(monkeypatch):
    # on a numpy without c_einsum, _c_einsum binds numpy.einsum: the same bits
    prog = build_dual_relaxed(ALL["weyl3"], 1, 0.1)
    rng = np.random.default_rng(12)
    point = {b.name: random_hermitian(rng, b.dim) for b in prog.blocks}
    want = [prog.row_value(row, point).tobytes() for row in prog.rows]
    monkeypatch.setattr(qqc.programs, "_c_einsum", np.einsum)
    monkeypatch.setattr(qqc.linalg, "_c_einsum", np.einsum)
    assert [prog.row_value(row, point).tobytes() for row in prog.rows] == want


def test_stacked_row_maps_refuse_writes():
    prog = build_dual_relaxed(ALL["weyl3"], 1, 0.1)
    stacked = [m for groups in _row_maps(prog).values() for names, m in groups if len(names) > 1]
    # the last chain row reads all 27 pair multipliers through one stack
    assert max(m.mat.shape[0] for m in stacked) == 27
    for m in stacked:
        for arr in (m.mat, m.scale):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def test_a_row_the_program_does_not_hold_is_grouped_afresh(deutsch):
    prog = build_primal(deutsch, 1, 0.1)
    row = prog.rows[1]
    other = dataclasses.replace(row)
    assert id(other) not in _row_maps(prog)
    rng = np.random.default_rng(2)
    point = {b.name: random_hermitian(rng, b.dim) for b in prog.blocks}
    assert prog.row_value(other, point).tobytes() == prog.row_value(row, point).tobytes()


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_the_witness_program_is_derived_once(deutsch, q, eps):
    # build_dual and the solver's witness of the existence program are one object
    for exist, witness in ((build_primal, build_dual), (build_primal_relaxed, build_dual_relaxed)):
        prog = exist(deutsch, q, eps)
        assert _farkas_alternative(prog) is witness(deutsch, q, eps)
        assert prog.derived["_farkas_alternative"] is witness(deutsch, q, eps)
        assert dataclasses.replace(prog).derived == {}


def test_pair_name_uses_labels(deutsch):
    assert pair_name(deutsch, (0, 1)) == "00|01"


def test_certificates_are_witness_points(cached_solve):
    # every existence certificate of the criterion-01 grid is, as it stands,
    # a strictly feasible point of the matching witness program
    seen = 0
    for pname, p in PROBLEMS.items():
        for q in (0, 1, 2):
            for eps in (0.0, 0.1):
                for builder, build in (("primal", build_dual), ("primal_relaxed", build_dual_relaxed)):
                    out = cached_solve(pname, builder, q, eps)
                    if out.status != "INFEASIBLE_WITH_CERTIFICATE":
                        continue
                    seen += 1
                    prog = build(p, q, eps)
                    assert set(out.certificate) == {b.name for b in prog.blocks}
                    rep = verify_point(prog, out.certificate)
                    case = (pname, builder, q, eps)
                    assert rep.max_residual <= 1e-8, case
                    assert rep.min_block_eig >= -1e-8, case
                    assert rep.strict_slack > 0, case
    assert seen == 20


# The program cache: a builder makes each program once per problem, and
# callers share it read-only.
_ALL_BUILDS = (build_primal, build_primal_relaxed, build_dual, build_dual_relaxed)


@pytest.mark.parametrize("pname", ["deutsch", "pauli_id"])
@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("build", _ALL_BUILDS)
def test_a_builder_returns_one_program_per_question(pname, q, eps, build):
    p = ALL[pname]
    prog = build(p, q, eps)
    assert build(p, q, eps) is prog
    built = _programs(p)
    assert not {"build_dual", "build_dual_relaxed"} & {key[0] for key in built}
    # a witness program is the one kept on its cached existence program
    existence = prog.existence or prog
    assert built[(build.__name__.replace("dual", "primal"), q, eps)] is existence


@pytest.mark.parametrize("q", [0, 1, 2])
def test_chain_program_is_built_once(deutsch, q):
    prog = chain_program(deutsch, q)
    assert chain_program(deutsch, q) is prog
    assert [b.name for b in prog.blocks][-1] == "final_gram"


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_a_witness_program_holds_the_cached_existence_program(q, eps):
    for p in (ALL["deutsch"], ALL["pauli_id"]):
        assert build_dual(p, q, eps).existence is build_primal(p, q, eps)
        assert build_dual_relaxed(p, q, eps).existence is build_primal_relaxed(p, q, eps)


@pytest.mark.parametrize("q, eps", [(1.0, 0.1), (1, 1.0)])
def test_a_rejected_question_leaves_no_entry(deutsch, q, eps):
    p = dataclasses.replace(deutsch)
    for build in _ALL_BUILDS:
        with pytest.raises(ValueError):
            build(p, q, eps)
    with pytest.raises(ValueError):
        chain_program(p, 1.0)
    assert _programs(p) == {}


@pytest.mark.parametrize("build", _ALL_BUILDS)
@pytest.mark.parametrize("q", [0, 1, 2])
def test_a_numpy_integer_q_shares_the_int_program(deutsch, build, q):
    assert build(deutsch, np.int64(q), 0.1) is build(deutsch, q, 0.1)
    assert build(deutsch, np.int64(q), 0.0) is build(deutsch, q, 0.0)
    assert all(type(key[1]) is int for key in _programs(deutsch))


def test_a_copied_problem_builds_its_own_programs(deutsch, tmp_path):
    # dataclasses.replace starts the copy with an empty derived dict, after
    # programs, a bound and a witness were made on the original; its
    # program is a new object with the same SDPA bytes
    prog = build_primal(deutsch, 1, 0.1)
    gamma = (deutsch.output_index[:, None] != deutsch.output_index[None, :]).astype(float)
    spectral_bound(deutsch, gamma, 0.1)
    make_dual_witness(deutsch, gamma, 0, 0.1)
    assert {"_programs", "_differences", "_last_weighting", "_pair_rows"} <= set(deutsch.derived)
    copy = dataclasses.replace(deutsch)
    assert copy.derived == {}
    other = build_primal(copy, 1, 0.1)
    assert other is not prog and build_primal(copy, 1, 0.1) is other
    export_sdpa(prog, str(tmp_path / "a.dat-s"))
    export_sdpa(other, str(tmp_path / "b.dat-s"))
    assert (tmp_path / "a.dat-s").read_bytes() == (tmp_path / "b.dat-s").read_bytes()


@pytest.mark.parametrize("build", _ALL_BUILDS)
@pytest.mark.parametrize("q", [0, 1])
def test_a_cached_program_is_read_only(deutsch, build, q):
    prog = build(deutsch, q, 0.1)
    row, block = prog.rows[0], prog.blocks[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        prog.rows = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.rhs = np.zeros_like(row.rhs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        block.dim = 1
    with pytest.raises(AttributeError):
        prog.rows.append(row)
    with pytest.raises(AttributeError):
        row.terms.append(row.terms[0])
    for r in prog.rows:
        with pytest.raises(ValueError, match="read-only"):
            r.rhs[0, 0] = 7.0
