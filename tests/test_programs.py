import numpy as np
import pytest

from qqc.programs import (
    BlockMap,
    build_dual,
    build_dual_relaxed,
    build_primal,
    build_primal_relaxed,
    certificate_to_dual_point,
    pair_name,
)
from qqc.solver import assemble, verify_point

from conftest import FAMILIES, PROBLEMS


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def _map_inventory(rng, s, n):
    """One instance of every map kind, sized for an (s, n) split."""
    u = np.linalg.qr(rng.standard_normal((s * n, s * n))
                     + 1j * rng.standard_normal((s * n, s * n)))[0]
    c = random_hermitian(rng, s)
    # the pair congruences of the relaxed programs: E† = [e_0 e_{s-1}]† and
    # Z E† with Z = diag(1, -1), as plain congruences with split (2, 1)
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
    # with a zero slack the pair row reads -[[0, G_ij], [G_ji, 0]] off G, so
    # the row = margin·I has a PSD slack exactly when |G_ij| <= margin
    prog = build_primal_relaxed(deutsch, 0, 0.1)
    rng = np.random.default_rng(5)
    g = random_hermitian(rng, 4)
    point = {b.name: np.zeros((b.dim, b.dim), dtype=complex) for b in prog.blocks}
    point["final_gram"] = g
    for i, j in deutsch.differing_pairs():
        row = next(r for r in prog.rows if r.name == f"pair_{pair_name(deutsch, (i, j))}")
        want = -np.array([[0.0, g[i, j]], [g[j, i], 0.0]])
        assert np.max(np.abs(prog.row_value(row, point) - want)) <= 1e-15


def test_success_rows_read_the_share_entry(deutsch):
    # with zero slacks each input's success row reads entry (i, i) of its
    # class's share and nothing else
    prog = build_primal(deutsch, 0, 0.1)
    rng = np.random.default_rng(6)
    point = {b.name: np.zeros((b.dim, b.dim), dtype=complex) for b in prog.blocks}
    for z in deutsch.outputs:
        point[f"output_part_{z}"] = random_hermitian(rng, 4)
    point["final_gram"] = random_hermitian(rng, 4)
    for i, lab in enumerate(deutsch.labels):
        row = next(r for r in prog.rows if r.name == f"success_{lab}")
        assert row.dim == 1
        want = point[f"output_part_{deutsch.g[lab]}"][i, i]
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
    prog = build_primal(deutsch, 2, 0.1)
    names = [b.name for b in prog.blocks]
    slacks = [f"success_slack_{lab}" for lab in deutsch.labels]
    assert names == ["rho_0", "state_iq_1", "final_gram",
                     "output_part_0", "output_part_1"] + slacks
    dims = {b.name: b.dim for b in prog.blocks}
    assert dims["rho_0"] == 2 and dims["state_iq_1"] == 8 and dims["final_gram"] == 4
    assert all(dims[name] == 1 for name in slacks)
    assert all(b.psd for b in prog.blocks)
    rows = {r.name: r for r in prog.rows}
    success = {f"success_{lab}" for lab in deutsch.labels}
    assert set(rows) == {"init", "chain_1", "final_gram_def", "decompose"} | success
    assert all(r.sense == "eq" for r in prog.rows)
    assert rows["init"].dim == 1
    assert np.array_equal(rows["init"].rhs, [[1.0]])
    for name in success:
        assert rows[name].dim == 1
        assert np.array_equal(rows[name].rhs, [[0.9]])


def test_primal_q0_pins_final_gram(const):
    prog = build_primal(const, 0, 0.0)
    assert [b.name for b in prog.blocks] == ["final_gram", "output_part_0"] + [
        f"success_slack_{lab}" for lab in const.labels]
    rows = {r.name for r in prog.rows}
    assert rows == {"init", "decompose"} | {f"success_{lab}" for lab in const.labels}


def test_primal_q0_constant_hand_point(const):
    # all-ones Gram splits into one full share; every success slack = eps
    eps = 0.25
    prog = build_primal(const, 0, eps)
    ones = np.ones((4, 4), dtype=complex)
    point = {"final_gram": ones, "output_part_0": ones}
    point.update({f"success_slack_{lab}": np.full((1, 1), eps) for lab in const.labels})
    rep = verify_point(prog, point)
    assert rep.max_residual <= 1e-12
    assert rep.min_block_eig >= -1e-12


def test_primal_relaxed_structure(deutsch):
    prog = build_primal_relaxed(deutsch, 1, 0.1)
    slack_names = {f"pair_slack_{pair_name(deutsch, pr)}" for pr in deutsch.differing_pairs()}
    assert {b.name for b in prog.blocks} == {"rho_0", "final_gram"} | slack_names
    assert all(b.dim == 2 for b in prog.blocks if b.name in slack_names)
    margin = 2.0 * np.sqrt(0.1 * 0.9)
    for pr in deutsch.differing_pairs():
        row = next(r for r in prog.rows if r.name == f"pair_{pair_name(deutsch, pr)}")
        assert row.dim == 2
        assert np.array_equal(row.rhs, margin * np.eye(2))


def test_dual_structure(deutsch):
    # on the existence program's faces: the multiplier of tr rho_0 = 1 is a
    # scalar, its query row is n x n, and at eps 0 each output comparison is
    # a c_z x c_z row
    prog = build_dual(deutsch, 2, 0.0)
    free = {b.name: b.dim for b in prog.blocks if not b.psd}
    psd = {b.name: b.dim for b in prog.blocks if b.psd}
    assert free == {"chain_dual_0": 1, "chain_dual_1": 4, "chain_dual_2": 4}
    assert psd == {f"success_dual_{lab}": 1 for lab in deutsch.labels}
    rows = {r.name: (r.dim, r.sense) for r in prog.rows}
    assert rows == {"query_1": (2, "psd"), "query_2": (8, "psd"),
                    "dominate_0": (2, "psd"), "dominate_1": (2, "psd"),
                    "strict": (1, "strict")}


def test_dual_relaxed_structure(deutsch):
    # K_q = -tau is a scalar at q >= 1, and its query row is n x n
    prog = build_dual_relaxed(deutsch, 1, 0.1)
    assert [(b.name, b.dim) for b in prog.blocks if not b.psd] == [("step_0", 4), ("step_1", 1)]
    pair_blocks = {f"pair_dual_{pair_name(deutsch, pr)}": 2 for pr in deutsch.differing_pairs()}
    assert {b.name: b.dim for b in prog.blocks if b.psd} == pair_blocks
    rows = {r.name: (r.dim, r.sense) for r in prog.rows}
    assert rows == {"anchor": (4, "psd"), "query_1": (2, "psd"), "strict": (1, "strict")}
    at_zero = build_dual_relaxed(deutsch, 0, 0.1)
    assert [(b.name, b.dim) for b in at_zero.blocks if not b.psd] == [("step_0", 4)]


@pytest.mark.parametrize(
    "q,eps", [(-1, 0.0), (0, -0.1), (0, 1.0), (1.5, 0.0), (1.0, 0.0), (True, 0.0)]
)
def test_builders_reject_bad_parameters(deutsch, q, eps):
    with pytest.raises(ValueError):
        build_primal(deutsch, q, eps)


def test_row_value_evaluates_terms(deutsch):
    # at eps 0 each share is a 2x2 block on its class, and the two classes
    # tile the diagonal
    prog = build_primal(deutsch, 0, 0.0)
    point = {"final_gram": np.eye(4, dtype=complex),
             "output_part_0": np.eye(2, dtype=complex),
             "output_part_1": np.eye(2, dtype=complex)}
    point.update({f"success_slack_{lab}": np.zeros((1, 1)) for lab in deutsch.labels})
    row = next(r for r in prog.rows if r.name == "decompose")
    assert np.allclose(prog.row_value(row, point), 0.0)


def test_pair_name_uses_labels(deutsch):
    assert pair_name(deutsch, (0, 1)) == "00|01"


def test_certificate_to_dual_point_keys(cached_solve):
    # every existence certificate of the criterion-01 grid relabels to a
    # strictly feasible point of the matching witness program
    seen = 0
    for pname, p in PROBLEMS.items():
        for q in (0, 1, 2):
            for eps in (0.0, 0.1):
                for builder, build, relaxed in (("primal", build_dual, False),
                                                ("primal_relaxed", build_dual_relaxed, True)):
                    out = cached_solve(pname, builder, q, eps)
                    if out.status != "INFEASIBLE_WITH_CERTIFICATE":
                        continue
                    seen += 1
                    cert = out.certificate
                    point = certificate_to_dual_point(p, q, eps, cert, relaxed=relaxed)
                    prog = build(p, q, eps)
                    assert set(point) == {b.name for b in prog.blocks}
                    # each witness block is one multiplier, with its sign
                    chain = ["init"] + [f"chain_{t}" for t in range(1, q)] + ["final_gram_def"] * (q > 0)
                    if relaxed:
                        want = {f"step_{t}": -cert[chain[q - t]] for t in range(q + 1)}
                        want.update({f"pair_dual_{pair_name(p, pr)}": cert[f"pair_{pair_name(p, pr)}"]
                                     for pr in p.differing_pairs()})
                    else:
                        want = {f"chain_dual_{t}": cert[name] for t, name in enumerate(chain)}
                        want.update({f"success_dual_{lab}": -cert[f"success_{lab}"] for lab in p.labels})
                    assert set(want) == set(point)
                    for name, m in want.items():
                        assert point[name].tobytes() == m.tobytes(), (pname, builder, q, eps, name)
                    rep = verify_point(prog, point)
                    case = (pname, builder, q, eps)
                    assert rep.max_residual <= 1e-8, case
                    assert rep.min_block_eig >= -1e-8, case
                    assert rep.strict_slack > 0, case
    assert seen == 20
