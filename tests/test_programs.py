import numpy as np
import pytest

from qqc.problem import build_constants
from qqc.programs import (
    BlockMap,
    build_dual,
    build_dual_relaxed,
    build_primal,
    build_primal_relaxed,
    certificate_to_dual_point,
    pair_name,
)
from qqc.solver import verify_point

from conftest import PROBLEMS


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def _map_inventory(rng, s, n):
    """One instance of every map kind, sized for an (s, n) split."""
    u = np.linalg.qr(rng.standard_normal((s * n, s * n))
                     + 1j * rng.standard_normal((s * n, s * n)))[0]
    sym = rng.standard_normal((s, s))
    sym = sym + sym.T
    c = random_hermitian(rng, s)
    return [
        BlockMap("conj_pt", d_in=s * n, d_out=s, split=(s, n)),
        BlockMap("conj_pt", d_in=s * n, d_out=s, scale=-2.0, mat=u, split=(s, n)),
        BlockMap("conj_tensor", d_in=s, d_out=s * n, split=(s, n)),
        BlockMap("conj_tensor", d_in=s, d_out=s * n, scale=0.7, mat=u, split=(s, n)),
        BlockMap("id", d_in=s, d_out=s, scale=-1.5),
        BlockMap("schur", d_in=s, d_out=s, mat=sym),
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


def test_block_map_rejects_bad_input_shape():
    m = BlockMap("id", d_in=3, d_out=3)
    with pytest.raises(ValueError):
        m.apply(np.eye(2, dtype=complex))


def test_primal_structure(deutsch):
    prog = build_primal(deutsch, 2, 0.1)
    names = [b.name for b in prog.blocks]
    assert names == ["state_iq_0", "state_iq_1", "final_gram",
                     "output_part_0", "output_part_1",
                     "output_slack_0", "output_slack_1"]
    dims = {b.name: b.dim for b in prog.blocks}
    assert dims["state_iq_0"] == 8 and dims["final_gram"] == 4
    assert all(b.psd for b in prog.blocks)
    rows = {r.name: r for r in prog.rows}
    assert set(rows) == {"init", "chain_1", "final_gram_def", "decompose",
                         "output_0", "output_1"}
    assert all(r.sense == "eq" for r in prog.rows)
    assert np.array_equal(rows["init"].rhs, np.ones((4, 4)))
    c = build_constants(deutsch)
    assert np.array_equal(rows["output_0"].rhs, 0.9 * c.deltas["0"])
    assert prog.meta["kind"] == "primal"


def test_primal_q0_pins_final_gram(const):
    prog = build_primal(const, 0, 0.0)
    assert [b.name for b in prog.blocks] == ["final_gram", "output_part_0",
                                             "output_slack_0"]
    rows = {r.name for r in prog.rows}
    assert rows == {"init", "decompose", "output_0"}


def test_primal_q0_constant_hand_point(const):
    # all-ones Gram splits into one full share; slack diag = eps
    eps = 0.25
    prog = build_primal(const, 0, eps)
    ones = np.ones((4, 4), dtype=complex)
    point = {"final_gram": ones, "output_part_0": ones,
             "output_slack_0": eps * np.eye(4, dtype=complex)}
    rep = verify_point(prog, point)
    assert rep.max_residual <= 1e-12
    assert rep.min_block_eig >= -1e-12


def test_primal_relaxed_structure(deutsch):
    prog = build_primal_relaxed(deutsch, 1, 0.1)
    c = build_constants(deutsch)
    slack_names = {f"pair_slack_{pair_name(deutsch, pr)}" for pr in c.pairs}
    assert {b.name for b in prog.blocks} == {"state_iq_0", "final_gram"} | slack_names
    margin = 2.0 * np.sqrt(0.1 * 0.9)
    for pr in c.pairs:
        row = next(r for r in prog.rows if r.name == f"pair_{pair_name(deutsch, pr)}")
        assert np.allclose(row.rhs, margin * c.w_mats[pr])


def test_dual_structure(deutsch):
    prog = build_dual(deutsch, 2, 0.0)
    free = [b.name for b in prog.blocks if not b.psd]
    psd = [b.name for b in prog.blocks if b.psd]
    assert free == ["chain_dual_0", "chain_dual_1", "chain_dual_2"]
    assert psd == ["output_dual_0", "output_dual_1"]
    senses = {r.name: r.sense for r in prog.rows}
    assert senses == {"query_1": "psd", "query_2": "psd",
                      "dominate_0": "psd", "dominate_1": "psd",
                      "strict": "strict"}
    strict = next(r for r in prog.rows if r.sense == "strict")
    assert strict.dim == 1


def test_dual_relaxed_structure(deutsch):
    prog = build_dual_relaxed(deutsch, 1, 0.1)
    c = build_constants(deutsch)
    assert [b.name for b in prog.blocks if not b.psd] == ["step_0", "step_1"]
    assert len([b for b in prog.blocks if b.psd]) == len(c.pairs)
    names = {r.name for r in prog.rows}
    assert "anchor" in names and "query_1" in names and "strict" in names
    patterns = [r for r in prog.rows if r.name.startswith("pattern_")]
    assert len(patterns) == len(c.pairs)
    assert all(r.sense == "eq" for r in patterns)


@pytest.mark.parametrize("q,eps", [(-1, 0.0), (0, -0.1), (0, 1.0), (1.5, 0.0)])
def test_builders_reject_bad_parameters(deutsch, q, eps):
    with pytest.raises(ValueError):
        build_primal(deutsch, q, eps)


def test_row_value_evaluates_terms(deutsch):
    prog = build_primal(deutsch, 0, 0.0)
    point = {"final_gram": np.eye(4, dtype=complex),
             "output_part_0": np.eye(4, dtype=complex),
             "output_part_1": np.zeros((4, 4), dtype=complex),
             "output_slack_0": np.zeros((4, 4), dtype=complex),
             "output_slack_1": np.zeros((4, 4), dtype=complex)}
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
                    point = certificate_to_dual_point(p, q, eps, out.certificate, relaxed=relaxed)
                    prog = build(p, q, eps)
                    assert set(point) == {b.name for b in prog.blocks}
                    rep = verify_point(prog, point)
                    case = (pname, builder, q, eps)
                    assert rep.max_residual <= 1e-8, case
                    assert rep.min_block_eig >= -1e-8, case
                    assert rep.strict_slack > 0, case
    assert seen == 20
