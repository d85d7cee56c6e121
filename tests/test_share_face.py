"""The faces the exact program holds its output shares on.

At eps = 0 the final states of inputs with different outputs are
orthogonal, so share z of the final Gram matrix vanishes outside class z's
rows and columns, and `build_primal` holds it as a c_z x c_z block;
`build_dual`, its Farkas alternative, reads each output comparison on the
same face, as a c_z x c_z row. On that face every input succeeds with
certainty, and the relaxed pair margin is 0, so neither program carries a
slack its other rows pin at zero. Face certificates are witness points of
the witness programs as they stand.

At eps > 0 and q >= 1 every share's range lies in the span E of the
functions x -> (U_x^{⊗q})_{ab}, so where that span is proper the shares are
r x r blocks on it. The span is unconjugated: a complex family checks it
against the full-block program.
"""

import dataclasses

import numpy as np
import pytest

from qqc import solver
from qqc.problem import QueryProblem
from qqc.programs import (
    build_dual, build_dual_relaxed, build_primal, build_primal_relaxed, pair_name,
    reachable_span,
)
from qqc.reconstruct import reconstruct_algorithm
from qqc.simulate import run, success_report
from qqc.solver import solve, verify_point

from conftest import BUILDERS, FAMILIES, PROBLEMS, START_FACE_PROBLEMS, full_span_copy

ALL = {**PROBLEMS, **FAMILIES}


def _shape(prog):
    return ([(b.name, b.dim, b.psd) for b in prog.blocks],
            [(r.name, r.dim, r.sense) for r in prog.rows])


@pytest.mark.parametrize("pname", sorted(ALL))
@pytest.mark.parametrize("q", [0, 1])
def test_shares_sit_on_their_class_at_eps_zero(pname, q):
    p = ALL[pname]
    dims = {b.name: b.dim for b in build_primal(p, q, 0.0).blocks}
    for z in p.outputs:
        assert dims[f"output_part_{z}"] == len(p.class_indices(z))


@pytest.mark.parametrize("pname", sorted(ALL))
@pytest.mark.parametrize("q", [0, 1])
def test_only_the_exact_shares_change_with_eps(pname, q):
    # every builder's blocks and rows have the same names, dimensions and
    # kinds at eps 0 and 0.1, but for the eps-0 differences: build_primal's
    # shares and build_dual's share rows are c_z x c_z (at eps 0.1 and
    # q >= 1 r x r on the reachable span, 1x1 on the face of J at q = 0); at
    # q = 0 build_primal's init row and build_dual's init multiplier are s x s
    # (1x1 on the face of J at eps 0.1), and at q >= 1 so are its
    # final_gram_def row and multiplier (r x r at eps 0.1); build_primal has
    # no success slacks and no success rows, so build_dual has no success
    # multipliers; build_primal_relaxed has no pair slacks, so
    # build_dual_relaxed's pair multipliers are free
    p = ALL[pname]
    classes = {f"output_part_{z}": len(p.class_indices(z)) for z in p.outputs}
    last = {"final_gram_def" if q else "init": p.size}
    eps0_dims = {  # (blocks, rows) whose eps-0 dimension is not eps 0.1's
        "primal": (classes, last),
        "dual": (last, classes),
        "primal_relaxed": ({}, {}),
        "dual_relaxed": ({}, {}),
    }
    success = {f"success_{lab}" for lab in p.labels}
    slacks = {f"success_slack_{lab}" for lab in p.labels}
    pairs = {pair_name(p, pr) for pr in p.differing_pairs()}
    gone = {  # (blocks, rows) that only eps 0.1 has
        "primal": (slacks, success),
        "dual": (success, set()),
        "primal_relaxed": ({f"pair_slack_{n}" for n in pairs}, set()),
        "dual_relaxed": (set(), set()),
    }
    free = {f"pair_{n}" for n in pairs}
    for name, build in BUILDERS.items():
        (blocks0, rows0), (blocks1, rows1) = _shape(build(p, q, 0.0)), _shape(build(p, q, 0.1))
        gone_blocks, gone_rows = gone[name]
        block_dims, row_dims = eps0_dims[name]
        assert {b[0] for b in blocks1} - {b[0] for b in blocks0} == gone_blocks, name
        assert {r[0] for r in rows1} - {r[0] for r in rows0} == gone_rows, name
        assert blocks0 == [
            (b, block_dims.get(b, d), psd and not (name == "dual_relaxed" and b in free))
            for b, d, psd in blocks1 if b not in gone_blocks
        ], name
        assert rows0 == [
            (r, row_dims.get(r, d), sense) for r, d, sense in rows1 if r not in gone_rows
        ], name


@pytest.mark.parametrize("pname", sorted(ALL))
@pytest.mark.parametrize("q", [0, 1, 2])
def test_no_slack_pinned_at_zero_at_eps_zero(pname, q):
    # at eps 0 the class faces give every input success 1 and the pair
    # margin is 0, so no program carries a success slack or row, or a pair
    # slack, and each pair row reads the chain alone
    p = ALL[pname]
    for name, build in BUILDERS.items():
        prog = build(p, q, 0.0)
        names = [b.name for b in prog.blocks] + [r.name for r in prog.rows]
        assert not [x for x in names if x.startswith(("success_", "pair_slack_"))], name
    for row in build_primal_relaxed(p, q, 0.0).rows:
        if row.name.startswith("pair_"):
            assert len(row.terms) == 1


def test_pair_rows_off_the_range_certify_at_once():
    # at eps 0 the pair rows pin each differing pair's Gram entry to 0, which
    # init's J contradicts at q = 0 through the range of A alone: the
    # certificate comes before any sweep and meets every witness row
    p = PROBLEMS["deutsch"]
    out = solve(build_primal_relaxed(p, 0, 0.0))
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
    assert out.iterations == 0
    rep = verify_point(build_dual_relaxed(p, 0, 0.0), out.certificate)
    assert rep.max_residual <= 1e-8
    assert rep.min_block_eig >= -1e-8
    assert rep.strict_slack > 0


@pytest.mark.parametrize("pname", ["pauli_id", "weyl3"])
def test_face_polish_finishes_in_a_few_steps(pname, monkeypatch):
    # at the full-block singular root the polish took 20 Gauss-Newton steps
    # per cell; on the face it lands in a handful
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    out = solve(build_primal(dataclasses.replace(FAMILIES[pname]), 1, 0.0))
    assert out.status == "FEASIBLE"
    assert len(calls) <= 5


@pytest.mark.parametrize("pname", ["pauli_class", "pauli_id", "weyl3"])
def test_face_certificates_lift_to_witness_points(pname):
    # the right-hand side falls off the face program's range, so the
    # certificate comes before any sweep; as it stands, it meets every
    # build_dual row
    p = FAMILIES[pname]
    out = solve(build_primal(p, 0, 0.0))
    assert out.status == "INFEASIBLE_WITH_CERTIFICATE"
    assert out.iterations == 0
    rep = verify_point(build_dual(p, 0, 0.0), out.certificate)
    assert rep.max_residual <= 1e-8
    assert rep.min_block_eig >= -1e-8
    assert rep.strict_slack > 0


@pytest.mark.parametrize("pname,q,rank", [("deutsch", 1, 2), ("deutsch", 2, 2),
                                          ("all_equal", 1, 3), ("xor12", 1, 3)])
def test_reachable_span_rank(pname, q, rank):
    # deutsch: (-1)^x1 and (-1)^x2 at q=1, 1 and (-1)^(x1+x2) at q=2; the
    # 3-bit phase queries: (-1)^x1, (-1)^x2 and (-1)^x3
    p = {**PROBLEMS, **START_FACE_PROBLEMS}[pname]
    span = reachable_span(p, q)
    assert span.shape == (p.size, rank)
    assert np.allclose(span.conj().T @ span, np.eye(rank), atol=1e-14)
    assert span is reachable_span(p, q)
    assert {b.dim for b in build_primal(p, q, 0.1).blocks if b.name.startswith("output_part_")} == {rank}


def test_a_span_full_only_through_a_small_direction_keeps_full_blocks():
    # I, X and diag(1, e^{i 1e-8}): the third input's entries leave the span
    # of the first two only by about 1e-8, far above the rounding bound
    us = np.stack([np.eye(2), [[0, 1], [1, 0]], np.diag([1.0, np.exp(1e-8j)])]).astype(complex)
    p = QueryProblem(2, ("i", "x", "d"), us, ("0", "1"), {"i": "0", "x": "1", "d": "0"})
    for q in (1, 2):
        assert reachable_span(p, q).shape == (3, 3)
        dims = {b.name: b.dim for b in build_primal(p, q, 0.1).blocks}
        assert dims["output_part_0"] == dims["output_part_1"] == 3


def _quarter_phases(g) -> QueryProblem:
    # U_x = diag(1, i^x), x = 0..3: complex, commuting, and its span is
    # 1 and i^x at q=1, with (-1)^x at q=2
    us = np.stack([np.diag([1.0, 1j**x]) for x in range(4)])
    labels = tuple(str(x) for x in range(4))
    return QueryProblem(2, labels, us, tuple(sorted({str(g(x)) for x in range(4)})),
                        {str(x): str(g(x)) for x in range(4)})


_QUARTER = {"mod2": lambda x: x % 2, "id": lambda x: x, "half": lambda x: x // 2}


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("gname", sorted(_QUARTER))
def test_complex_span_keeps_every_answer(monkeypatch, gname, q):
    # the shares on the span agree with the full-block program: every cell
    # the span certifies infeasible is not FEASIBLE there, and every feasible
    # one rebuilds a protocol that succeeds on the problem. The span taken
    # conjugated certifies feasible cells infeasible (g = x // 2 at q=1,
    # eps 0.2, where a 0.843 protocol exists) and rebuilds broken protocols.
    # With the full budget the full-block program certifies every one of
    # these cells, but near its boundary only after up to 50 000 sweeps, so
    # it runs here on 1 024: a FEASIBLE answer comes within 128.
    p = _quarter_phases(_QUARTER[gname])
    span = reachable_span(p, q)
    assert span.shape == (4, q + 1)
    infeasible = []
    for eps in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        out = solve(build_primal(p, q, eps))
        assert out.status != "UNDECIDED", eps
        if out.status == "FEASIBLE":
            alg = reconstruct_algorithm(p, q, eps).algorithm
            assert success_report(run(alg, p), p, eps).passed, eps
        else:
            infeasible.append(eps)
    full = full_span_copy(p)
    monkeypatch.setattr(solver, "_MAX_ITERS", 1024)
    for eps in infeasible:
        assert solve(build_primal(full, q, eps)).status != "FEASIBLE", eps
