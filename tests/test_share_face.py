"""The eps-0 faces of the existence programs.

At eps = 0 the final states of inputs with different outputs are
orthogonal, so share z of the final Gram matrix vanishes outside class z's
rows and columns, and `build_primal` holds it as a c_z x c_z block;
`build_dual`, its Farkas alternative, reads each output comparison on the
same face, as a c_z x c_z row. On that face every input succeeds with
certainty, and the relaxed pair margin is 0, so neither program carries a
slack its other rows pin at zero. At eps > 0 nothing changes. Face
certificates are witness points of the witness programs as they stand.
"""

import dataclasses

import numpy as np
import pytest

from qqc.programs import (
    build_dual, build_dual_relaxed, build_primal, build_primal_relaxed, pair_name,
)
from qqc.solver import solve, verify_point

from conftest import BUILDERS, FAMILIES, PROBLEMS

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
    # shares and build_dual's share rows are c_z x c_z (full s x s at
    # eps 0.1 and q >= 1, 1x1 on the face of J at q = 0); at q = 0
    # build_primal's init row and build_dual's init multiplier are s x s
    # (1x1 on the face of J at eps 0.1); build_primal has no success slacks
    # and no success rows, so build_dual has no success multipliers;
    # build_primal_relaxed has no pair slacks, so build_dual_relaxed's pair
    # multipliers are free
    p = ALL[pname]
    classes = {f"output_part_{z}": len(p.class_indices(z)) for z in p.outputs}
    init = {"init": p.size} if q == 0 else {}
    eps0_dims = {  # (blocks, rows) whose eps-0 dimension is not eps 0.1's
        "primal": (classes, init),
        "dual": (init, classes),
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
