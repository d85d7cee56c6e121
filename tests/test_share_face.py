"""The eps-0 class-support face of the exact existence program.

At eps = 0 the final states of inputs with different outputs are
orthogonal, so share z of the final Gram matrix vanishes outside class z's
rows and columns, and `build_primal` holds it as a c_z x c_z block;
`build_dual`, its Farkas alternative, reads each output comparison on the
same face, as a c_z x c_z row. At eps > 0 nothing changes. Face
certificates are witness points of `build_dual` as they stand.
"""

import numpy as np
import pytest

from qqc.programs import build_dual, build_primal
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
    # kinds at eps 0 and 0.1, but for build_primal's shares and build_dual's
    # share rows, which are c_z x c_z at eps 0 and full s x s at eps 0.1
    p = ALL[pname]
    classes = {f"output_part_{z}": len(p.class_indices(z)) for z in p.outputs}
    for name, build in BUILDERS.items():
        (blocks0, rows0), (blocks1, rows1) = _shape(build(p, q, 0.0)), _shape(build(p, q, 0.1))
        assert [(r[0], r[2]) for r in rows0] == [(r[0], r[2]) for r in rows1], name
        for (rname, d0, _), (_, d1, _) in zip(rows0, rows1):
            if name == "dual" and rname in classes:
                assert (d0, d1) == (classes[rname], p.size)
            else:
                assert d0 == d1, (name, rname)
        assert [b[0] for b in blocks0] == [b[0] for b in blocks1], name
        for (bname, d0, psd0), (_, d1, psd1) in zip(blocks0, blocks1):
            assert psd0 == psd1
            if name == "primal" and bname.startswith("output_part_"):
                assert d1 == p.size
            else:
                assert d0 == d1, (name, bname)


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
    out = solve(build_primal(FAMILIES[pname], 1, 0.0))
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
