import numpy as np
import pytest

from qqc.programs import Block, BlockMap, ConicFeasibilityProgram, Row, build_primal
from qqc.sdpa import SdpaData, export_sdpa, parse_sdpa, sdpa_to_program, write_sdpa


def _entries_map(data):
    return {tuple(e[:4]): e[4] for e in data.entries}


def test_write_parse_round_trip(tmp_path):
    data = SdpaData(
        n_constraints=2,
        block_sizes=[2, 1],
        rhs=[1.0, -0.25],
        entries=[
            (0, 1, 1, 2, -3.5),
            (1, 1, 1, 1, 1.0),
            (2, 2, 1, 1, 1e-17),
        ],
    )
    path = tmp_path / "tiny.dat-s"
    write_sdpa(data, str(path))
    back = parse_sdpa(str(path))
    assert back.n_constraints == 2
    assert back.block_sizes == [2, 1]
    assert np.allclose(back.rhs, data.rhs)
    assert _entries_map(back) == _entries_map(data)


def test_parse_skips_comments_and_separators(tmp_path):
    text = '"header comment\n*another\n 2 \n 2 \n {2, 1}\n1.0, -0.25\n'
    text += "0 1 1 2 -3.5\n1 1 1 1 1.0\n2 2 1 1 0.5\n"
    path = tmp_path / "fmt.dat-s"
    path.write_text(text)
    data = parse_sdpa(str(path))
    assert data.n_constraints == 2
    assert data.block_sizes == [2, 1]
    assert data.rhs == [1.0, -0.25]
    assert (0, 1, 1, 2, -3.5) in data.entries


def test_export_matches_reparse_exactly(deutsch, tmp_path):
    # float fidelity through the text file must be bit-exact
    prog = build_primal(deutsch, 1, 0.1)
    path = str(tmp_path / "deutsch.dat-s")
    export_sdpa(prog, path)
    from qqc.sdpa import _constraint_matrices

    direct = _constraint_matrices(prog)
    back = parse_sdpa(path)
    assert back.block_sizes == direct.block_sizes
    assert np.array_equal(np.asarray(back.rhs), np.asarray(direct.rhs))
    d1, d2 = _entries_map(direct), _entries_map(back)
    assert set(d1) == set(d2)
    assert all(abs(d1[k] - d2[k]) <= 1e-15 * max(1.0, abs(d1[k])) for k in d1)


def test_export_doubles_hermitian_blocks(deutsch, tmp_path):
    prog = build_primal(deutsch, 1, 0.0)
    path = str(tmp_path / "dims.dat-s")
    export_sdpa(prog, path)
    data = parse_sdpa(path)
    # the 1x1 success slacks are real already and stay 1x1
    assert data.block_sizes == [b.dim if b.dim == 1 else 2 * b.dim for b in prog.blocks]
    assert data.block_sizes.count(1) == deutsch.size
    assert data.n_constraints == sum(r.dim ** 2 for r in prog.rows)


def test_export_rejects_dual_sense_and_free_blocks(tmp_path):
    free = ConicFeasibilityProgram(
        [Block("y", 2, False)],
        [Row("r", 1, [(0, BlockMap("trace_against", d_in=2, d_out=1,
                                   mat=np.eye(2, dtype=complex)))],
             np.ones((1, 1), dtype=complex))],
    )
    with pytest.raises(ValueError):
        export_sdpa(free, str(tmp_path / "free.dat-s"))

    dual = ConicFeasibilityProgram(
        [Block("x", 2, True)],
        [Row("r", 2, [(0, BlockMap("id", d_in=2, d_out=2))],
             np.zeros((2, 2), dtype=complex), sense="psd")],
    )
    with pytest.raises(ValueError):
        export_sdpa(dual, str(tmp_path / "dual.dat-s"))


def test_sdpa_to_program_solvable(tmp_path):
    # x PSD, tr x = 1 doubled into the real encoding stays feasible
    prog = ConicFeasibilityProgram(
        [Block("x", 2, True)],
        [Row("trace", 1, [(0, BlockMap("trace_against", d_in=2, d_out=1,
                                       mat=np.eye(2, dtype=complex)))],
             np.ones((1, 1), dtype=complex))],
    )
    path = str(tmp_path / "imported.dat-s")
    export_sdpa(prog, path)
    imported = sdpa_to_program(parse_sdpa(path))
    assert [b.dim for b in imported.blocks] == [4]
    from qqc.solver import solve

    out = solve(imported)
    assert out.status == "FEASIBLE"


def test_parse_rejects_truncated_file(tmp_path):
    path = tmp_path / "bad.dat-s"
    path.write_text("2\n1\n{2}\n1.0\n")  # rhs shorter than n_constraints
    with pytest.raises(ValueError):
        parse_sdpa(str(path))
