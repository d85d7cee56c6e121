import dataclasses
import os

import numpy as np
import pytest

from qqc.programs import (
    Block,
    BlockMap,
    ConicFeasibilityProgram,
    Row,
    build_dual,
    build_dual_relaxed,
    build_primal,
    build_primal_relaxed,
)
from qqc.sdpa import (
    SdpaData,
    _constraint_matrices,
    _doubled,
    _entries,
    export_sdpa,
    parse_sdpa,
    sdpa_to_program,
    write_sdpa,
)
from qqc import sdpa, solver
from qqc.solver import assemble, solve, unhvec

from conftest import FAMILIES, PROBLEMS


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


def test_export_rewrites_a_longer_file_in_place(const, deutsch, tmp_path, monkeypatch):
    # a shorter export over a longer one must leave no stale bytes at the end
    path, fresh = tmp_path / "p.dat-s", tmp_path / "fresh.dat-s"
    export_sdpa(build_primal(deutsch, 2, 0.1), str(path))
    inode, size = os.stat(path).st_ino, os.stat(path).st_size
    flags, real_open = [], os.open

    def recording_open(file, fl, *args):
        flags.append(fl)
        return real_open(file, fl, *args)

    monkeypatch.setattr(os, "open", recording_open)
    small = build_primal(const, 0, 0.0)
    export_sdpa(small, str(path))
    monkeypatch.undo()
    export_sdpa(small, str(fresh))
    assert path.read_bytes() == fresh.read_bytes()
    assert os.stat(path).st_size < size
    assert os.stat(path).st_ino == inode
    assert flags and not any(fl & os.O_TRUNC for fl in flags)


def test_export_to_devnull(deutsch):
    # /dev/null is not a regular file, so it is written but never truncated
    assert export_sdpa(build_primal(deutsch, 1, 0.1), os.devnull) == os.devnull


def test_export_doubles_hermitian_blocks(deutsch, tmp_path):
    # at eps 0.1 the program has one 1x1 success slack per input
    prog = build_primal(deutsch, 1, 0.1)
    path = str(tmp_path / "dims.dat-s")
    export_sdpa(prog, path)
    data = parse_sdpa(path)
    # the 1x1 success slacks are real already and stay 1x1
    assert data.block_sizes == [b.dim if b.dim == 1 else 2 * b.dim for b in prog.blocks]
    assert data.block_sizes.count(1) == deutsch.size
    assert data.n_constraints == sum(r.dim ** 2 for r in prog.rows)


@pytest.mark.parametrize("data, shown", [
    (SdpaData(1, [1], [float("inf")], [(1, 1, 1, 1, 1.0)]), "inf"),
    (SdpaData(1, [2], [1.0], [(1, 1, 1, 2, -np.inf)]), "-inf"),
    (SdpaData(1, [2], [1.0], [(1, 1, 1, 1, 0.5), (1, 1, 2, 2, np.nan)]), "nan"),
])
def test_write_refuses_values_that_are_not_finite(data, shown, tmp_path):
    # "inf.0" or "nan.0" would be a file parse_sdpa cannot read; nothing is written
    path = tmp_path / "bad.dat-s"
    with pytest.raises(ValueError, match=f"finite numbers only, got {shown}$"):
        write_sdpa(data, str(path))
    assert not path.exists()


def test_a_program_is_formatted_once(monkeypatch, tmp_path):
    # a second export writes the kept text with no second gather; a
    # dataclasses.replace copy of the program formats its own
    calls = []

    def counted(prog):
        calls.append(prog)
        return _constraint_matrices(prog)

    monkeypatch.setattr(sdpa, "_constraint_matrices", counted)
    prog = dataclasses.replace(build_primal(PROBLEMS["deutsch"], 1, 0.1))
    copy = dataclasses.replace(prog)
    paths = [tmp_path / f"{k}.dat-s" for k in range(3)]
    for target, path in zip((prog, prog, copy), paths):
        export_sdpa(target, str(path))
    assert [c is prog for c in calls] == [True, False] and calls[1] is copy
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


@pytest.mark.parametrize("builder", [build_primal, build_primal_relaxed])
@pytest.mark.parametrize("name", [*PROBLEMS, *FAMILIES])
def test_export_writes_the_bytes_write_sdpa_writes(name, builder, tmp_path):
    # the kept text is write_sdpa's text of the one gather, on the first
    # export and on the next
    p = {**PROBLEMS, **FAMILIES}[name]
    exported, written = tmp_path / "export.dat-s", tmp_path / "write.dat-s"
    for q in (0, 1) if name == "weyl3" else (0, 1, 2):
        for eps in (0.0, 0.1):
            prog = builder(p, q, eps)
            write_sdpa(_constraint_matrices(prog), str(written))
            for _ in range(2):
                export_sdpa(prog, str(exported))
                assert exported.read_bytes() == written.read_bytes(), (q, eps)


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


@pytest.mark.parametrize("text", ["{ }\n1\n{2}\n1.0\n", "1\n( )\n{2}\n1.0\n"])
def test_parse_rejects_header_line_of_punctuation(tmp_path, text):
    # the line has no count once its separators are read as spaces
    path = tmp_path / "bad.dat-s"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad.dat-s"):
        parse_sdpa(str(path))


def test_parse_rejects_off_diagonal_entry_in_diagonal_block(tmp_path):
    # a negative size is a diagonal (LP) block, which has no (1, 2) entry
    path = tmp_path / "bad.dat-s"
    path.write_text("1\n1\n-2\n1.0\n1 1 1 1 1.0\n1 1 1 2 1.0\n")
    with pytest.raises(ValueError):
        parse_sdpa(str(path))
    path.write_text("1\n1\n-2\n1.0\n1 1 1 1 1.0\n1 1 2 2 1.0\n")
    assert parse_sdpa(str(path)).block_sizes == [-2]


@pytest.mark.parametrize("text, reason", [
    ("1\n1\n{2}\n", "truncated SDPA file"),  # no rhs line
    ("1\n1\n{2}\n1.0\n1 1 1 1\n", "malformed entry line"),  # no value
    ("1\n1\n{2}\n1.0\n2 1 1 1 1.0\n", "indices out of range"),  # constraint 2 of 1
    ("1\n1\n{2}\n1.0\n1 2 1 1 1.0\n", "indices out of range"),  # block 2 of 1
    # what `write_sdpa` refuses, and counts that are not integers, are
    # refused naming the file
    ("1\n1\n{2}\nnan\n1 1 1 1 1.0\n", "bad.dat-s: SDPA files hold finite numbers only"),
    ("1\n1\n{2}\n1.0\n1 1 1 1 inf\n", "bad.dat-s: SDPA files hold finite numbers only"),
    ("1\n1\n{2}\n1.0\n1 1 1 1 -inf\n", "bad.dat-s: SDPA files hold finite numbers only"),
    ("1.5\n1\n{2}\n1.0\n1 1 1 1 1.0\n", "bad.dat-s: invalid literal for int"),
    ("1\n1\n{2.5}\n1.0\n1 1 1 1 1.0\n", "bad.dat-s: invalid literal for int"),
    ("1\n1\n{2}\n1.0\n1 1 1.5 1 1.0\n", "bad.dat-s: invalid literal for int"),
])
def test_parse_rejects_a_malformed_body(tmp_path, text, reason):
    path = tmp_path / "bad.dat-s"
    path.write_text(text)
    with pytest.raises(ValueError, match=reason):
        parse_sdpa(str(path))


def test_parse_rejects_zero_block_size(tmp_path):
    path = tmp_path / "bad.dat-s"
    path.write_text("1\n2\n2 0\n1.0\n1 1 1 1 1.0\n")
    with pytest.raises(ValueError):
        parse_sdpa(str(path))


def _per_row_reference(prog):
    # the per-row x per-block loop the stacked export replaced
    a, b, block_off = assemble(prog.blocks, prog.rows)
    row_off = np.cumsum([0] + [r.dim * r.dim for r in prog.rows])[:-1].tolist()
    sizes = [blk.dim if blk.dim == 1 else 2 * blk.dim for blk in prog.blocks]
    entries = []
    for r, r0 in zip(prog.rows, row_off):
        found = []
        for bj, (blk, off) in enumerate(zip(prog.blocks, block_off)):
            h = unhvec(a[r0 : r0 + r.dim * r.dim, off : off + blk.dim * blk.dim], blk.dim)
            f = h.real if blk.dim == 1 else _doubled(h)
            for k, i, j in zip(*np.nonzero(np.triu(f) != 0.0)):
                found.append((r0 + int(k) + 1, bj + 1, int(i) + 1, int(j) + 1, float(f[k, i, j])))
        found.sort(key=lambda e: e[0])
        entries += found
    return SdpaData(a.shape[0], sizes, b.tolist(), entries)


def _assert_same_export(prog, tmp_path):
    got, ref = _constraint_matrices(prog), _per_row_reference(prog)
    assert (got.n_constraints, got.block_sizes, got.rhs) == (
        ref.n_constraints, ref.block_sizes, ref.rhs)
    assert got.entries == ref.entries
    assert all(type(x) is int for e in got.entries for x in e[:4])
    paths = [str(tmp_path / name) for name in ("stacked.dat-s", "reference.dat-s")]
    write_sdpa(got, paths[0])
    write_sdpa(ref, paths[1])
    with open(paths[0], "rb") as f1, open(paths[1], "rb") as f2:
        assert f1.read() == f2.read()
    return got


@pytest.mark.parametrize("builder", [build_primal, build_primal_relaxed])
@pytest.mark.parametrize("name", [*PROBLEMS, *FAMILIES])
def test_export_matches_per_row_reference(name, builder, tmp_path):
    # same tuples in the same order with the same floats, hence the same bytes
    p = {**PROBLEMS, **FAMILIES}[name]
    for q in (0, 1):
        for eps in (0.0, 0.1):
            data = _assert_same_export(builder(p, q, eps), tmp_path)
            if name == "pauli_id" and q == 1:
                _assert_minus_im_corner(builder(p, q, eps), data)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_entry_table_reads_one_coordinate_per_entry(d):
    # every upper-triangle entry of the doubled form of unhvec(v) is at most
    # one coordinate of v times a scale, the same floats as the matrix holds
    t = _entries(d)
    assert not t.coord.flags.writeable
    basis = unhvec(np.eye(d * d), d)
    f = basis.real if d == 1 else _doubled(basis)
    iu = np.triu_indices(f.shape[-1])
    reads = np.count_nonzero(f[:, iu[0], iu[1]], axis=0)
    assert reads.max() == 1
    assert len(t.coord) == np.count_nonzero(reads) == (1 if d == 1 else 2 * d * d)
    v = np.random.default_rng(d).standard_normal((4, d * d))
    h = unhvec(v, d)
    fv = h.real if d == 1 else _doubled(h)
    assert np.array_equal(fv[:, t.i, t.j], v[:, t.coord] * t.scale)
    assert not np.any(np.delete(np.triu(fv).reshape(4, -1), t.i * f.shape[-1] + t.j, axis=1))


def _assert_minus_im_corner(prog, data):
    # Y has complex entries, so some doubled block has a nonzero upper-right
    # corner, and it carries -Im H / 2 of the constraint matrix H
    a, _, block_off = assemble(prog.blocks, prog.rows)
    corner = [e for e in data.entries
              if data.block_sizes[e[1] - 1] > 1 and e[2] <= data.block_sizes[e[1] - 1] // 2 < e[3]]
    assert any(e[4] != 0.0 for e in corner)
    for k, b, i, j, v in corner:
        d, off = prog.blocks[b - 1].dim, block_off[b - 1]
        h = unhvec(a[k - 1, off : off + d * d], d)
        assert v == -0.5 * h[i - 1, j - 1 - d].imag


def test_export_edge_blocks_and_rows(tmp_path):
    # a 1x1 block, a block no row reads, and a row with no terms
    c = np.array([[1.0, 2.0 - 0.5j], [2.0 + 0.5j, -1.0]])
    prog = ConicFeasibilityProgram(
        [Block("s", 1, True), Block("x", 2, True), Block("unused", 3, True)],
        [
            Row("tr_x", 1, [(1, BlockMap("trace_against", d_in=2, d_out=1, mat=c))],
                np.ones((1, 1), dtype=complex)),
            Row("empty", 2, [], np.zeros((2, 2), dtype=complex)),
            Row("s_plus_x", 2, [(0, BlockMap("const_embed", d_in=1, d_out=2,
                                             mat=np.eye(2, dtype=complex))),
                                (1, BlockMap("id", d_in=2, d_out=2))],
                np.eye(2, dtype=complex)),
        ],
    )
    data = _assert_same_export(prog, tmp_path)
    assert data.block_sizes == [1, 4, 6]
    assert data.n_constraints == 1 + 4 + 4
    assert {e[1] for e in data.entries} == {1, 2}
    assert {e[0] for e in data.entries} == {1, 6, 7, 8, 9}
    assert [e[0] for e in data.entries] == sorted(e[0] for e in data.entries)
    path = str(tmp_path / "edge.dat-s")
    export_sdpa(prog, path)
    back = parse_sdpa(path)
    assert back.block_sizes == [1, 4, 6]
    assert back.entries == data.entries


def test_each_program_is_assembled_once(monkeypatch, tmp_path):
    # the existence solve, the witness solve and the export of each existence
    # program read one assembly, made on first use; a copy of the problem
    # starts with nothing cached
    calls = []

    def counted(blocks, rows):
        calls.append(tuple(b.name for b in blocks))
        return assemble(blocks, rows)

    monkeypatch.setattr(solver, "assemble", counted)
    p = dataclasses.replace(PROBLEMS["deutsch"])
    cells = [(exist, witness, q, eps)
             for exist, witness in ((build_primal, build_dual), (build_primal_relaxed, build_dual_relaxed))
             for q in (0, 1) for eps in (0.0, 0.1)]
    for _ in range(2):
        for exist, witness, q, eps in cells:
            solve(exist(p, q, eps))
            solve(witness(p, q, eps))
            export_sdpa(exist(p, q, eps), str(tmp_path / "p.dat-s"))
    assert len(calls) == len(cells)
    # the file reads the shared, read-only A
    a, b, _ = solver._assembly(build_primal(p, 1, 0.1))
    assert not a.flags.writeable and not b.flags.writeable
    assert _constraint_matrices(build_primal(p, 1, 0.1)).n_constraints == a.shape[0]
    assert len(calls) == len(cells)
