"""SDPA sparse (.dat-s) export and parsing for equality-form programs.

A program {A(x) = b, x in PSD product} is written in the SDPA dual
convention: one scalar constraint tr(F_k Y) = c_k per real coordinate of
each matrix row, with Y the block-diagonal variable and F_0 = 0 (pure
feasibility). The F_k come from the solver's dense operator assembly, the
one the solver decides on and keeps on the program (`solver._assembly`):
on block j, F_k is unhvec of row k of A restricted to block j's columns. Complex Hermitian blocks of
dimension > 1 are emitted at doubled size through the real-symmetric
embedding

    H -> [[Re H, -Im H], [Im H, Re H]] / 2

whose halved entries keep every tr(F_k Y) value unchanged; 1x1 blocks stay
1x1. Each upper-triangle entry of that embedding is one hvec coordinate
times a fixed scale, or zero, so a table per block dimension (coordinate,
scale, i, j), derived once from the embedding of two unhvec matrices,
turns the whole export into one gather of A's columns and one multiply.
Entry lines are "k b i j v" with i <= j and 17 significant digits, sorted
by constraint k, then block, then (i, j) row by row: the gathered columns
run in that order, so `np.nonzero` reads the entries off sorted, and
identical programs produce identical bytes. A value that is not finite has
no decimal form (the format gives "inf" or "nan"), so the writer refuses it
with ValueError, and the parser refuses it as it does any malformed line:
with a ValueError that names the file.

A program is read-only, so its text is formatted once: `_sdpa_text` keeps
it in the program's `derived` dict, formatted by the same `_text` that
`write_sdpa` writes, and every later export of the program checks the
program and writes the kept text. A `dataclasses.replace` copy of the
program formats its own.

An existing file is rewritten in place: it keeps its inode, its permissions
and, for a symlink, its target, and is cut to the new text's length after
the write. Opening it with O_TRUNC instead makes ext4 wait for the data it
frees (about 70 ms per rewrite on a `discard` mount), and so does renaming
a temporary file over it.
"""

from __future__ import annotations

import functools
import math
import os
import stat
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .programs import Block, BlockMap, ConicFeasibilityProgram, Row, _derived
from .solver import _assembly, unhvec

__all__ = ["SdpaData", "export_sdpa", "parse_sdpa", "write_sdpa", "sdpa_to_program"]


@dataclass
class SdpaData:
    """Contents of one SDPA sparse file."""

    n_constraints: int
    block_sizes: list[int]
    rhs: list[float]
    entries: list[tuple[int, int, int, int, float]]  # (k, block, i, j, value), 1-based


def _fmt(v: float) -> str:
    s = format(float(v), ".17g")
    if not any(ch in s for ch in ".eE"):
        # a value formatted with no point and no exponent is an integer or not finite
        if not math.isfinite(float(v)):
            raise ValueError(f"SDPA files hold finite numbers only, got {s}")
        s += ".0"
    return s


def _doubled(h: np.ndarray) -> np.ndarray:
    re, im = h.real, h.imag
    return 0.5 * np.block([[re, -im], [im, re]])


class _Entries(NamedTuple):
    """Where each upper-triangle entry of a d x d block's SDPA matrix reads
    the block's hvec coordinates: entry (i[e], j[e]) is coord[e]'s value
    times scale[e]. Entries that read no coordinate (the diagonal of the
    doubled form's -Im corner) are left out."""

    coord: np.ndarray
    scale: np.ndarray
    i: np.ndarray
    j: np.ndarray


@functools.lru_cache(maxsize=None)
def _entries(d: int) -> _Entries:
    """The entry table of d x d blocks, built once per d, in row-major
    (i, j) order.

    Each entry reads one coordinate times a fixed scale, so two SDPA
    matrices give the table: that of all-ones coordinates holds the scales,
    and that of coordinates 1, 2, ..., d² holds (coordinate + 1) times them.
    The d² unit matrices would give it too, in d⁴ floats.
    """
    h = unhvec(np.stack([np.ones(d * d), np.arange(1.0, d * d + 1)]), d)
    f = h.real if d == 1 else _doubled(h)
    i, j = np.triu_indices(f.shape[-1])
    scale, label = f[0, i, j], f[1, i, j]
    keep = scale != 0.0
    coord = np.rint(label[keep] / scale[keep]).astype(np.intp) - 1
    table = _Entries(coord, scale[keep], i[keep], j[keep])
    for arr in table:
        arr.flags.writeable = False
    return table


def _constraint_matrices(prog: ConicFeasibilityProgram) -> SdpaData:
    """One SDPA constraint per row of the shared assembly (A, b), in one gather.

    Every upper-triangle entry of every block's matrix is one column of A
    times a scale (`_entries`), so one gather of A gives each constraint's
    entries along its row, by block and then row-major (i, j), and
    `np.nonzero` reads them off in the file's order.
    """
    a, b, block_off = _assembly(prog)
    sizes = [blk.dim if blk.dim == 1 else 2 * blk.dim for blk in prog.blocks]
    tables = [_entries(blk.dim) for blk in prog.blocks]
    col = np.concatenate([t.coord + off for t, off in zip(tables, block_off)])
    scale = np.concatenate([t.scale for t in tables])
    # (block, i, j) of every entry, in the gather's column order
    pos = np.concatenate([np.stack([np.full_like(t.i, bj), t.i, t.j])
                          for bj, t in enumerate(tables)], axis=1)
    f = a[:, col]
    f *= scale
    k, e = np.nonzero(f)
    entries = list(zip(*(np.vstack([k, pos[:, e]]) + 1).tolist(), f[k, e].tolist()))
    return SdpaData(a.shape[0], sizes, b.tolist(), entries)


def _write_in_place(path: str, text: str) -> None:
    """Write text to path over what it holds, without O_TRUNC, and cut off the rest.

    Only a regular file is cut: truncate fails on /dev/null (EINVAL) and on
    a pipe such as /dev/stdout (ESPIPE), which both hold nothing to cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _text(data: SdpaData) -> str:
    """The file's text; a value that is not finite raises ValueError."""
    lines = [
        str(data.n_constraints),
        str(len(data.block_sizes)),
        " ".join(str(s) for s in data.block_sizes),
        " ".join(_fmt(v) for v in data.rhs),
    ]
    for k, b, i, j, v in data.entries:
        lines.append(f"{k} {b} {i} {j} {_fmt(v)}")
    return "\n".join(lines) + "\n"


def write_sdpa(data: SdpaData, path: str) -> str:
    _write_in_place(path, _text(data))
    return path


@_derived
def _sdpa_text(prog: ConicFeasibilityProgram) -> str:
    """The program's export text, formatted once per read-only program."""
    return _text(_constraint_matrices(prog))


def export_sdpa(prog: ConicFeasibilityProgram, path: str) -> str:
    """Write an equality-sense program as an SDPA sparse feasibility file."""
    if any(r.sense != "eq" for r in prog.rows):
        raise ValueError("only equality-sense programs can be exported")
    for b in prog.blocks:
        if not b.psd:
            raise ValueError("exported programs must have PSD blocks only")
    _write_in_place(path, _sdpa_text(prog))
    return path


def parse_sdpa(path: str) -> SdpaData:
    with open(path) as fh:
        text = fh.read()
    try:
        return _parse(text)
    except ValueError as err:  # the checks of `_parse`, and a count such as int("1.5")
        raise ValueError(f"{path}: {err}") from None


def _parse(text: str) -> SdpaData:
    # the data lines, separators read as spaces; blank lines and comments are left out
    spaced = text.translate(str.maketrans(",{}()", "     ")).splitlines()
    lines = [line for raw, line in zip(text.splitlines(), spaced) if raw.strip()[:1] not in ("", '"', "*")]
    if len(lines) < 4:
        raise ValueError("truncated SDPA file")
    if not (lines[0].split() and lines[1].split()):
        raise ValueError("SDPA header line without a count")
    m = int(lines[0].split()[0])
    nblocks = int(lines[1].split()[0])
    sizes = [int(t) for t in lines[2].split()]
    if len(sizes) != nblocks or 0 in sizes:  # a negative size is a diagonal block
        raise ValueError(f"block sizes {sizes} for {nblocks} blocks")
    rhs = [float(t) for t in lines[3].split()]
    if len(rhs) != m:
        raise ValueError(f"{len(rhs)} rhs values for {m} constraints")
    entries = []
    for line in lines[4:]:
        toks = line.split()
        if len(toks) != 5:
            raise ValueError(f"malformed entry line {line!r}")
        k, b, i, j, v = int(toks[0]), int(toks[1]), int(toks[2]), int(toks[3]), float(toks[4])
        if not (0 <= k <= m and 1 <= b <= nblocks):
            raise ValueError(f"entry indices out of range in {line!r}")
        d = abs(sizes[b - 1])
        if not (1 <= i <= j <= d) or (sizes[b - 1] < 0 and i != j):
            raise ValueError(f"entry position outside block {b} in {line!r}")
        entries.append((k, b, i, j, v))
    if not all(map(math.isfinite, rhs + [e[4] for e in entries])):  # what `write_sdpa` refuses
        raise ValueError("SDPA files hold finite numbers only")
    return SdpaData(m, sizes, rhs, entries)


def sdpa_to_program(data: SdpaData) -> ConicFeasibilityProgram:
    """Rebuild a feasibility program (real blocks, scalar rows) from file data."""
    blocks = [Block(f"block_{b + 1}", abs(s), True) for b, s in enumerate(data.block_sizes)]
    mats: dict[tuple[int, int], np.ndarray] = {}
    for k, b, i, j, v in data.entries:
        if k == 0:
            continue  # constant term; zero for feasibility exports
        key = (k, b)
        if key not in mats:
            mats[key] = np.zeros((abs(data.block_sizes[b - 1]),) * 2)
        mats[key][i - 1, j - 1] = v
        mats[key][j - 1, i - 1] = v
    rows = []
    for k in range(1, data.n_constraints + 1):
        terms = []
        for b in range(1, len(data.block_sizes) + 1):
            f = mats.get((k, b))
            if f is not None:
                terms.append(
                    (b - 1, BlockMap("trace_against", d_in=f.shape[0], d_out=1, mat=f.astype(complex)))
                )
        rows.append(Row(f"c_{k}", 1, terms, np.array([[data.rhs[k - 1]]], dtype=complex)))
    return ConicFeasibilityProgram(blocks, rows)
