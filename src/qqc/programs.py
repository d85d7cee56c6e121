"""Conic feasibility programs over Hermitian matrix blocks.

A program is a list of named variable blocks (each free-Hermitian or PSD)
and a list of named matrix rows, each with its own sense: an equality
A(x) = rhs ("eq"), a PSD inequality A(y) >= rhs ("psd"), or a scalar strict
row whose value must be negative ("strict"). The row senses decide the kind
of program: the existence programs have equality rows only, and a point is
feasible when all PSD blocks are PSD and every row holds; the witness
programs add PSD rows and exactly one strict row.

Rows are sums of structured linear maps applied to the blocks. Each map kind
carries an exact adjoint, so generic Farkas-type certificates can be
produced without any numerical differentiation.

Block layout convention: joint-register blocks live on (input, query) with the
query register fast-running; the oracle conjugation map uses the instance's
block-diagonal oracle. Every input starts from the same state, so the
existence programs hold the first joint state on its face J ⊗ rho_0 as one
n x n block rho_0. At eps > 0 the exact program states each input's
success row and slack as a 1x1 matrix on its diagonal entry. It splits the
final Gram matrix directly into output shares, with no block of its own;
the relaxed program has no final Gram matrix either at q >= 1: each 2x2
pair row reads its pair's principal submatrix off the last chain state,
through the final query, with one congruence.

At eps = 0 the final states of inputs with different outputs are
orthogonal, so share G_z vanishes outside class z's rows and columns: the
exact program holds it on that face, as a c_z x c_z block H_z with
G_z = E_z H_z E_z† and E_z = I[:, class z]. On that face each input's
diagonal entry of the final Gram matrix, 1, lies in its own class's share,
so every input already succeeds with certainty, and the exact program has
no success row and no success slack. The relaxed margin 2√(eps(1-eps)) is
0, so each pair row is the equality E† G E = I, with no slack. A slack
that the other rows pin at zero would leave the program with no Slater
point (Borwein & Wolkowicz 1981); at eps = 0 no program carries one.

At q = 0 every final state is the start state, so the final Gram matrix is
the rank-one all-ones J, and every PSD block that holds a part of it is a
multiple of J: an s x s block there has no interior. Both existence
programs then hold each such block on the face of J, as a 1x1 block [[c]]
read through the isometry [[c]] -> c·J/s, and init, J's one coordinate on
that face, is the 1x1 row sum c = s: the exact program's shares at
eps > 0 and the relaxed program's final_gram at every eps (facial
reduction ahead of the solve; Permenter & Parrilo 2018). The eps-0 exact
program keeps its class-face shares and its s x s init, which its range
decides at once.

Each witness program is generated from its existence program by conic
duality (`_farkas_alternative`): one multiplier block per existence row,
one row per existence block, and a slack's row folded into its multiplier,
which is then PSD; a row with no slack, such as an eps-0 pair row, keeps a
free multiplier. A certificate of an existence program is then a witness
point as it stands, and the witness blocks carry the existence rows' names;
the witness program keeps its existence program, which the solver decides
in its place.

A program is a pure function of (problem, q, eps), so each existence
builder makes it once: the first call stores it in the problem's
`_programs` dict under (builder, q, eps), and every later call returns that
object (`_built_once`). A witness builder returns the witness program kept
on that cached existence program, whose `existence` it is. Callers share
programs, so programs are read-only: frozen blocks, rows and programs,
tuples of blocks, rows and terms, and read-only right-hand sides.

What is computed once from a program alone, or from a problem alone, is
kept in its `derived` dict through one decorator (`_derived`). Neither dict
is a field, so a copy made with `dataclasses.replace` starts with none of
it. On a program, by owning module:
- here, each row's terms grouped by signature, with their mats and scales
  stacked, which `row_value` applies (`_row_maps`); where each block sits
  when a point's blocks are stacked by dimension, which
  `qqc.solver.verify_point` gathers every group and PSD block from
  (`_stack_index`); and the witness program (`_farkas_alternative`), so
  that `build_dual` and a solve of the existence program share one;
- in `qqc.solver`, the assembled (A, b) and the projection engine on it,
  which every solve and the SDPA export read, and the decision of each
  solver seed, which answers a solve of either the existence program or
  its witness program;
- in `qqc.sdpa`, the text of the program's SDPA export.
On a problem:
- here, the programs built on it (`_programs`);
- in `qqc.adversary`, the difference blocks, the witness's pair-row keys
  and the last weighting checked on it, with its spectrum.
A witness program and its existence program refer to each other, so their
derived data go with the cyclic garbage collector once the problem goes.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import partial_trace
from .problem import QueryProblem

__all__ = [
    "BlockMap",
    "Block",
    "Row",
    "ConicFeasibilityProgram",
    "build_primal",
    "build_primal_relaxed",
    "build_dual",
    "build_dual_relaxed",
    "chain_program",
    "pair_name",
    "share_maps",
]


@dataclass(frozen=True)
class BlockMap:
    """One structured linear map between Hermitian spaces.

    Kinds:
      conj_pt       x -> tr_fast(u x u†)      (u = None means plain partial trace)
      conj_tensor   y -> u† (y ⊗ I_fast) u    (adjoint of conj_pt)
      id            x -> x
      trace_against x -> [[Re tr(c x)]]       (1x1 output)
      const_embed   [[t]] -> t * c            (adjoint of trace_against)

    All kinds scale by `scale`. With split (d_out, 1) the conj kinds are
    plain congruences: a d_out x d_in matrix u gives x -> u x u† and its
    adjoint y -> u† y u. `apply` maps a stack of matrices along the
    leading axes. `mat` may be a stack too, with `scale` an array of shape
    (k, 1, 1) beside it: the map is then k maps of one kind, the i-th
    applied to input i of a (k, d_in, d_in) stack.
    """

    kind: str
    d_in: int
    d_out: int
    scale: float = 1.0
    mat: np.ndarray | None = None
    split: tuple[int, int] | None = None  # (slow, fast) for conj kinds

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-2:] != (self.d_in, self.d_in):
            raise ValueError(f"map expects {self.d_in}x{self.d_in} input, got {x.shape}")
        k = self.kind
        if k == "conj_pt":
            y = x if self.mat is None else self.mat @ x @ self.mat.conj().swapaxes(-1, -2)
            out = partial_trace(y, self.split)
        elif k == "conj_tensor":
            slow, fast = self.split
            # x ⊗ I_fast, broadcast on the (slow, fast, slow, fast) axes; x ⊗ 1 is x
            wide = x if fast == 1 else (
                x[..., :, None, :, None] * np.eye(fast)[:, None, :]
            ).reshape(x.shape[:-2] + (slow * fast, slow * fast))
            out = wide if self.mat is None else self.mat.conj().swapaxes(-1, -2) @ wide @ self.mat
        elif k == "id":
            out = x
        elif k == "trace_against":
            out = np.einsum("...ij,...ji->...", self.mat, x).real[..., None, None].astype(complex)
        elif k == "const_embed":
            out = x[..., :1, :1].real * self.mat.astype(complex)
        else:
            raise ValueError(f"unknown map kind {k!r}")
        return self.scale * out

    def adjoint(self) -> "BlockMap":
        if self.kind == "id":
            return self
        kind = {"conj_pt": "conj_tensor", "conj_tensor": "conj_pt",
                "trace_against": "const_embed", "const_embed": "trace_against"}.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown map kind {self.kind!r}")
        return BlockMap(kind, self.d_out, self.d_in, self.scale, self.mat, self.split)


def _pt_q(s: int, n: int) -> BlockMap:
    return BlockMap("conj_pt", d_in=s * n, d_out=s, split=(s, n))

def _conj_pt(mat: np.ndarray, s: int, n: int, scale: float = 1.0) -> BlockMap:
    return BlockMap("conj_pt", d_in=mat.shape[1], d_out=s, scale=scale, mat=mat, split=(s, n))

def _ident(d: int, scale: float = 1.0) -> BlockMap:
    return BlockMap("id", d_in=d, d_out=d, scale=scale)

def _trace_against(c: np.ndarray, scale: float = 1.0) -> BlockMap:
    return BlockMap("trace_against", d_in=c.shape[0], d_out=1, scale=scale, mat=np.asarray(c, dtype=complex))


@dataclass(frozen=True)
class Block:
    name: str
    dim: int
    psd: bool


@dataclass(frozen=True)
class Row:
    """A read-only row: its terms become a tuple and its rhs read-only."""

    name: str
    dim: int
    terms: tuple[tuple[int, BlockMap], ...]
    rhs: np.ndarray
    sense: str = "eq"  # eq | psd | strict

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        self.rhs.flags.writeable = False


@dataclass(frozen=True)
class ConicFeasibilityProgram:
    """A read-only program: its blocks and rows become tuples."""

    blocks: tuple[Block, ...]
    rows: tuple[Row, ...]
    # the existence program this one is the witness program of; only
    # `_farkas_alternative` sets it
    existence: ConicFeasibilityProgram | None = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "rows", tuple(self.rows))

    @functools.cached_property
    def derived(self) -> dict:
        """What is computed from this program alone, by name (see `_derived`)."""
        return {}

    def row_value(self, row: Row, point: dict[str, np.ndarray]) -> np.ndarray:
        """The row's map applied to the point's blocks.

        Terms with one signature (kind, dims, split, mat shape) go through
        one stacked `BlockMap.apply`, grouped and stacked once per program
        (`_row_maps`): a relaxed witness row reads every pair block through
        congruences of one shape.
        """
        groups = _row_maps(self).get(id(row))
        if groups is None:  # a row the program does not hold
            groups = _group_terms(self, row)

        def gather(names: tuple[str, ...]) -> np.ndarray:
            if len(names) == 1:
                return np.asarray(point[names[0]], dtype=complex)
            return np.stack([np.asarray(point[name], dtype=complex) for name in names])

        return _apply_groups(row.dim, groups, [gather(names) for names, _ in groups])


def _apply_groups(dim: int, groups: tuple, xs: list[np.ndarray]) -> np.ndarray:
    """A row's value from its groups (`_group_terms`) and their inputs: the
    block's matrix for a one-term group, the stack of its blocks' matrices
    for a larger one, whose images are summed."""
    out = np.zeros((dim, dim), dtype=complex)
    for (names, m), x in zip(groups, xs):
        out += m.apply(x) if len(names) == 1 else m.apply(x).sum(axis=0)
    return out


def _derived(make):
    """`make(obj)`, made once per program or problem and shared.

    The first call stores the result in `obj.derived` under make's name,
    and every later call returns it. Only what is computed from the
    read-only program or problem alone goes there.
    """

    @functools.wraps(make)
    def derived(obj: ConicFeasibilityProgram | QueryProblem):
        slot = obj.derived
        if make.__name__ not in slot:
            slot[make.__name__] = make(obj)
        return slot[make.__name__]

    return derived


def _group_terms(prog: ConicFeasibilityProgram, row: Row) -> tuple[tuple[tuple[str, ...], BlockMap], ...]:
    """The row's terms grouped by signature: the names of each group's
    blocks, and its map, stacked when the group holds more than one term
    (mats and scales stacked along a new leading axis, read-only)."""
    groups: dict[tuple, list[tuple[int, BlockMap]]] = {}
    for bi, m in row.terms:
        key = (m.kind, m.d_in, m.d_out, m.split, None if m.mat is None else m.mat.shape)
        groups.setdefault(key, []).append((bi, m))
    out = []
    for terms in groups.values():
        names = tuple(prog.blocks[bi].name for bi, _ in terms)
        m = terms[0][1]
        if len(terms) > 1:
            mats = None if m.mat is None else np.stack([t.mat for _, t in terms])
            scales = np.array([t.scale for _, t in terms])[:, None, None]
            for arr in (mats, scales):
                if arr is not None:
                    arr.flags.writeable = False
            m = BlockMap(m.kind, m.d_in, m.d_out, scales, mats, m.split)
        out.append((names, m))
    return tuple(out)


@_derived
def _row_maps(prog: ConicFeasibilityProgram) -> dict[int, tuple]:
    """`_group_terms` of every row of the program, keyed by the row's id;
    the program holds its rows, so the ids stay theirs."""
    return {id(row): _group_terms(prog, row) for row in prog.rows}


class _StackIndex(NamedTuple):
    """Where a point's blocks sit in one (k, d, d) stack per block dimension
    d, in program order: an int for one block, a slice for a run of
    consecutive ones, else a read-only index array (`_gather`)."""

    sizes: dict[int, int]  # block dimension -> number of blocks
    places: tuple[int, ...]  # each block's index in its stack
    # per row: its groups (`_row_maps`), each with its stack's dimension and index
    rows: tuple[tuple[tuple, tuple[tuple[int, int | slice | np.ndarray], ...]], ...]
    psd_names: tuple[str, ...]
    # block dimension -> its PSD blocks' index in the stack and places in psd_names
    psd: dict[int, tuple[slice | np.ndarray, tuple[int, ...]]]


def _gather(at: list[int]) -> slice | np.ndarray:
    """A slice for consecutive indices of a stack, else a read-only index array."""
    if at == list(range(at[0], at[0] + len(at))):
        return slice(at[0], at[0] + len(at))
    arr = np.array(at, dtype=np.intp)
    arr.flags.writeable = False
    return arr


@_derived
def _stack_index(prog: ConicFeasibilityProgram) -> _StackIndex:
    """The program's `_StackIndex`. A term whose map does not take its
    block's dimension raises ValueError, as applying the map would."""
    sizes: dict[int, int] = {}
    places = []
    for b in prog.blocks:
        places.append(sizes.get(b.dim, 0))
        sizes[b.dim] = places[-1] + 1
    place = {b.name: (b.dim, k) for b, k in zip(prog.blocks, places)}
    maps = _row_maps(prog)
    rows = []
    for row in prog.rows:
        reads = []
        for names, m in maps[id(row)]:
            for name in names:
                if place[name][0] != m.d_in:
                    raise ValueError(f"row {row.name!r}: map expects {m.d_in}x{m.d_in} input, "
                                     f"block {name!r} is {place[name][0]}x{place[name][0]}")
            ks = [place[name][1] for name in names]
            reads.append((m.d_in, ks[0] if len(ks) == 1 else _gather(ks)))
        rows.append((maps[id(row)], tuple(reads)))
    psd_names = tuple(b.name for b in prog.blocks if b.psd)
    psd: dict[int, tuple[list[int], list[int]]] = {}
    for k, name in enumerate(psd_names):
        d, at = place[name]
        psd.setdefault(d, ([], []))[0].append(at)
        psd[d][1].append(k)
    return _StackIndex(sizes, tuple(places), tuple(rows), psd_names,
                       {d: (_gather(at), tuple(to)) for d, (at, to) in psd.items()})


def pair_name(p: QueryProblem, pair: tuple[int, int]) -> str:
    return f"{p.labels[pair[0]]}|{p.labels[pair[1]]}"


@_derived
def _programs(p: QueryProblem) -> dict:
    """The programs built on p, keyed by (builder, q, eps)."""
    return {}


def _built_once(build):
    """`build(p, q, *eps)`, validated, made once per problem and shared.

    The call checks (q, eps) with `_check_q_eps` and turns q into an int,
    so that a numpy integer q builds the same program as the int and
    shares its entry. It then returns the program stored in `_programs(p)`
    under (builder, q, eps), or builds it and stores it there.
    """

    @functools.wraps(build)
    def built_once(p: QueryProblem, q: int, *eps: float) -> ConicFeasibilityProgram:
        _check_q_eps(q, *eps)
        key = (build.__name__, operator.index(q), *eps)
        built = _programs(p)
        prog = built.get(key)
        if prog is None:
            prog = built[key] = build(p, *key[1:])
        return prog

    return built_once


def _query_chain(
    p: QueryProblem, q: int, last: list[tuple[Block, BlockMap]] | None = None
) -> tuple[list[Block], list[Row]]:
    """Blocks and rows of the query chain that opens both existence programs.

    Every input starts from the same state, so the first joint state has
    input marginal J, and a PSD matrix with that marginal is J ⊗ rho_0.
    Blocks: at q >= 1 the start state rho_0 on the query register, then the
    joint-register states after t queries (0 < t < q), then the blocks of
    `last`, whose images under their maps sum to the final Gram matrix (by
    default one s x s block final_gram, as in `chain_program`); they come
    first, so their indices are final. Rows: the initial condition
    (tr rho_0 = 1, or final Gram matrix = J at q = 0) and the query-update
    chain into the final Gram matrix; an empty `last` at q >= 1 leaves out that last row.
    At q = 0, when every map of `last` is the face map [[c]] -> c·J/s, the
    initial condition is the 1x1 row sum c = s, J's one coordinate on the
    face; any other map keeps it s x s. J ⊗ rho_0
    is (1_s ⊗ I_n) rho_0 (1_s ⊗ I_n)†, so the first query reads rho_0
    through the (s·n) x n matrix Omega (1_s ⊗ I_n) (`_query_read`).
    """
    s, n = p.size, p.n
    p.omega  # validates p, also at q = 0
    last = [(Block("final_gram", s, True), _ident(s))] if last is None else last
    blocks = [Block("rho_0", n, True)] * (q > 0)
    blocks += [Block(f"state_iq_{t}", s * n, True) for t in range(1, q)]
    final = [(len(blocks) + k, m) for k, (_, m) in enumerate(last)]
    blocks += [b for b, _ in last]
    if q == 0:
        if all(m.kind == "const_embed" for _, m in final):
            # each map is the isometry [[c]] -> c·J/s onto the face of J, so
            # sum_k c_k J/s = J keeps one coordinate: sum_k c_k = s
            terms = [(bj, _ident(1)) for bj, _ in final]
            return blocks, [Row("init", 1, terms, np.full((1, 1), s, dtype=complex))]
        return blocks, [Row("init", s, final, np.ones((s, s), dtype=complex))]
    zeros = np.zeros((s, s), dtype=complex)
    rows = [Row("init", 1, [(0, _trace_against(np.eye(n)))], np.ones((1, 1), dtype=complex))]
    for t in range(1, q + 1):
        prev = (t - 1, _conj_pt(_query_read(p, t), s, n, -1.0))
        if t < q:
            rows.append(Row(f"chain_{t}", s, [(t, _pt_q(s, n)), prev], zeros))
        elif final:
            rows.append(Row("final_gram_def", s, final + [prev], zeros))
    return blocks, rows


@_built_once
def chain_program(p: QueryProblem, q: int) -> ConicFeasibilityProgram:
    """The query chain into one s x s final_gram block, with no output rows.

    `backward_chain` and `qqc simulate` check a run's chain states and its
    final Gram matrix against it.
    """
    return ConicFeasibilityProgram(*_query_chain(p, q))


def _query_read(p: QueryProblem, t: int) -> np.ndarray:
    """M such that query t maps the chain block X before it to tr_n(M X M†)."""
    return p.omega if t > 1 else p.omega @ np.kron(np.ones((p.size, 1)), np.eye(p.n))


def _face_of_j(s: int) -> BlockMap:
    """[[c]] -> c·J/s, an isometry onto the face of the all-ones J (||J/s|| = 1)."""
    return BlockMap("const_embed", d_in=1, d_out=s, mat=np.full((s, s), 1.0 / s, dtype=complex))


def share_maps(p: QueryProblem, eps: float, q: int) -> dict[str, BlockMap]:
    """The map from each output's share block to its s x s share G_z at q queries.

    At eps = 0 share z lives on its class's face: the block is c_z x c_z and
    the map is the congruence H -> E_z H E_z† with E_z = I[:, class z]. At
    eps > 0 and q = 0 every final state is the start state, so each share
    is a multiple of J: the block is the 1x1 [[c_z]] and the map the face
    map [[c]] -> c·J/s, whose adjoint reads c back from a share. At eps > 0
    and q >= 1 the shares are not confined, and each block is the full
    share.
    """
    s = p.size
    if eps:
        return {z: _ident(s) if q else _face_of_j(s) for z in p.outputs}
    return {
        z: BlockMap("conj_pt", d_in=len(idx), d_out=s, mat=np.eye(s)[:, idx], split=(s, 1))
        for z, idx in ((z, p.class_indices(z)) for z in p.outputs)
    }


@_built_once
def build_primal(p: QueryProblem, q: int, eps: float) -> ConicFeasibilityProgram:
    """Existence program for a q-query protocol with per-instance success >= 1 - eps.

    Variables: the query chain's states (at q >= 1 the n x n start state
    rho_0 and the joint-register states after t queries, 0 < t < q), one
    output share block per output label, and at eps > 0 one 1x1 success
    slack per input. The final Gram matrix is the sum of the shares,
    G = sum_z M_z(H_z) for share z's map M_z of `share_maps`, so the last
    chain row (init at q = 0) reads it through those maps. Rows: the initial
    condition, the query-update chain, and at eps > 0 one 1x1 success row
    per input i, slack - tr(E_ii G_{g(i)}) = eps - 1, where E_ii is the unit
    matrix at (i, i): entry (i, i) of its class's share. At eps = 0 the share
    blocks sit on their class faces, block z c_z x c_z, where entry (i, i)
    of the class's share is G_ii = 1: the chain rows already give every
    input success 1, so there is no success slack and no success row. At
    q = 0 and eps > 0 the shares sit on the face of J: block z is the 1x1
    [[c_z]] with G_z = c_z·J/s, init is the 1x1 row sum_z c_z = s, and
    success row i reads slack - c_{g(i)}/s = eps - 1.
    """
    s = p.size
    p.omega  # validates p, whose g share_maps reads
    maps = share_maps(p, eps, q)
    shares = [(Block(f"output_part_{z}", m.d_in, True), m) for z, m in maps.items()]
    blocks, rows = _query_chain(p, q, shares)
    # at eps = 0 the class faces already give each input success 1
    labels = p.labels if eps else []
    blocks += [Block(f"success_slack_{lab}", 1, True) for lab in labels]
    bi = {b.name: i for i, b in enumerate(blocks)}
    for i, lab in enumerate(labels):
        # tr(E_ii M(H)) = tr(M†(E_ii) H) for the share map M
        unit = maps[p.g[lab]].adjoint().apply(np.diag(np.eye(s)[i]))
        terms = [
            (bi[f"output_part_{p.g[lab]}"], _trace_against(unit, -1.0)),
            (bi[f"success_slack_{lab}"], _ident(1)),
        ]
        rows.append(Row(f"success_{lab}", 1, terms, np.full((1, 1), eps - 1.0, dtype=complex)))
    return ConicFeasibilityProgram(blocks, rows)


@_built_once
def build_primal_relaxed(p: QueryProblem, q: int, eps: float) -> ConicFeasibilityProgram:
    """Necessary-condition program: pairwise near-orthogonality at the end.

    Shares the query chain with the exact program, with no final Gram block
    at q >= 1; the output rows are replaced by one 2x2 row per unordered
    pair of instances with different outputs, on the pair's principal
    submatrix E† G E, with E = [e_i e_j]: slack - E† G E = (margin - 1)·I
    for the margin 2√(eps(1-eps)). It reads E† G E off the last chain block
    X as -tr_n((E† ⊗ I_n) M X M† (E ⊗ I_n)) for query q's matrix M, whose
    rows (E† ⊗ I_n) M are the pair's two row blocks. At q = 0 the final
    Gram matrix is J, so it is held on the face of J as the 1x1 block
    final_gram [[c]], G = c·J/s, which the 1x1 init row sets to c = s; each
    pair row reads E† G E = (c/s)·[[1, 1], [1, 1]] off it. Every point has
    G_ii = 1 (tr rho_0 = 1 and each query keeps each input's trace), so
    the slack is [[margin, G_ij], [G_ji, margin]], PSD exactly when the
    pair's Gram entry has magnitude at most the margin. At eps = 0 the
    margin is 0 and that slack could only be 0: each pair row is the
    equality -E† G E = -I, with no slack block.
    """
    s, n = p.size, p.n
    face = _face_of_j(s)
    blocks, rows = _query_chain(p, q, [] if q else [(Block("final_gram", 1, True), face)])
    mat = _query_read(p, q).reshape(s, n, -1) if q else None
    pairs = p.differing_pairs()
    # at eps = 0 the margin is 0, and each pair row is the equality E† G E = I
    blocks += [Block(f"pair_slack_{pair_name(p, pr)}", 2, True) for pr in pairs if eps]
    bi = {b.name: i for i, b in enumerate(blocks)}
    margin = 2.0 * math.sqrt(eps * (1.0 - eps))
    for pr in pairs:
        name = pair_name(p, pr)
        if q:  # the last chain block, through query q's rows for the pair
            terms = [(q - 1, _conj_pt(mat[list(pr)].reshape(2 * n, -1), 2, n, -1.0))]
        else:  # final_gram, block 0, through the pair's entries of the face map
            terms = [(0, BlockMap("const_embed", 1, 2, -1.0, face.mat[np.ix_(pr, pr)]))]
        if eps:
            terms.append((bi[f"pair_slack_{name}"], _ident(2)))
        rows.append(Row(f"pair_{name}", 2, terms, (margin - 1.0) * np.eye(2, dtype=complex)))
    return ConicFeasibilityProgram(blocks, rows)


@_derived
def _farkas_alternative(prog: ConicFeasibilityProgram) -> ConicFeasibilityProgram:
    """The witness program of an existence program whose rows are equalities,
    made once per existence program.

    The existence program asks for blocks X_j, PSD or free, with
    sum_j A_rj(X_j) = b_r on every row r. The witness asks for multipliers
    Y_r with sum_r A_rj†(Y_r) PSD on every PSD block j and zero on every
    free one, and sum_r <b_r, Y_r> < 0. By the conic Farkas lemma at most
    one of the two is feasible, and exactly one when the image of the
    existence program's cone is closed. So the witness has one block per
    existence row and one row per existence block, each named after its
    counterpart, and a strict row; a certificate of the existence program,
    keyed by row name, is a witness point as it stands. A PSD block that
    only one row reads, through the identity, is that row's slack: its
    witness row would read Y_r PSD, so Y_r becomes a PSD block and the
    slack gives no row. The witness program records `prog` as its
    `existence`, through which the solver decides it.
    """
    readers: dict[int, list[tuple[int, BlockMap]]] = {}
    for ri, r in enumerate(prog.rows):
        for bj, m in r.terms:
            readers.setdefault(bj, []).append((ri, m))
    slack = {
        bj: reads[0][0] for bj, reads in readers.items()
        if prog.blocks[bj].psd and len(reads) == 1
        and reads[0][1].kind == "id" and reads[0][1].scale == 1.0
    }
    blocks = [Block(r.name, r.dim, ri in slack.values()) for ri, r in enumerate(prog.rows)]
    rows = [
        Row(b.name, b.dim, [(ri, m.adjoint()) for ri, m in readers.get(bj, [])],
            np.zeros((b.dim, b.dim), dtype=complex), "psd" if b.psd else "eq")
        for bj, b in enumerate(prog.blocks) if bj not in slack
    ]
    pairing = [(ri, _trace_against(r.rhs)) for ri, r in enumerate(prog.rows) if r.rhs.any()]
    rows.append(Row("strict", 1, pairing, np.zeros((1, 1), dtype=complex), sense="strict"))
    return ConicFeasibilityProgram(blocks, rows, existence=prog)


def build_dual(p: QueryProblem, q: int, eps: float) -> ConicFeasibilityProgram:
    """Infeasibility-witness program: the Farkas alternative of `build_primal`.

    Free multipliers of the chain rows: L_0 of init (a scalar tau at
    q >= 1 and on the face of J, s x s at q = 0 and eps = 0) and L_1..L_q;
    at eps > 0 one 1x1 PSD multiplier y_i of each success row. Rows: one
    per chain block, and one per share, M_z†(L_q - sum over class z of
    y_i E_ii) PSD; the strict row pairs L_0 with init's right-hand side and
    the y_i with eps - 1. At eps = 0 there are no y_i, and each share row
    is c_z x c_z, M_z†(L_q) PSD. At q = 0 and eps > 0 each share row is the
    1x1 tau - (sum over class z of y_i)/s >= 0, and the strict row reads
    s·tau + (eps - 1)·sum_i y_i.
    """
    return _farkas_alternative(build_primal(p, q, eps))


def build_dual_relaxed(p: QueryProblem, q: int, eps: float) -> ConicFeasibilityProgram:
    """Witness program: the Farkas alternative of `build_primal_relaxed`.

    Free multipliers L_0..L_{q-1} of the chain rows (L_0 at q = 0), and one
    2x2 multiplier D of each pair row, PSD at eps > 0 and free at eps = 0,
    where the pair row has no slack. Rows: one per chain block; the last
    keeps L_{q-1} ⊗ I_n - M† ((sum E D E†) ⊗ I_n) M PSD, and the strict
    row pairs L_0 with init's right-hand side and each D with
    (margin - 1)·I. At q = 0, L_0 is the scalar tau of init on the face of
    J, and final_gram's row is the 1x1 tau - 1ᵀ(sum E D E†)1/s >= 0.
    """
    return _farkas_alternative(build_primal_relaxed(p, q, eps))


def _check_q_eps(q: int, eps: float = 0.0) -> None:
    if isinstance(q, bool) or not isinstance(q, numbers.Integral) or q < 0:
        raise ValueError(f"query count must be a nonnegative integer, got {q}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"error tolerance must lie in [0, 1), got {eps}")
