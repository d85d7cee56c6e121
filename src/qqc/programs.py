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
n x n block rho_0. The exact programs state each input's success row, slack
and multiplier as a 1x1 matrix on its diagonal entry; the pairwise programs
state each pair's as a 2x2 matrix on the pair's principal submatrix. At
eps = 0 the final states of inputs with different outputs are orthogonal,
so share G_z of the final Gram matrix vanishes outside class z's rows and
columns: the exact existence program holds it on that face, as a
c_z x c_z block H_z with G_z = E_z H_z E_z† and E_z = I[:, class z].

Each witness program is the Farkas alternative of its existence program on
the same faces: the multiplier of tr rho_0 = 1 is a scalar tau whose query
row is n x n, and at eps = 0 each exact output comparison is a c_z x c_z
row. A certificate of an existence program is then a witness point after
a relabel (`certificate_to_dual_point`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace
from .problem import QueryProblem, build_omega, require_valid

__all__ = [
    "BlockMap",
    "Block",
    "Row",
    "ConicFeasibilityProgram",
    "build_primal",
    "build_primal_relaxed",
    "build_dual",
    "build_dual_relaxed",
    "certificate_to_dual_point",
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
    leading axes.
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
            y = x if self.mat is None else self.mat @ x @ self.mat.conj().T
            out = partial_trace(y, self.split)
        elif k == "conj_tensor":
            slow, fast = self.split
            # x ⊗ I_fast, broadcast on the (slow, fast, slow, fast) axes; x ⊗ 1 is x
            wide = x if fast == 1 else (
                x[..., :, None, :, None] * np.eye(fast)[:, None, :]
            ).reshape(x.shape[:-2] + (slow * fast, slow * fast))
            out = wide if self.mat is None else self.mat.conj().T @ wide @ self.mat
        elif k == "id":
            out = x
        elif k == "trace_against":
            out = np.einsum("ij,...ji->...", self.mat, x).real[..., None, None].astype(complex)
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

def _pair_off_diagonal(s: int, pair: tuple[int, int]) -> list[BlockMap]:
    """x -> -V∘(E† x E), minus the off-diagonal part of the pair's 2x2 principal
    submatrix, with E = [e_i e_j]: V∘P = ½(P - Z P Z) for Z = diag(1, -1), so
    it is the sum of two congruences."""
    e_adj = np.zeros((2, s))
    e_adj[0, pair[0]] = e_adj[1, pair[1]] = 1.0
    return [
        BlockMap("conj_pt", d_in=s, d_out=2, scale=scale, mat=u, split=(2, 1))
        for scale, u in ((-0.5, e_adj), (0.5, np.diag([1.0, -1.0]) @ e_adj))
    ]


@dataclass
class Block:
    name: str
    dim: int
    psd: bool


@dataclass
class Row:
    name: str
    dim: int
    terms: list[tuple[int, BlockMap]]
    rhs: np.ndarray
    sense: str = "eq"  # eq | psd | strict


@dataclass
class ConicFeasibilityProgram:
    blocks: list[Block]
    rows: list[Row]

    def row_value(self, row: Row, point: dict[str, np.ndarray]) -> np.ndarray:
        out = np.zeros((row.dim, row.dim), dtype=complex)
        for bi, m in row.terms:
            out += m.apply(np.asarray(point[self.blocks[bi].name], dtype=complex))
        return out


def pair_name(p: QueryProblem, pair: tuple[int, int]) -> str:
    return f"{p.labels[pair[0]]}|{p.labels[pair[1]]}"


def _query_chain(p: QueryProblem, q: int, omega: np.ndarray) -> tuple[list[Block], list[Row]]:
    """Blocks and rows of the query chain that opens both existence programs.

    Every input starts from the same state, so the first joint state has
    input marginal J, and a PSD matrix with that marginal is J ⊗ rho_0.
    Blocks: at q >= 1 the start state rho_0 on the query register, then the
    joint-register states after t queries (0 < t < q), then the final Gram
    matrix; they come first, so their indices are final. Rows: the initial
    condition (tr rho_0 = 1, or final_gram = J at q = 0) and the
    query-update chain into the final Gram matrix. J ⊗ rho_0 is
    (1_s ⊗ I_n) rho_0 (1_s ⊗ I_n)†, so the first query reads rho_0 through
    the (s·n) x n matrix Omega (1_s ⊗ I_n).
    """
    s, n = p.size, p.n
    zeros = np.zeros((s, s), dtype=complex)
    if q == 0:
        init = Row("init", s, [(0, _ident(s))], np.ones((s, s), dtype=complex))
        return [Block("final_gram", s, True)], [init]
    blocks = [Block("rho_0", n, True)]
    blocks += [Block(f"state_iq_{t}", s * n, True) for t in range(1, q)]
    blocks.append(Block("final_gram", s, True))
    first = omega @ np.kron(np.ones((s, 1)), np.eye(n))
    rows = [Row("init", 1, [(0, _trace_against(np.eye(n)))], np.ones((1, 1), dtype=complex))]
    for t in range(1, q + 1):
        prev = (t - 1, _conj_pt(first if t == 1 else omega, s, n, -1.0))
        if t < q:
            rows.append(Row(f"chain_{t}", s, [(t, _pt_q(s, n)), prev], zeros))
        else:
            rows.append(Row("final_gram_def", s, [(q, _ident(s)), prev], zeros))
    return blocks, rows


def share_maps(p: QueryProblem, eps: float) -> dict[str, BlockMap]:
    """The map from each output's share block to its s x s share G_z.

    At eps = 0 share z lives on its class's face: the block is c_z x c_z and
    the map is the congruence H -> E_z H E_z† with E_z = I[:, class z]. At
    eps > 0 the shares are not confined, and each block is the full share.
    """
    s = p.size
    if eps:
        return {z: _ident(s) for z in p.outputs}
    return {
        z: BlockMap("conj_pt", d_in=len(idx), d_out=s, mat=np.eye(s)[:, idx], split=(s, 1))
        for z, idx in ((z, p.class_indices(z)) for z in p.outputs)
    }


def build_primal(p: QueryProblem, q: int, eps: float) -> ConicFeasibilityProgram:
    """Existence program for a q-query protocol with per-instance success >= 1 - eps.

    Variables: the query chain's states (at q >= 1 the n x n start state
    rho_0 and the joint-register states after t queries, 0 < t < q), the
    final Gram matrix on the input register, one output share block per
    output label, and one 1x1 success slack per input. Rows: the initial
    condition, the query-update chain, the share decomposition, and one 1x1
    success row per input i, tr(E_ii G_{g(i)}) - slack = 1 - eps, where E_ii
    is the unit matrix at (i, i): entry (i, i) of its class's share. At
    eps = 0 the share blocks sit on their class faces (see `share_maps`):
    block z is c_z x c_z, the decomposition reads it as E_z H_z E_z†, and
    each success row reads the input's diagonal entry in class coordinates.
    """
    _check_q_eps(q, eps)
    s = p.size
    maps = share_maps(p, eps)
    blocks, rows = _query_chain(p, q, build_omega(p))
    blocks += [Block(f"output_part_{z}", m.d_in, True) for z, m in maps.items()]
    blocks += [Block(f"success_slack_{lab}", 1, True) for lab in p.labels]
    bi = {b.name: i for i, b in enumerate(blocks)}
    decompose_terms = [(bi["final_gram"], _ident(s, -1.0))]
    decompose_terms += [(bi[f"output_part_{z}"], m) for z, m in maps.items()]
    rows.append(Row("decompose", s, decompose_terms, np.zeros((s, s), dtype=complex)))
    for i, lab in enumerate(p.labels):
        # tr(E_ii M(H)) = tr(M†(E_ii) H) for the share map M
        unit = maps[p.g[lab]].adjoint().apply(np.diag(np.eye(s)[i]))
        terms = [
            (bi[f"output_part_{p.g[lab]}"], _trace_against(unit)),
            (bi[f"success_slack_{lab}"], _ident(1, -1.0)),
        ]
        rows.append(Row(f"success_{lab}", 1, terms, np.full((1, 1), 1.0 - eps, dtype=complex)))

    return ConicFeasibilityProgram(blocks, rows)


def build_primal_relaxed(p: QueryProblem, q: int, eps: float) -> ConicFeasibilityProgram:
    """Necessary-condition program: pairwise near-orthogonality at the end.

    Shares the query chain with the exact program; the output rows are
    replaced by one 2x2 row per unordered pair of instances with different
    outputs, on the pair's principal submatrix of the final Gram matrix:
    the 2x2 slack margin·I + V∘(E† G E) is PSD exactly when the pair's Gram
    entry has magnitude at most the margin 2√(eps(1-eps)).
    """
    _check_q_eps(q, eps)
    s = p.size
    blocks, rows = _query_chain(p, q, build_omega(p))
    pairs = p.differing_pairs()
    blocks += [Block(f"pair_slack_{pair_name(p, pr)}", 2, True) for pr in pairs]
    bi = {b.name: i for i, b in enumerate(blocks)}
    margin = 2.0 * math.sqrt(eps * (1.0 - eps))
    for pr in pairs:
        name = pair_name(p, pr)
        terms = [(bi["final_gram"], m) for m in _pair_off_diagonal(s, pr)]
        terms.append((bi[f"pair_slack_{name}"], _ident(2)))
        rows.append(Row(f"pair_{name}", 2, terms, margin * np.eye(2, dtype=complex)))

    return ConicFeasibilityProgram(blocks, rows)


def _query_rows(p: QueryProblem, q: int, relaxed: bool) -> list[Row]:
    """The q witness query rows: adjoints of the existence chain's maps.

    Over the program's first q + 1 blocks. For `build_dual` they are tau
    (1x1, the multiplier of tr rho_0 = 1) and L_1..L_q: row 1 keeps
    tau I_n - first†(L_1 ⊗ I)first PSD, with first = Omega (1_s ⊗ I_n) as in
    `_query_chain`, and row t > 1 keeps L_{t-1} ⊗ I - Omega†(L_t ⊗ I)Omega
    PSD. For `build_dual_relaxed` they are K_t = -L_{q-t}, so K_q = -tau is
    1x1: row t < q keeps K_{t-1} ⊗ I - Omega (K_t ⊗ I) Omega† PSD (the step
    above, conjugated by Omega), and row q keeps
    first†(K_{q-1} ⊗ I)first - K_q I_n PSD.
    """
    s, n = p.size, p.n
    omega = build_omega(p)
    sign, u, start = (-1.0, omega.conj().T, q) if relaxed else (1.0, omega, 1)
    rows = []
    for t in range(1, q + 1):
        if t == start:  # on the start face: the n x n row of tau and its neighbour
            tau, chain = (t, t - 1) if relaxed else (t - 1, t)
            first = omega @ np.kron(np.ones((s, 1)), np.eye(n))
            terms = [(tau, _trace_against(np.eye(n), sign).adjoint()),
                     (chain, _conj_pt(first, s, n, -sign).adjoint())]
            rows.append(Row(f"query_{t}", n, terms, np.zeros((n, n), dtype=complex), sense="psd"))
        else:
            terms = [(t - 1, _pt_q(s, n).adjoint()), (t, _conj_pt(u, s, n, -1.0).adjoint())]
            rows.append(Row(f"query_{t}", s * n, terms, np.zeros((s * n, s * n), dtype=complex),
                            sense="psd"))
    return rows


def build_dual(p: QueryProblem, q: int, eps: float) -> ConicFeasibilityProgram:
    """Infeasibility-witness program: the Farkas alternative of `build_primal`.

    It lives on the existence program's faces. Free Hermitian multipliers of
    the chain rows: L_0 of `init` (the scalar tau of tr rho_0 = 1 at q >= 1,
    s x s at q = 0) and L_1..L_q on the input register; one 1x1 PSD success
    multiplier y_i per input. A witness must keep each query row PSD (see
    `_query_rows`) and each output comparison M_z†(L_q - sum over the class
    of y_i E_ii) PSD, for share z's map M_z of `share_maps` (a c_z x c_z row
    at eps = 0), while making the strict row negative: the pairing of L_0
    with init's right-hand side (tau, or tr(J L_0) at q = 0) minus
    (1 - eps) sum y_i. The decompose multiplier needs no block: L_q is one.
    """
    _check_q_eps(q, eps)
    s = p.size
    rows = _query_rows(p, q, relaxed=False)  # validates p
    init = np.ones((1, 1) if q else (s, s), dtype=complex)  # init's right-hand side
    blocks = [Block("chain_dual_0", len(init), False)]
    blocks += [Block(f"chain_dual_{t}", s, False) for t in range(1, q + 1)]
    blocks += [Block(f"success_dual_{lab}", 1, True) for lab in p.labels]
    bi = {b.name: i for i, b in enumerate(blocks)}

    for z, m in share_maps(p, eps).items():
        terms = [(bi[f"chain_dual_{q}"], m.adjoint())]
        terms += [
            (bi[f"success_dual_{p.labels[i]}"],
             _trace_against(m.adjoint().apply(np.diag(np.eye(s)[i])), -1.0).adjoint())
            for i in p.class_indices(z)
        ]
        rows.append(Row(f"dominate_{z}", m.d_in, terms, np.zeros((m.d_in, m.d_in), dtype=complex),
                        sense="psd"))
    strict_terms = [(bi["chain_dual_0"], _trace_against(init))]
    strict_terms += [(bi[f"success_dual_{lab}"], _ident(1, -(1.0 - eps))) for lab in p.labels]
    rows.append(Row("strict", 1, strict_terms, np.zeros((1, 1), dtype=complex), sense="strict"))
    return ConicFeasibilityProgram(blocks, rows)


def build_dual_relaxed(p: QueryProblem, q: int, eps: float) -> ConicFeasibilityProgram:
    """Witness program: the Farkas alternative of `build_primal_relaxed`.

    Free Hermitian step matrices K_t = -L_{q-t} for the chain multipliers
    L_t of `build_dual` (so K_q = -tau is 1x1 at q >= 1) and one 2x2 PSD pair
    multiplier D per differing pair, on the pair's principal submatrix. The
    anchor row keeps -K_0 - sum E (V∘D) E† PSD, the query rows are those of
    `_query_rows`, and the strict row -K_q + margin sum tr D (-tr(J K_0) at
    q = 0) must be negative.
    """
    _check_q_eps(q, eps)
    queries = _query_rows(p, q, relaxed=True)  # validates p
    pairs = p.differing_pairs()
    s = p.size
    init = np.ones((1, 1) if q else (s, s), dtype=complex)  # init's right-hand side
    blocks = [Block(f"step_{t}", s, False) for t in range(q)]
    blocks.append(Block(f"step_{q}", len(init), False))
    blocks += [Block(f"pair_dual_{pair_name(p, pr)}", 2, True) for pr in pairs]
    bi = {b.name: i for i, b in enumerate(blocks)}

    anchor_terms = [(bi["step_0"], _ident(s, -1.0))]
    anchor_terms += [
        (bi[f"pair_dual_{pair_name(p, pr)}"], m.adjoint())
        for pr in pairs for m in _pair_off_diagonal(s, pr)
    ]
    rows = [Row("anchor", s, anchor_terms, np.zeros((s, s), dtype=complex), sense="psd")] + queries
    margin = 2.0 * math.sqrt(eps * (1.0 - eps))
    strict_terms = [(bi[f"step_{q}"], _trace_against(init, -1.0))]
    strict_terms += [
        (bi[f"pair_dual_{pair_name(p, pr)}"], _trace_against(np.eye(2), margin)) for pr in pairs
    ]
    rows.append(Row("strict", 1, strict_terms, np.zeros((1, 1), dtype=complex), sense="strict"))
    return ConicFeasibilityProgram(blocks, rows)


def certificate_to_dual_point(
    p: QueryProblem,
    q: int,
    eps: float,
    certificate: dict[str, np.ndarray],
    relaxed: bool = False,
) -> dict[str, np.ndarray]:
    """Relabel an existence-program certificate as a witness-program point.

    The certificate keys are the existence program's row names. The
    multipliers of init, chain_t and final_gram_def are L_0..L_q (L_0 is the
    scalar tau at q >= 1); the exact pair keeps them as L_t and flips each
    input's 1x1 success multiplier to y_i, the relaxed pair takes
    K_t = -L_{q-t} and copies each 2x2 pair multiplier. Each witness program
    is the Farkas alternative of its existence program on the same faces, so
    a certificate's adjoint images are the witness rows (up to a unitary
    congruence for the relaxed query rows, and with the decompose multiplier
    D folded in: M_z†(L_q - Y_z) = M_z†(L_q - D) + M_z†(D - Y_z)).
    """
    require_valid(p)
    chain = ["init"] + [f"chain_{t}" for t in range(1, q)] + ["final_gram_def"] * (q > 0)
    mults = [np.asarray(certificate[name]) for name in chain]
    if relaxed:
        point = {f"step_{t}": -mults[q - t] for t in range(q + 1)}
        for pr in p.differing_pairs():
            name = pair_name(p, pr)
            point[f"pair_dual_{name}"] = np.asarray(certificate[f"pair_{name}"])
    else:
        point = {f"chain_dual_{t}": m for t, m in enumerate(mults)}
        for lab in p.labels:
            point[f"success_dual_{lab}"] = -np.asarray(certificate[f"success_{lab}"])
    return point


def _check_q_eps(q: int, eps: float) -> None:
    if isinstance(q, bool) or not isinstance(q, numbers.Integral) or q < 0:
        raise ValueError(f"query count must be a nonnegative integer, got {q}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"error tolerance must lie in [0, 1), got {eps}")
