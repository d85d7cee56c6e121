"""Conic feasibility programs over Hermitian matrix blocks.

A program is a list of named variable blocks (each free-Hermitian or PSD), a
list of named matrix rows, and a sense:

* "primal": every row is an equality A(x) = rhs and a point is feasible when
  all PSD blocks are PSD and every row holds.
* "dual": rows are PSD inequalities A(y) >= 0 (sense "psd"), equalities
  (sense "eq"), and exactly one scalar strict row (sense "strict") whose
  value must be negative.

Rows are sums of structured linear maps applied to the blocks. Each map kind
carries an exact adjoint, so generic Farkas-type certificates can be
produced without any numerical differentiation.

Block layout convention: joint-register blocks live on (input, query) with the
query register fast-running; the oracle conjugation map uses the instance's
block-diagonal oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import partial_trace, schur
from .problem import QueryProblem, build_constants, DerivedConstants

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
]


@dataclass(frozen=True)
class BlockMap:
    """One structured linear map between Hermitian spaces.

    Kinds:
      conj_pt       x -> tr_fast(u x u†)      (u = None means plain partial trace)
      conj_tensor   y -> u† (y ⊗ I_fast) u    (adjoint of conj_pt)
      id            x -> x
      schur         x -> c * x  (entrywise; c real symmetric)
      trace_against x -> [[Re tr(c x)]]       (1x1 output)
      const_embed   [[t]] -> t * c            (adjoint of trace_against)

    All kinds scale by `scale`.
    """

    kind: str
    d_in: int
    d_out: int
    scale: float = 1.0
    mat: np.ndarray | None = None
    split: tuple[int, int] | None = None  # (slow, fast) for conj kinds

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.d_in, self.d_in):
            raise ValueError(f"map expects {self.d_in}x{self.d_in} input, got {x.shape}")
        k = self.kind
        if k == "conj_pt":
            y = x if self.mat is None else self.mat @ x @ self.mat.conj().T
            out = partial_trace(y, self.split, "fast")
        elif k == "conj_tensor":
            wide = np.kron(x, np.eye(self.split[1]))
            out = wide if self.mat is None else self.mat.conj().T @ wide @ self.mat
        elif k == "id":
            out = x
        elif k == "schur":
            out = schur(self.mat, x)
        elif k == "trace_against":
            out = np.array([[np.trace(self.mat @ x).real]], dtype=complex)
        elif k == "const_embed":
            out = x[0, 0].real * self.mat.astype(complex)
        else:
            raise ValueError(f"unknown map kind {k!r}")
        return self.scale * out

    def adjoint(self) -> "BlockMap":
        k = self.kind
        flip = dict(d_in=self.d_out, d_out=self.d_in)
        if k == "conj_pt":
            return replace(self, kind="conj_tensor", **flip)
        if k == "conj_tensor":
            return replace(self, kind="conj_pt", **flip)
        if k in ("id", "schur"):
            return self
        if k == "trace_against":
            return replace(self, kind="const_embed", **flip)
        if k == "const_embed":
            return replace(self, kind="trace_against", **flip)
        raise ValueError(f"unknown map kind {k!r}")


def _pt_q(s: int, n: int) -> BlockMap:
    return BlockMap("conj_pt", d_in=s * n, d_out=s, split=(s, n))

def _conj_pt(omega: np.ndarray, s: int, n: int, scale: float = 1.0) -> BlockMap:
    return BlockMap("conj_pt", d_in=s * n, d_out=s, scale=scale, mat=omega, split=(s, n))

def _tensor_id(s: int, n: int, scale: float = 1.0) -> BlockMap:
    return BlockMap("conj_tensor", d_in=s, d_out=s * n, scale=scale, split=(s, n))

def _conj_tensor(u: np.ndarray, s: int, n: int, scale: float = 1.0) -> BlockMap:
    return BlockMap("conj_tensor", d_in=s, d_out=s * n, scale=scale, mat=u, split=(s, n))

def _ident(d: int, scale: float = 1.0) -> BlockMap:
    return BlockMap("id", d_in=d, d_out=d, scale=scale)

def _schur(c: np.ndarray, scale: float = 1.0) -> BlockMap:
    d = c.shape[0]
    return BlockMap("schur", d_in=d, d_out=d, scale=scale, mat=np.asarray(c, dtype=float))

def _trace_against(c: np.ndarray, scale: float = 1.0) -> BlockMap:
    return BlockMap("trace_against", d_in=c.shape[0], d_out=1, scale=scale, mat=np.asarray(c, dtype=complex))


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
    sense: str  # "primal" | "dual"
    meta: dict = field(default_factory=dict)

    def row_value(self, row: Row, point: dict[str, np.ndarray]) -> np.ndarray:
        out = np.zeros((row.dim, row.dim), dtype=complex)
        for bi, m in row.terms:
            out += m.apply(np.asarray(point[self.blocks[bi].name], dtype=complex))
        return out


def pair_name(p: QueryProblem, pair: tuple[int, int]) -> str:
    return f"{p.labels[pair[0]]}|{p.labels[pair[1]]}"


def _all_ones(s: int) -> np.ndarray:
    return np.ones((s, s))


def _query_chain(p: QueryProblem, q: int, c: DerivedConstants) -> tuple[list[Block], list[Row]]:
    """Blocks and rows of the query chain that opens both existence programs.

    Blocks: the joint-register states after t queries (t < q), then the
    final Gram matrix; they come first, so their indices are final. Rows:
    the initial condition and the query-update chain into the final Gram
    matrix.
    """
    s, n = p.size, p.n
    blocks = [Block(f"state_iq_{t}", s * n, True) for t in range(q)]
    blocks.append(Block("final_gram", s, True))
    gram = q  # index of final_gram
    if q == 0:
        return blocks, [Row("init", s, [(gram, _ident(s))], _all_ones(s).astype(complex))]
    rows = [Row("init", s, [(0, _pt_q(s, n))], _all_ones(s).astype(complex))]
    for t in range(1, q):
        rows.append(
            Row(
                f"chain_{t}",
                s,
                [(t, _pt_q(s, n)), (t - 1, _conj_pt(c.omega, s, n, -1.0))],
                np.zeros((s, s), dtype=complex),
            )
        )
    rows.append(
        Row(
            "final_gram_def",
            s,
            [(gram, _ident(s)), (q - 1, _conj_pt(c.omega, s, n, -1.0))],
            np.zeros((s, s), dtype=complex),
        )
    )
    return blocks, rows


def build_primal(p: QueryProblem, q: int, eps: float, c: DerivedConstants | None = None) -> ConicFeasibilityProgram:
    """Existence program for a q-query protocol with per-instance success >= 1 - eps.

    Variables: joint-register states after t queries (t < q), the final Gram
    matrix on the input register, and one output share plus slack per output
    label. Rows: the initial condition, the query-update chain, the share
    decomposition, and the per-output success floor.
    """
    _check_q_eps(q, eps)
    c = c or build_constants(p)
    s = p.size
    blocks, rows = _query_chain(p, q, c)
    blocks += [Block(f"output_part_{z}", s, True) for z in p.outputs]
    blocks += [Block(f"output_slack_{z}", s, True) for z in p.outputs]
    bi = {b.name: i for i, b in enumerate(blocks)}
    decompose_terms = [(bi["final_gram"], _ident(s, -1.0))]
    decompose_terms += [(bi[f"output_part_{z}"], _ident(s)) for z in p.outputs]
    rows.append(Row("decompose", s, decompose_terms, np.zeros((s, s), dtype=complex)))
    for z in p.outputs:
        rows.append(
            Row(
                f"output_{z}",
                s,
                [
                    (bi[f"output_part_{z}"], _schur(c.deltas[z])),
                    (bi[f"output_slack_{z}"], _ident(s, -1.0)),
                ],
                ((1.0 - eps) * c.deltas[z]).astype(complex),
            )
        )

    return ConicFeasibilityProgram(
        blocks, rows, "primal", meta={"kind": "primal", "q": q, "eps": eps}
    )


def build_primal_relaxed(p: QueryProblem, q: int, eps: float, c: DerivedConstants | None = None) -> ConicFeasibilityProgram:
    """Necessary-condition program: pairwise near-orthogonality at the end.

    Shares the query chain with the exact program; the output rows are
    replaced by one row per unordered pair of instances with different
    outputs, bounding the magnitude of the final Gram entry on that pair.
    """
    _check_q_eps(q, eps)
    c = c or build_constants(p)
    s = p.size
    blocks, rows = _query_chain(p, q, c)
    blocks += [Block(f"pair_slack_{pair_name(p, pr)}", s, True) for pr in c.pairs]
    bi = {b.name: i for i, b in enumerate(blocks)}
    margin = 2.0 * math.sqrt(eps * (1.0 - eps))
    for pr in c.pairs:
        name = pair_name(p, pr)
        rows.append(
            Row(
                f"pair_{name}",
                s,
                [
                    (bi["final_gram"], _schur(c.v_mats[pr], -1.0)),
                    (bi[f"pair_slack_{name}"], _ident(s)),
                ],
                (margin * c.w_mats[pr]).astype(complex),
            )
        )

    return ConicFeasibilityProgram(
        blocks, rows, "primal", meta={"kind": "primal_relaxed", "q": q, "eps": eps}
    )


def build_dual(p: QueryProblem, q: int, eps: float, c: DerivedConstants | None = None) -> ConicFeasibilityProgram:
    """Infeasibility-witness program paired with the exact existence program.

    Free Hermitian multipliers L_0..L_q on the input register, one PSD
    multiplier per output label; a witness must keep each query step and each
    output comparison PSD while making the strict scalar row negative.
    """
    _check_q_eps(q, eps)
    c = c or build_constants(p)
    s, n = p.size, p.n
    blocks = [Block(f"chain_dual_{t}", s, False) for t in range(q + 1)]
    blocks += [Block(f"output_dual_{z}", s, True) for z in p.outputs]
    bi = {b.name: i for i, b in enumerate(blocks)}

    rows: list[Row] = []
    for t in range(1, q + 1):
        rows.append(
            Row(
                f"query_{t}",
                s * n,
                [
                    (bi[f"chain_dual_{t-1}"], _tensor_id(s, n)),
                    (bi[f"chain_dual_{t}"], _conj_tensor(c.omega, s, n, -1.0)),
                ],
                np.zeros((s * n, s * n), dtype=complex),
                sense="psd",
            )
        )
    for z in p.outputs:
        rows.append(
            Row(
                f"dominate_{z}",
                s,
                [
                    (bi[f"chain_dual_{q}"], _ident(s)),
                    (bi[f"output_dual_{z}"], _schur(c.deltas[z], -1.0)),
                ],
                np.zeros((s, s), dtype=complex),
                sense="psd",
            )
        )
    strict_terms = [(bi["chain_dual_0"], _trace_against(_all_ones(s)))]
    strict_terms += [
        (bi[f"output_dual_{z}"], _trace_against(c.deltas[z], -(1.0 - eps))) for z in p.outputs
    ]
    rows.append(Row("strict", 1, strict_terms, np.zeros((1, 1), dtype=complex), sense="strict"))
    return ConicFeasibilityProgram(
        blocks, rows, "dual", meta={"kind": "dual", "q": q, "eps": eps}
    )


def build_dual_relaxed(p: QueryProblem, q: int, eps: float, c: DerivedConstants | None = None) -> ConicFeasibilityProgram:
    """Witness program paired with the relaxed (pairwise) existence program.

    Free Hermitian step matrices K_0..K_q and one PSD pair multiplier per
    differing pair, supported on the pair's 2x2 pattern. The step rows keep
    K_{t-1} ⊗ I - Omega (K_t ⊗ I) Omega† PSD, matching the adjoint of the
    query-update map used by the existence chain.
    """
    _check_q_eps(q, eps)
    c = c or build_constants(p)
    s, n = p.size, p.n
    blocks = [Block(f"step_{t}", s, False) for t in range(q + 1)]
    blocks += [Block(f"pair_dual_{pair_name(p, pr)}", s, True) for pr in c.pairs]
    bi = {b.name: i for i, b in enumerate(blocks)}

    rows: list[Row] = []
    anchor_terms = [(bi["step_0"], _ident(s, -1.0))]
    anchor_terms += [
        (bi[f"pair_dual_{pair_name(p, pr)}"], _schur(c.v_mats[pr], -1.0)) for pr in c.pairs
    ]
    rows.append(Row("anchor", s, anchor_terms, np.zeros((s, s), dtype=complex), sense="psd"))
    for t in range(1, q + 1):
        rows.append(
            Row(
                f"query_{t}",
                s * n,
                [
                    (bi[f"step_{t-1}"], _tensor_id(s, n)),
                    (bi[f"step_{t}"], _conj_tensor(c.omega.conj().T, s, n, -1.0)),
                ],
                np.zeros((s * n, s * n), dtype=complex),
                sense="psd",
            )
        )
    for pr in c.pairs:
        name = pair_name(p, pr)
        mask = np.ones((s, s))
        i, j = pr
        for a in (i, j):
            for b in (i, j):
                mask[a, b] = 0.0
        rows.append(
            Row(
                f"pattern_{name}",
                s,
                [(bi[f"pair_dual_{name}"], _schur(mask))],
                np.zeros((s, s), dtype=complex),
                sense="eq",
            )
        )
    margin = 2.0 * math.sqrt(eps * (1.0 - eps))
    strict_terms = [(bi[f"step_{q}"], _trace_against(_all_ones(s), -1.0))]
    strict_terms += [
        (bi[f"pair_dual_{pair_name(p, pr)}"], _trace_against(np.eye(s), margin)) for pr in c.pairs
    ]
    rows.append(Row("strict", 1, strict_terms, np.zeros((1, 1), dtype=complex), sense="strict"))
    return ConicFeasibilityProgram(
        blocks, rows, "dual", meta={"kind": "dual_relaxed", "q": q, "eps": eps}
    )


def _compress_to_pattern(y: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    out = np.zeros_like(y)
    i, j = pair
    for a in (i, j):
        for b in (i, j):
            out[a, b] = y[a, b]
    return out


def certificate_to_dual_point(
    p: QueryProblem,
    q: int,
    eps: float,
    certificate: dict[str, np.ndarray],
    relaxed: bool = False,
) -> dict[str, np.ndarray]:
    """Relabel a generic infeasibility certificate as a witness-program point.

    The certificate keys are the existence program's row names. For the exact
    pair, chain multipliers map to L_t and output multipliers flip sign; for
    the relaxed pair, chain multipliers map to K_t = -L_{q-t} and pair
    multipliers are compressed to their 2x2 pattern.
    """
    c = build_constants(p)

    def chain_multiplier(t: int) -> np.ndarray:
        if q == 0 or t == 0:
            return np.asarray(certificate["init"])
        if t < q:
            return np.asarray(certificate[f"chain_{t}"])
        return np.asarray(certificate["final_gram_def"])

    point: dict[str, np.ndarray] = {}
    if not relaxed:
        for t in range(q + 1):
            point[f"chain_dual_{t}"] = chain_multiplier(t)
        for z in p.outputs:
            point[f"output_dual_{z}"] = -np.asarray(certificate[f"output_{z}"])
    else:
        for t in range(q + 1):
            point[f"step_{t}"] = -chain_multiplier(q - t)
        for pr in c.pairs:
            name = pair_name(p, pr)
            point[f"pair_dual_{name}"] = _compress_to_pattern(
                np.asarray(certificate[f"pair_{name}"]), pr
            )
    return point


def _check_q_eps(q: int, eps: float) -> None:
    if q < 0 or int(q) != q:
        raise ValueError(f"query count must be a nonnegative integer, got {q}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"error tolerance must lie in [0, 1), got {eps}")
