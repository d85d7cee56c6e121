"""Inputs, operations and answer checks of the four benchmark workloads.

Every qqc function is looked up through its module at call time (for example
``solver.solve``), so the wrappers that ``spans.Tracer`` installs on the
module attributes see every call an operation makes.

An operation is an ``Op``: ``run`` is the timed call into qqc and returns
what ``check`` inspects afterwards, outside the timing. ``run`` raises
``Failed`` when qqc gives no answer (an undecided solve, a reconstruction
error); ``check`` raises ``WrongAnswer`` when an answer contradicts theory or
an independent evaluation.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qqc import adversary, cli, problem, programs, reconstruct, sdpa, simulate, solver

# One round of any workload takes 7-23 s with one BLAS thread on an idle
# 2-core x86 sandbox; ``--seconds`` buys floor(seconds / ROUND_SECONDS) whole
# rounds, at least one, so a given value always means the same operations.
ROUND_SECONDS = 20.0

# The grid and the roundtrip cells are subsets of the full question sets,
# sized so that 22 runs of each of the four workloads fit in under an hour on
# a shared machine running at less than half speed; README.md lists what the
# subsets leave out.
GRID_PROBLEMS = ("deutsch", "or2", "ix")
GRID_QS = (0, 1)
GRID_EPS = 0.1
ROUNDTRIP_SOLVER_SEEDS = tuple(range(10))
BOUNDS_OPS = 40
BOUNDS_WEIGHTINGS = 4

# Builder names, looked up on the module at call time (see the module docstring).
_EXISTENCE = {"exact": "build_primal", "relaxed": "build_primal_relaxed"}
_WITNESS = {"exact": "build_dual", "relaxed": "build_dual_relaxed"}


class Failed(Exception):
    """The operation produced no answer."""


class WrongAnswer(Exception):
    """The operation answered, and the answer is wrong."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# Problem instances.

def fixtures() -> dict[str, problem.QueryProblem]:
    """The four reference problems of the acceptance suite (commuting phase oracles)."""
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return {
        "const": problem.phase_query_problem(2, {"00": "0", "01": "0", "10": "0", "11": "0"}),
        "deutsch": problem.phase_query_problem(2, {"00": "0", "11": "0", "01": "1", "10": "1"}),
        "or2": problem.phase_query_problem(2, {"00": "0", "01": "1", "10": "1", "11": "1"}),
        "ix": problem.QueryProblem(
            2, ("i", "x"), np.stack([np.eye(2, dtype=complex), flip]), ("i", "x"),
            {"i": "i", "x": "x"},
        ),
    }


def families() -> dict[str, problem.QueryProblem]:
    """Non-commuting families whose query complexity is 1 by (qutrit) superdense coding."""
    eye = np.eye(2, dtype=complex)
    px = np.array([[0, 1], [1, 0]], dtype=complex)
    py = np.array([[0, -1j], [1j, 0]], dtype=complex)
    pz = np.diag([1.0, -1.0]).astype(complex)
    paulis = np.stack([eye, px, py, pz])
    labels = ("I", "X", "Y", "Z")
    omega = np.exp(2j * np.pi / 3)
    shift = np.roll(np.eye(3), 1, axis=0).astype(complex)
    clock = np.diag([1.0, omega, omega**2])
    weyl = {
        f"{a}{b}": np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(3) for b in range(3)
    }
    return {
        "pauli_id": problem.QueryProblem(2, labels, paulis, labels, {z: z for z in labels}),
        "pauli_class": problem.QueryProblem(
            2, labels, paulis, ("0", "1"), {"I": "0", "Z": "0", "X": "1", "Y": "1"}
        ),
        "weyl3": problem.QueryProblem(
            3, tuple(weyl), np.stack(list(weyl.values())), ("0", "1", "2"),
            {lab: lab[0] for lab in weyl},
        ),
    }


def theory_feasible(pname: str, q: int) -> bool:
    """Expected answer of the existence program, exact and relaxed alike.

    ``or2`` is never feasible: inputs 00 and 11 give I and -I, equal up to a
    global phase, yet map to different outputs.
    """
    return {"const": True, "deutsch": q >= 1, "ix": q >= 1, "or2": False}[pname]


def random_weighting(p: problem.QueryProblem, rng: np.random.Generator) -> np.ndarray:
    """Weights uniform in [0.1, 2] on every pair of inputs with different outputs."""
    s = p.size
    gam = np.zeros((s, s))
    for i, j in itertools.combinations(range(s), 2):
        if p.g[p.labels[i]] != p.g[p.labels[j]]:
            gam[i, j] = gam[j, i] = rng.uniform(0.1, 2.0)
    return gam


# ---------------------------------------------------------------------------
# grid: existence/witness pairs on the commuting fixtures.

def _grid_op(pname: str, p, q: int, eps: float, kind: str) -> Op:
    def run():
        cfg = solver.SolverConfig(seed=0)
        exist_prog = getattr(programs, _EXISTENCE[kind])(p, q, eps)
        exist = solver.solve(exist_prog, cfg)
        wit_prog = getattr(programs, _WITNESS[kind])(p, q, eps)
        wit = solver.solve(wit_prog, cfg)
        if "UNDECIDED" in (exist.status, wit.status):
            raise Failed(f"statuses {exist.status}/{wit.status}")
        return (exist_prog, exist), (wit_prog, wit)

    def check(result):
        (exist_prog, exist), (wit_prog, wit) = result
        feasible = theory_feasible(pname, q)
        want = ("FEASIBLE", "INFEASIBLE_WITH_CERTIFICATE")
        if not feasible:
            want = want[::-1]
        _require((exist.status, wit.status) == want,
                 f"statuses {exist.status}/{wit.status}, theory says {want}")
        for prog, out in ((exist_prog, exist), (wit_prog, wit)):
            if out.status == "FEASIBLE":
                rep = solver.verify_point(prog, out.point)
                _require(rep.within(1e-6) and (rep.strict_slack is None or rep.strict_slack > 0),
                         f"feasible point misses its program: {rep.max_residual:.2e}, "
                         f"{rep.min_block_eig:.2e}, {rep.strict_slack}")

    return Op(f"{pname}/{kind}/q={q}/eps={eps}", run, check)


def grid_ops(seed: int, out_dir: Path) -> list[Op]:
    fx = fixtures()
    return [
        _grid_op(pname, fx[pname], q, GRID_EPS, kind)
        for pname in GRID_PROBLEMS for q in GRID_QS for kind in ("exact", "relaxed")
    ]


# ---------------------------------------------------------------------------
# estimate: the whole `qqc estimate` path on non-commuting families.

def _estimate_op(fname: str, path: Path, eps: str) -> Op:
    argv = ["estimate", str(path), "--eps", eps, "--qmax", "2", "--seed", "0"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code == 3:
            raise Failed("estimate is inconclusive")
        return code, buf.getvalue()

    def check(result):
        code, text = result
        _require(code == 0, f"exit code {code}")
        res = json.loads(text)["results"]
        _require(res["qqc"] == 1, f"qqc = {res['qqc']}, superdense coding gives 1")
        _require(res["per_q_status"].get("0") == "INFEASIBLE_WITH_CERTIFICATE",
                 f"q=0 status {res['per_q_status'].get('0')}")
        floor = res["adversary_floor"]
        _require(floor is not None and floor <= res["qqc"] + 1e-9,
                 f"adversary floor {floor} exceeds qqc {res['qqc']}")

    return Op(f"{fname}/eps={eps}", run, check)


def estimate_ops(seed: int, out_dir: Path) -> list[Op]:
    ops = []
    for fname, p in families().items():
        path = out_dir / f"{fname}.json"
        path.write_text(json.dumps(problem.problem_to_dict(p)))
        parsed = problem.problem_from_dict(json.loads(path.read_text()))
        if not problem.validate(parsed).ok:
            raise RuntimeError(f"generated problem {fname} fails validation")
        ops += [_estimate_op(fname, path, eps) for eps in ("0", "0.1")]
    return ops


# ---------------------------------------------------------------------------
# roundtrip: reconstruct, then simulate and re-check, over solver seeds.

def roundtrip_cells() -> list[tuple[str, int, float]]:
    """One-query cells with a feasible exact existence program: deutsch and ix
    from the grid, and Pauli identification.

    Three problems of distinct cost, 20 operations each, put the median inside
    the middle group rather than on the gap between two groups.
    """
    return [(pname, 1, eps) for pname in ("deutsch", "ix", "pauli_id") for eps in (0.0, 0.1)]


def _roundtrip_op(pname: str, p, q: int, eps: float, solver_seed: int) -> Op:
    def run():
        try:
            res = reconstruct.reconstruct_algorithm(p, q, eps, solver.SolverConfig(seed=solver_seed))
        except reconstruct.ReconstructionError as exc:
            raise Failed(str(exc)) from exc
        alg = res.algorithm
        srep = simulate.success_report(simulate.run(alg, p), p, eps)
        point = simulate.trace_to_primal_point(p, alg, eps)
        chain = solver.verify_point(programs.build_primal(p, q, eps), point)
        return alg, srep, chain

    def check(result):
        alg, srep, chain = result
        try:
            reconstruct.validate_algorithm(alg)
        except reconstruct.ReconstructionError as exc:
            raise WrongAnswer(str(exc)) from exc
        worst = min(srep.per_input.values())
        _require(worst >= 1.0 - eps - 1e-6, f"success {worst:.9f} below {1.0 - eps}")
        _require(chain.max_residual <= 1e-6 and chain.min_block_eig >= -1e-6,
                 f"simulated chain misses the program by {chain.max_residual:.2e}")
        cap = max(p.size * p.n, -(-p.size * len(p.outputs) // p.n))
        _require(alg.w_dim <= cap, f"w_dim {alg.w_dim} exceeds the cap {cap}")

    return Op(f"{pname}/q={q}/eps={eps}/seed={solver_seed}", run, check)


def roundtrip_ops(seed: int, out_dir: Path) -> list[Op]:
    probs = {**fixtures(), **families()}
    return [
        _roundtrip_op(pname, probs[pname], q, eps, s)
        for s in ROUNDTRIP_SOLVER_SEEDS for pname, q, eps in roundtrip_cells()
    ]


# ---------------------------------------------------------------------------
# bounds: spectral bounds with witnesses, and the SDPA export round trip.

def _hcoords(m: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix: diagonal, then
    sqrt(2) times the real and imaginary upper triangle, row by row."""
    iu = np.triu_indices(m.shape[0], 1)
    return np.concatenate([np.diag(m).real, math.sqrt(2) * m[iu].real, math.sqrt(2) * m[iu].imag])


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def _sdpa_check(prog, imported, rng: np.random.Generator) -> None:
    """The re-imported program, evaluated at a random Hermitian point through
    the real embedding, reproduces the original rows' coordinates there."""
    point = {b.name: _random_hermitian(rng, b.dim) for b in prog.blocks}
    want = np.concatenate([_hcoords(prog.row_value(r, point)) for r in prog.rows])
    embedded = {}
    for j, b in enumerate(prog.blocks):
        x = point[b.name]
        embedded[f"block_{j + 1}"] = x.real if b.dim == 1 else np.block([[x.real, -x.imag], [x.imag, x.real]])
    got = np.array([imported.row_value(r, embedded)[0, 0].real for r in imported.rows])
    _require(got.shape == want.shape, f"{got.size} imported rows, {want.size} row coordinates")
    err = float(np.max(np.abs(got - want)))
    _require(err <= 1e-9 * max(1.0, float(np.max(np.abs(want)))), f"imported rows differ by {err:.2e}")
    rhs_want = np.concatenate([_hcoords(np.asarray(r.rhs, dtype=complex)) for r in prog.rows])
    rhs_got = np.array([r.rhs[0, 0].real for r in imported.rows])
    _require(np.array_equal(rhs_got, rhs_want), "imported right-hand side differs")


def bounds_ops(seed: int, out_dir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    fx = fixtures()
    probs = {**fx, **families()}
    weighted = {k: p for k, p in probs.items() if k != "const"}  # const has no differing pair
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    progs = {
        eps: [
            (f"{pname}/{kind}/q={q}", getattr(programs, _EXISTENCE[kind])(p, q, eps))
            for pname, p in fx.items() for q in GRID_QS for kind in ("exact", "relaxed")
        ]
        for eps in (0.0, 0.1)
    }
    ops = []
    for k in range(BOUNDS_OPS):
        eps = (0.0, 0.1)[k % 2]
        gammas = [(pname, p, random_weighting(p, rng))
                  for pname, p in weighted.items() for _ in range(BOUNDS_WEIGHTINGS)]
        check_seed = int(rng.integers(2**32))
        ops.append(_bounds_op(k, eps, gammas, progs[eps], fx["ix"], flip, out_dir, check_seed))
    return ops


def _bounds_op(k, eps, gammas, progs, ix, flip, out_dir: Path, check_seed: int) -> Op:
    path = str(out_dir / "program.dat-s")

    def run():
        witnesses = []
        for pname, p, gam in gammas:
            rep = adversary.spectral_bound(p, gam, eps)
            for q in range(int(math.ceil(rep.bound - 1e-12))):
                wit = adversary.make_dual_witness(p, gam, q, eps)
                witnesses.append((pname, q, solver.verify_point(programs.build_dual_relaxed(p, q, eps), wit)))
        flip_bound = adversary.spectral_bound(ix, flip, 0.0).bound
        files = []
        for name, prog in progs:
            sdpa.export_sdpa(prog, path)
            data = sdpa.parse_sdpa(path)
            files.append((name, prog, sdpa.sdpa_to_program(data)))
        return witnesses, flip_bound, files

    def check(result):
        witnesses, flip_bound, files = result
        _require(len(witnesses) >= len(gammas), "a weighting gave no witness at q = 0")
        for pname, q, rep in witnesses:
            _require(rep.max_residual <= 1e-8 and rep.min_block_eig >= -1e-8,
                     f"{pname} q={q} witness residual {rep.max_residual:.2e}")
            _require(rep.strict_slack is not None and rep.strict_slack > 0,
                     f"{pname} q={q} witness strict slack {rep.strict_slack}")
        _require(abs(flip_bound - 0.25) <= 1e-9, f"ix flip bound {flip_bound!r} != 0.25")
        crng = np.random.default_rng(check_seed)
        for name, prog, imported in files:
            try:
                _sdpa_check(prog, imported, crng)
            except WrongAnswer as exc:
                raise WrongAnswer(f"{name}: {exc}") from exc

    return Op(f"bounds/{k}/eps={eps}", run, check)


BUILDERS = {"grid": grid_ops, "estimate": estimate_ops, "roundtrip": roundtrip_ops, "bounds": bounds_ops}
