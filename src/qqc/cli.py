"""Command-line front end.

Every subcommand prints one JSON report to stdout and exits with 0 when the
requested question was answered, 1 on unreadable input, 2 on semantically
invalid input, 3 when the solver could not decide, and 4 when a pipeline
precondition fails. Reports are deterministic for a fixed seed except for
the elapsed-time field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .adversary import WitnessError, make_dual_witness, search_gamma, spectral_bound
from .problem import QueryProblem, problem_from_dict, validate
from .programs import (
    build_dual,
    build_dual_relaxed,
    build_primal,
    build_primal_relaxed,
)
from .reconstruct import (
    ReconstructionError,
    algorithm_from_dict,
    algorithm_to_dict,
    reconstruct_algorithm,
    validate_algorithm,
)
from .sdpa import export_sdpa
from .simulate import _primal_point, run, success_report, trace_to_dict
from .solver import SolverConfig, solve, verify_point

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_SEMANTIC = 2
_EXIT_UNDECIDED = 3
_EXIT_PRECONDITION = 4


class _CommandFailure(Exception):
    """Internal funnel: carries the exit code and a partial report."""

    def __init__(self, code: int, status: str, message: str, extra: dict | None = None):
        super().__init__(message)
        self.code = code
        self.status = status
        self.extra = extra or {}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A002 - argparse signature
        self.exit(_EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CommandFailure(_EXIT_INPUT, "INPUT_ERROR", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CommandFailure(_EXIT_INPUT, "INPUT_ERROR", f"{path} is not valid JSON: {exc}") from exc


def _load_problem(path: str) -> QueryProblem:
    data = _load_json(path)
    try:
        return problem_from_dict(data)
    except ValueError as exc:
        raise _CommandFailure(_EXIT_INPUT, "INPUT_ERROR", str(exc)) from exc


def _require_valid_problem(p: QueryProblem) -> None:
    rep = validate(p)
    if not rep.ok:
        raise _CommandFailure(
            _EXIT_SEMANTIC, "INVALID", "problem fails validation", {"issues": rep.issues}
        )


def _build(builder, p: QueryProblem, q: int, eps: float):
    """Build one program; a bad query count or error tolerance is INVALID input."""
    try:
        return builder(p, q, eps)
    except ValueError as exc:
        raise _CommandFailure(_EXIT_SEMANTIC, "INVALID", str(exc)) from exc


def _point_summary(point: dict[str, np.ndarray]) -> dict:
    return {name: float(np.linalg.norm(block)) for name, block in sorted(point.items())}


def cmd_validate(args) -> tuple[int, str, dict]:
    p = _load_problem(args.problem)
    rep = validate(p)
    payload = {"issues": rep.issues, "labels": list(p.labels), "n": p.n}
    if rep.ok:
        return _EXIT_OK, "VALID", payload
    return _EXIT_SEMANTIC, "INVALID", payload


def cmd_feasible(args) -> tuple[int, str, dict]:
    p = _load_problem(args.problem)
    _require_valid_problem(p)
    builders = {
        (False, False): build_primal,
        (True, False): build_primal_relaxed,
        (False, True): build_dual,
        (True, True): build_dual_relaxed,
    }
    prog = _build(builders[(bool(args.relaxed), bool(args.dual))], p, args.q, args.eps)
    payload: dict = {"program_rows": [r.name for r in prog.rows]}
    if args.export_sdpa:
        try:
            export_sdpa(prog, args.export_sdpa)
        except ValueError as exc:
            raise _CommandFailure(_EXIT_SEMANTIC, "INVALID", str(exc)) from exc
        payload["sdpa_path"] = args.export_sdpa
    out = solve(prog, SolverConfig(seed=args.seed))
    payload["iterations"] = out.iterations
    payload["residuals"] = {k: float(v) for k, v in sorted(out.residuals.items())}
    if out.status == "FEASIBLE":
        payload["point_norms"] = _point_summary(out.point)
        return _EXIT_OK, "FEASIBLE", payload
    if out.status == "INFEASIBLE_WITH_CERTIFICATE":
        payload["certificate_norms"] = _point_summary(out.certificate)
        return _EXIT_OK, "INFEASIBLE", payload
    return _EXIT_UNDECIDED, "UNDECIDED", payload


def _load_gamma(spec_arg: str) -> np.ndarray:
    data = _load_json(spec_arg)
    if isinstance(data, dict) and "gamma" in data:
        data = data["gamma"]
    try:
        gamma = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _CommandFailure(
            _EXIT_INPUT, "INPUT_ERROR", f"weight matrix in {spec_arg} is not numeric"
        ) from exc
    if gamma.ndim != 2:
        raise _CommandFailure(
            _EXIT_INPUT, "INPUT_ERROR", f"weight matrix must be 2-D, got shape {gamma.shape}"
        )
    return gamma


def cmd_adversary(args) -> tuple[int, str, dict]:
    p = _load_problem(args.problem)
    _require_valid_problem(p)
    try:
        if args.gamma == "auto":
            gamma, rep = search_gamma(p, args.eps)
        else:
            gamma = _load_gamma(args.gamma)
            rep = spectral_bound(p, gamma, args.eps)
    except ValueError as exc:
        raise _CommandFailure(_EXIT_SEMANTIC, "INVALID", str(exc)) from exc
    payload = {
        "gamma": gamma.tolist(),
        "lambda": float(rep.lambda_gamma),
        "alpha": float(rep.alpha),
        "bound": None if rep.unbounded else float(rep.bound),
        "unbounded": bool(rep.unbounded),
        "ceil_bound": rep.ceil_bound,
    }
    q_wit = 0 if rep.unbounded else rep.ceil_bound - 1
    witness: dict = {"q": q_wit}
    if q_wit < 0:
        witness["checked"] = False
        witness["reason"] = "no nonnegative step count lies below the bound"
    else:
        try:
            make_dual_witness(p, gamma, q_wit, args.eps)
            witness["checked"] = True
            witness["ok"] = True
        except WitnessError as exc:
            witness["checked"] = True
            witness["ok"] = False
            witness["error"] = str(exc)
    payload["witness"] = witness
    return _EXIT_OK, "OK", payload


def cmd_estimate(args) -> tuple[int, str, dict]:
    p = _load_problem(args.problem)
    _require_valid_problem(p)
    if args.qmax < 0:
        raise _CommandFailure(_EXIT_SEMANTIC, "INVALID", f"qmax must be >= 0, got {args.qmax}")
    cfg = SolverConfig(seed=args.seed)
    statuses: dict[str, str] = {}
    qqc: int | None = None
    saw_undecided = False
    # infeasibility is monotone in q, so the largest certified q bounds qqc
    at_least = 0
    for q in range(args.qmax + 1):
        out = solve(_build(build_primal, p, q, args.eps), cfg)
        statuses[str(q)] = out.status
        if out.status == "FEASIBLE":
            qqc = q
            break
        if out.status == "UNDECIDED":
            saw_undecided = True
        else:
            at_least = q + 1
    floor = 0.0
    floor_ceil = 0
    try:
        _, adv = search_gamma(p, args.eps)
        floor = None if adv.unbounded else float(adv.bound)
        floor_ceil = adv.ceil_bound
    except ValueError:
        pass  # a constant map, or eps >= 1/2 where no bound applies: the floor stays 0
    payload = {
        "per_q_status": statuses,
        "qqc": qqc,
        "qqc_at_least": at_least if qqc is None else None,
        "adversary_floor": floor,
        "adversary_floor_ceil": floor_ceil,
    }
    if saw_undecided:
        payload["flag"] = "INCONCLUSIVE"
        return _EXIT_UNDECIDED, "INCONCLUSIVE", payload
    return _EXIT_OK, "OK", payload


def cmd_reconstruct(args) -> tuple[int, str, dict]:
    p = _load_problem(args.problem)
    _require_valid_problem(p)
    try:
        result = reconstruct_algorithm(p, args.q, args.eps, SolverConfig(seed=args.seed))
    except ValueError as exc:
        raise _CommandFailure(_EXIT_SEMANTIC, "INVALID", str(exc)) from exc
    except ReconstructionError as exc:
        if exc.status == "UNDECIDED":
            raise _CommandFailure(_EXIT_UNDECIDED, "UNDECIDED", str(exc)) from exc
        raise _CommandFailure(_EXIT_PRECONDITION, "PRECONDITION_FAILED", str(exc)) from exc
    alg = result.algorithm
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(algorithm_to_dict(alg), fh, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise _CommandFailure(_EXIT_INPUT, "INPUT_ERROR", f"cannot write {args.out}: {exc}") from exc
    payload = {
        "out": args.out,
        "w_dim": alg.w_dim,
        "queries": alg.q,
        "extracted_dim": result.extracted_dim,
        "solver_iterations": result.outcome.iterations,
        "solver_residuals": {k: float(v) for k, v in sorted(result.outcome.residuals.items())},
    }
    return _EXIT_OK, "OK", payload


def cmd_simulate(args) -> tuple[int, str, dict]:
    p = _load_problem(args.problem)
    _require_valid_problem(p)
    data = _load_json(args.alg)
    try:
        alg = algorithm_from_dict(data)
    except ValueError as exc:
        raise _CommandFailure(_EXIT_INPUT, "INPUT_ERROR", str(exc)) from exc
    prog = _build(build_primal, p, alg.q, args.eps)
    try:
        validate_algorithm(alg)
        trace = run(alg, p)
    except (ReconstructionError, ValueError) as exc:
        raise _CommandFailure(_EXIT_SEMANTIC, "INVALID", str(exc)) from exc
    rep = success_report(trace, p, args.eps)
    check = verify_point(prog, _primal_point(trace, p, alg, args.eps))
    # the decompose row is left out: the measurement sums to I, so off the
    # eps = 0 face it holds by construction, and on it its miss is the shares'
    # off-class part, of the order of the root of the success shortfall that
    # rep.passed already judges
    chain_residual = max(v for name, v in check.row_residuals.items() if name != "decompose")
    payload = {
        "trace": trace_to_dict(trace),
        "success": {
            "per_input": rep.per_input,
            "min_success": rep.min_success,
            "worst_label": rep.worst_label,
            "passed": rep.passed,
        },
        "chain_residual": chain_residual,
        "chain_min_eig": float(check.min_block_eig),
    }
    ok = rep.passed and chain_residual <= 1e-6
    if ok:
        return _EXIT_OK, "PASS", payload
    return _EXIT_SEMANTIC, "FAIL", payload


def _build_parser() -> _Parser:
    parser = _Parser(prog="qqc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qqc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("problem", help="path to a problem JSON file")

    def seeded(sp):
        sp.add_argument("--seed", type=int, default=0, help="solver seed")

    sp = sub.add_parser("validate", help="check a problem file")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("feasible", help="decide one existence program")
    common(sp)
    seeded(sp)
    sp.add_argument("--q", type=int, required=True, help="number of queries")
    sp.add_argument("--eps", type=float, default=0.1, help="allowed error probability")
    sp.add_argument("--relaxed", action="store_true", help="use the pairwise relaxation")
    sp.add_argument("--dual", action="store_true", help="solve the witness-side program")
    sp.add_argument("--export-sdpa", default=None, metavar="PATH", help="also write SDPA input")
    sp.set_defaults(fn=cmd_feasible)

    sp = sub.add_parser("adversary", help="spectral lower bound from a weight matrix")
    common(sp)
    sp.add_argument("--eps", type=float, default=0.1, help="allowed error probability")
    sp.add_argument("--gamma", default="auto", help="weight matrix JSON path, or 'auto'")
    sp.set_defaults(fn=cmd_adversary)

    sp = sub.add_parser("estimate", help="scan q upward for the least feasible count")
    common(sp)
    seeded(sp)
    sp.add_argument("--eps", type=float, default=0.1, help="allowed error probability")
    sp.add_argument("--qmax", type=int, default=6, help="largest query count to try")
    sp.set_defaults(fn=cmd_estimate)

    sp = sub.add_parser("reconstruct", help="build an explicit protocol from a feasible point")
    common(sp)
    seeded(sp)
    sp.add_argument("--q", type=int, required=True, help="number of queries")
    sp.add_argument("--eps", type=float, default=0.1, help="allowed error probability")
    sp.add_argument("--out", default="alg.json", help="output path for the protocol JSON")
    sp.set_defaults(fn=cmd_reconstruct)

    sp = sub.add_parser("simulate", help="run a protocol file against a problem")
    common(sp)
    sp.add_argument("--alg", required=True, help="path to a protocol JSON file")
    sp.add_argument("--eps", type=float, default=0.1, help="allowed error probability")
    sp.set_defaults(fn=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    report = {
        "command": args.command,
        "version": __version__,
        "parameters": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("fn", "command")
        },
    }
    try:
        code, status, payload = args.fn(args)
        report["status"] = status
        report["results"] = payload
    except _CommandFailure as fail:
        report["status"] = fail.status
        report["error"] = str(fail)
        report["results"] = fail.extra
        code = fail.code
    report["elapsed_s"] = time.perf_counter() - start
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
