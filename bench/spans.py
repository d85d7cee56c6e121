"""Spans around the public functions of each qqc module, and the per-layer
metrics derived from them.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper, in every ``qqc`` module namespace that holds it, so calls made
through imported names (``qqc.reconstruct.solve``, ``qqc.cli.solve``) are
seen as well; ``Tracer.remove`` puts the originals back. A span is recorded
only while an operation is current, so set-up and answer checks stay out.
Nothing under ``src/`` changes; ``qqc.linalg`` is reached only through the
other modules and its time counts as their self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("problem", "programs", "solver", "adversary", "reconstruct", "simulate", "sdpa", "cli")

_BUILDS = (
    "programs.build_primal", "programs.build_primal_relaxed", "programs.build_dual",
    "programs.build_dual_relaxed", "programs.build_output_program",
)

# What each kind of span keeps from its call's result, for the counts below.
_NOTES = {
    "solver.solve": lambda out: {"status": out.status, "iterations": out.iterations},
    "sdpa.export_sdpa": lambda path: {"bytes": os.path.getsize(path)},
    "reconstruct.reconstruct_algorithm": lambda res: {"w_dim": res.algorithm.w_dim},
    **{name: (lambda prog: {"coords": sum(b.dim * b.dim for b in prog.blocks)}) for name in _BUILDS},
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, operation id, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = time.perf_counter()
                rec[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[2] = time.perf_counter()
            if note is not None:
                rec[5] = note(out)
            return out

        return traced

    def install(self) -> None:
        namespaces = [m for key, m in sys.modules.items() if key == "qqc" or key.startswith("qqc.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"qqc.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._saved.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def remove(self) -> None:
        for ns, key, fn in reversed(self._saved):
            setattr(ns, key, fn)
        self._saved.clear()

    def write(self, path: Path, header: dict) -> None:
        keys = ("name", "start", "end", "parent", "op", "note")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def per_layer_metrics(spans: list[list], op_seconds: float, completed: int) -> dict[str, float]:
    """Totals over one run. A function's time is the sum of its spans, each
    from call to return, nested calls included; a layer's self time is that
    layer's span time minus the time of the spans they directly caused."""
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        dur = s[2] - s[1]
        total[s[0]] = total.get(s[0], 0.0) + dur
        count[s[0]] = count.get(s[0], 0) + 1
        if s[3] >= 0:
            child_time[s[3]] += dur
    self_time = {layer: 0.0 for layer in LAYERS}
    for s, kids in zip(spans, child_time):
        self_time[s[0].split(".", 1)[0]] += (s[2] - s[1]) - kids

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    def notes(name: str):
        return [s[5] or {} for s in spans if s[0] == name]

    def solve_time(status: str) -> float:
        return sum((s[2] - s[1] for s in spans if s[0] == "solver.solve" and s[5]
                    and s[5].get("status") == status), 0.0)

    solves = notes("solver.solve")
    iterations = sum(n.get("iterations", 0) for n in solves)
    return {
        "solver.certificate_s": solve_time("INFEASIBLE_WITH_CERTIFICATE"),
        "solver.feasible_s": solve_time("FEASIBLE"),
        "solver.iterations": iterations,
        "solver.solves": len(solves),
        "solver.s_per_iter": t("solver.solve") / iterations if iterations else 0.0,
        "solver.verify_s": t("solver.verify_point"),
        "programs.build_s": t(*_BUILDS),
        "programs.coords": sum(n.get("coords", 0) for b in _BUILDS for n in notes(b)),
        "adversary.bound_s": t("adversary.spectral_bound"),
        "adversary.witness_s": t("adversary.make_dual_witness"),
        "adversary.search_s": t("adversary.search_gamma"),
        "adversary.evals": count.get("adversary.spectral_bound", 0),
        "sdpa.export_s": t("sdpa.export_sdpa"),
        "sdpa.parse_s": t("sdpa.parse_sdpa"),
        "sdpa.import_s": t("sdpa.sdpa_to_program"),
        "sdpa.bytes": sum(n.get("bytes", 0) for n in notes("sdpa.export_sdpa")),
        "reconstruct.stages_s": t("reconstruct.output_shares", "reconstruct.extract_final_states",
                                  "reconstruct.backward_chain"),
        "reconstruct.w_dim": sum(n.get("w_dim", 0) for n in notes("reconstruct.reconstruct_algorithm")),
        "reconstruct.failed_s": sum(
            (s[2] - s[1] for s in spans
             if s[0] == "reconstruct.reconstruct_algorithm" and s[5] == {"error": "ReconstructionError"}),
            0.0,
        ),
        "simulate.run_s": t("simulate.run"),
        "simulate.check_s": t("simulate.success_report", "simulate.trace_to_primal_point"),
        "problem.load_s": t("problem.problem_from_dict"),
        **{f"{layer}.self_s": self_time[layer] for layer in LAYERS},
        "trace.spans": len(spans),
        "trace.ops_per_s": completed / op_seconds,
    }
