"""Query-problem instances: a finite set of unitary black boxes and a target map.

An instance holds n x n unitaries, one per label, a list of output labels, and
the function g assigning an output to every unitary. The block oracle is the
block-diagonal matrix with the instance unitaries as diagonal blocks, acting on
(input register, query register) with the query register fast-running. A frozen
instance validates and builds it once, on first use, as its `omega`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

UNITARITY_TOL = 1e-9

__all__ = [
    "QueryProblem",
    "ValidationReport",
    "validate",
    "build_omega",
    "phase_query_problem",
    "problem_to_dict",
    "problem_from_dict",
]


@dataclass(frozen=True)
class QueryProblem:
    """Description of one instance, with fields that cannot be reassigned."""

    n: int
    labels: tuple[str, ...]
    unitaries: np.ndarray  # (|S|, n, n) complex
    outputs: tuple[str, ...]
    g: dict[str, str]

    @functools.cached_property
    def omega(self) -> np.ndarray:
        """`build_omega(self)`, kept read-only: every caller shares it."""
        omega = build_omega(self)
        omega.flags.writeable = False
        return omega

    @property
    def size(self) -> int:
        return len(self.labels)

    def class_indices(self, z: str) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if self.g[lab] == z]

    def differing_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j), i < j, whose labels map to different outputs."""
        return [
            (i, j) for i, j in itertools.combinations(range(self.size), 2)
            if self.g[self.labels[i]] != self.g[self.labels[j]]
        ]


@dataclass
class ValidationReport:
    issues: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, message: str, residual: float | None = None) -> None:
        entry = {"code": code, "message": message}
        if residual is not None:
            entry["residual"] = float(residual)
        self.issues.append(entry)


def validate(p: QueryProblem) -> ValidationReport:
    """Check shapes, finiteness, unitarity, label uniqueness, and totality of g."""
    rep = ValidationReport()
    if p.n < 1:
        rep.add("bad-n", f"query register dimension must be >= 1, got {p.n}")
    if len(p.labels) < 1:
        rep.add("empty-family", "at least one unitary is required")
    if len(set(p.labels)) != len(p.labels):
        rep.add("dup-label", "unitary labels are not unique")
    if len(p.outputs) < 1:
        rep.add("empty-outputs", "at least one output label is required")
    if len(set(p.outputs)) != len(p.outputs):
        rep.add("dup-output", "output labels are not unique")
    arr = np.asarray(p.unitaries)
    if arr.shape != (len(p.labels), p.n, p.n):
        rep.add("bad-shape", f"unitary array shape {arr.shape} != ({len(p.labels)}, {p.n}, {p.n})")
        return rep
    # NaN fails every comparison, so it would pass the unitarity check below
    finite = np.isfinite(arr).all(axis=(1, 2))
    if not finite.all():
        bad = [lab for lab, ok in zip(p.labels, finite) if not ok]
        rep.add("non-finite", f"matrices {bad} have non-finite entries")
        return rep
    residuals = np.linalg.norm(arr.conj().transpose(0, 2, 1) @ arr - np.eye(p.n), axis=(1, 2))
    for lab, res in zip(p.labels, residuals.tolist()):
        if res > UNITARITY_TOL:
            rep.add("not-unitary", f"matrix {lab!r} is not unitary", res)
    for lab in p.labels:
        if lab not in p.g:
            rep.add("g-not-total", f"g is undefined on {lab!r}")
        elif p.g[lab] not in p.outputs:
            rep.add("g-bad-value", f"g({lab!r}) = {p.g[lab]!r} is not an output label")
    for key in p.g:
        if key not in p.labels:
            rep.add("g-extra-key", f"g defined on unknown label {key!r}")
    return rep


def build_omega(p: QueryProblem) -> np.ndarray:
    """Block-diagonal oracle, one n x n block per label in label order; p must be valid."""
    rep = validate(p)
    if not rep.ok:
        raise ValueError(f"invalid problem: {rep.issues}")
    s, n = p.size, p.n
    omega = np.zeros((s * n, s * n), dtype=complex)
    for i in range(s):
        omega[i * n : (i + 1) * n, i * n : (i + 1) * n] = p.unitaries[i]
    return omega


def phase_query_problem(m: int, g_classical: dict[str, str]) -> QueryProblem:
    """Instance whose oracles phase-flip basis state i by the i-th bit of x.

    The query register has dimension m and basis index i in {1..m} picks bit
    x_i of the hidden string; U_x = diag((-1)^{x_1}, ..., (-1)^{x_m}). Labels
    are the 2^m bit strings in lexicographic order. g_classical maps every bit
    string to an output label; outputs are sorted for determinism.
    """
    if m < 1:
        raise ValueError("bit-string length must be >= 1")
    labels = ["".join(bits) for bits in itertools.product("01", repeat=m)]
    missing = [x for x in labels if x not in g_classical]
    if missing:
        raise ValueError(f"g undefined on bit strings: {missing}")
    unitaries = np.stack(
        [np.diag([(-1.0) ** int(b) for b in x]).astype(complex) for x in labels]
    )
    outputs = tuple(sorted({str(v) for v in g_classical.values()}))
    g = {x: str(g_classical[x]) for x in labels}
    return QueryProblem(n=m, labels=tuple(labels), unitaries=unitaries, outputs=outputs, g=g)


def matrix_to_dict(m: np.ndarray) -> dict:
    """JSON form of a complex matrix: real and imaginary parts as nested lists."""
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_dict(e: dict) -> np.ndarray:
    """Inverse of matrix_to_dict; a missing "im" reads as zero.

    A non-finite part gives a non-finite entry (an infinite "im" a NaN real
    part, without a warning), which the callers' finiteness checks refuse.
    """
    re = np.asarray(e["re"], dtype=float)
    im = np.asarray(e.get("im", np.zeros_like(re)), dtype=float)
    if im.shape != re.shape:
        raise ValueError(f'"im" shape {im.shape} differs from "re" shape {re.shape}')
    with np.errstate(invalid="ignore"):
        return re + 1j * im


def problem_to_dict(p: QueryProblem) -> dict:
    return {
        "n": p.n,
        "unitaries": [
            {"label": lab, **matrix_to_dict(p.unitaries[i])} for i, lab in enumerate(p.labels)
        ],
        "outputs": list(p.outputs),
        "g": dict(p.g),
    }


def problem_from_dict(data: dict) -> QueryProblem:
    """Parse the JSON problem format; raises ValueError on malformed input."""
    try:
        n = int(data["n"])
        entries = data["unitaries"]
        labels = tuple(str(e["label"]) for e in entries)
        mats = [matrix_from_dict(e) for e in entries]
        outputs = tuple(str(z) for z in data["outputs"])
        g = {str(k): str(v) for k, v in data["g"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed problem description: {exc}") from exc
    shapes = {m.shape for m in mats}
    if shapes and shapes != {(n, n)}:
        raise ValueError(f"unitary shapes {shapes} do not match n = {n}")
    unitaries = np.stack(mats) if mats else np.zeros((0, n, n), dtype=complex)
    return QueryProblem(n=n, labels=labels, unitaries=unitaries, outputs=outputs, g=g)
