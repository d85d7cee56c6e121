"""Benchmark of the qqc package: the decision, lower-bound and protocol questions.

    python3 bench/run.py --workload grid --seed 0 --seconds 20 --trace 0

Runs one workload (grid, estimate, roundtrip or bounds; see README.md) from
the root of a source checkout, checks every answer, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the public functions of each qqc module, writes the spans to
``bench/out/`` and reports per-layer metrics instead.
"""

import os

# One BLAS thread, fixed before numpy loads: the load comes from this one
# process, and a second OpenBLAS thread on a shared 2-core machine added CPU
# time and run-to-run spread without shortening wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QQC_SEED", None)  # the CLI would let it override --seed

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
SETUP_SAMPLES = 3
TAIL_MIN_OPS = 40
TAIL_BEYOND = 10


def _setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of the reference time from spawn to the
    first operation; each probe sets up, times the calibration loop and exits."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-probe", repr(time.time())]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _tail(latencies: list[float]) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it. A run with fewer
    than TAIL_MIN_OPS operations has no tail, and the metric repeats the median."""
    if len(latencies) < TAIL_MIN_OPS:
        return statistics.median(latencies)
    return sorted(latencies)[len(latencies) - TAIL_BEYOND - 1]


def _measure(ops, rounds: int, tracer):
    """Run and check every operation; returns wall times, reference times,
    failed and wrong operations."""
    import calibrate
    import workloads

    walls: list[float] = []
    latencies: list[float] = []
    failed: list[str] = []
    wrong: list[str] = []
    with calibrate.Calibrator() as cal:
        for _ in range(rounds):
            for op in ops:
                if tracer:
                    tracer.op = len(walls)
                cal.begin()
                try:
                    result = op.run()
                except workloads.Failed as exc:
                    failed.append(f"{op.name}: {exc}")
                    continue
                finally:
                    wall, reference = cal.end()
                    walls.append(wall)
                    latencies.append(reference)
                    if tracer:
                        tracer.op = None
                try:
                    op.check(result)
                except workloads.WrongAnswer as exc:
                    wrong.append(f"{op.name}: {exc}")
    return walls, latencies, failed, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("grid", "estimate", "roundtrip", "bounds"))
    ap.add_argument("--seed", type=int, default=0, help="input seed")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="work budget: floor(seconds / 20) whole rounds of the workload, at least 1")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # Set-up: everything between process start and the first operation.
    if not (SRC / "qqc" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no qqc sources at {SRC}; run it from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import calibrate
    import workloads

    out_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.BUILDERS[args.workload](args.seed, out_dir)
    if args.setup_probe is not None:
        elapsed = time.time() - args.setup_probe
        loops = [calibrate.loop_seconds() for _ in range(3)]
        shutil.rmtree(out_dir)
        print(elapsed * calibrate.REFERENCE_LOOP_S / statistics.mean(loops))
        return 0

    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)
    rounds = max(1, int(args.seconds // workloads.ROUND_SECONDS))
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        walls, latencies, failed, wrong = _measure(ops, rounds, tracer)
    finally:
        if tracer:
            tracer.remove()

    completed = len(latencies) - len(failed)
    print(f"wall time: {completed} completed in {sum(walls):.4f} s, "
          f"median {statistics.median(walls):.4f} s", file=sys.stderr)
    for line in failed:
        print(f"failed {line}", file=sys.stderr)
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)

    if tracer:
        metrics = spans.per_layer_metrics(tracer.spans, sum(latencies), completed)
        path = out_dir / "spans.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "rounds": rounds})
        print(f"spans written to {path}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": completed / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": _tail(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        shutil.rmtree(out_dir)
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        sys.exit(f"computed metrics {sorted(metrics)} differ from those declared in {SPEC.name}")
    report = {
        "correct": not wrong,
        "attempted": len(latencies),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
