"""Run one benchmark workload, check every output, print its metrics.

    python3 bench/run.py --workload grid-i --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Reports, the trace and the generated inputs go to ``bench/out``.  See
``bench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# The keys of ``workloads.WORKLOADS``, listed here so that the arguments
# are parsed, and the BLAS threads set, before numpy is imported.
WORKLOAD_NAMES = ("grid-i", "mixed-masked", "wide-noisy")
# Set-ups timed per run, each in a fresh interpreter; setup_s is their median.
SETUP_REPEATS = 5
# Workloads run single-threaded, BLAS included: the acceptance grid and the
# typed table use one worker, and a second BLAS thread on their small
# matrices adds more run-to-run spread (about 10% against 3% on a 2-core
# machine) than speed.  wide-noisy keeps the BLAS default, since the clash
# of its thread pools with the BLAS threads is part of what it measures.
SINGLE_THREADED = ("grid-i", "mixed-masked")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setups(args) -> float:
    """Median wall time of a fresh interpreter that imports the program
    and writes the workload's inputs: process start to the first analysis."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds the time up to
        # steps of 50 ms.
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Measurement:
    """What one pass over rounds of operations produced."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self.reports: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall = 0.0

    @property
    def all_times(self) -> list[float]:
        return [t for ts in self.times.values() for t in ts]


def measure(ops, seconds: float, tracer=None) -> Measurement:
    """Run whole rounds of ``ops`` while another round is expected to end
    within ``seconds`` (at least one round).  Each report is checked after
    its analysis, outside the timed region; a repeated analysis must give
    the same report bytes."""
    out = Measurement()
    start = time.perf_counter()
    checking = 0.0
    index = 0
    while True:
        round_start = time.perf_counter()
        for op in ops:
            out.attempted += 1
            context = tracer.analysis(index) if tracer else nullcontext()
            index += 1
            t0 = time.perf_counter()
            try:
                with context:
                    text = op.run()
            except Exception:  # any failure of the program counts against the run
                out.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            c0 = time.perf_counter()
            out.times.setdefault(op.label, []).append(elapsed)
            if op.label not in out.reports:
                out.reports[op.label] = text
                try:
                    op.check(text)
                except Exception as exc:  # a check that cannot even run is a failed check
                    out.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
            elif text != out.reports[op.label]:
                out.problems.append(f"{op.label}: report differs from the first round's")
            checking += time.perf_counter() - c0
        round_time = time.perf_counter() - round_start
        if time.perf_counter() - start + round_time > seconds:
            break
    out.wall = time.perf_counter() - start - checking
    return out


def plain_run(workload, args) -> tuple[Measurement, dict]:
    m = measure(workload.operations(), args.seconds)
    if not m.all_times:
        raise SystemExit("bench: no analysis finished")
    metrics = {
        "analyze_s": (statistics.median(m.all_times), "s"),
        "analyses_per_s": (len(m.all_times) / m.wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return m, metrics


def traced_run(workload, args) -> tuple[Measurement, dict]:
    """One untraced round, traced rounds for the rest of the time, then
    the first analysis of the largest input once more under ``tracemalloc``
    for the allocation peaks (it slows the analysis, so no time is taken
    from it).  Every report must be byte-identical to the untraced one;
    the difference of the median analysis times of the first two is the
    tracing overhead."""
    import tracing

    ops = workload.operations()
    start = time.perf_counter()
    base = measure(ops, 0.0)
    with tracing.Tracer() as timing:
        traced = measure(ops, args.seconds - (time.perf_counter() - start), timing)
    largest = max(ops, key=lambda op: op.cells)
    with tracing.Tracer(memory=True) as memory:
        peaks = measure([largest], 0.0, memory)
    OUT.mkdir(exist_ok=True)
    timing.write(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
    for label, text in base.reports.items():
        for name, other in (("traced", traced), ("tracemalloc", peaks)):
            if other.reports.get(label, text) != text:
                base.problems.append(f"{label}: {name} report differs from the untraced one")
    for tracer in (timing, memory):
        base.problems.extend(f"free energy: {p}" for p in tracer.fit_problems)
    base.problems.extend(traced.problems + peaks.problems)
    base.attempted += traced.attempted + peaks.attempted
    base.failed += traced.failed + peaks.failed
    metrics = tracing.layer_metrics(timing.spans)
    metrics.update(tracing.peak_metrics(memory.spans))
    overhead = [
        statistics.median(traced.times[label]) - statistics.median(base.times[label])
        for label in base.times
        if label in traced.times
    ]
    metrics["trace.overhead_s"] = (statistics.median(overhead) if overhead else 0.0, "s")
    return base, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sigpca" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'sigpca'}", file=sys.stderr)
        return 2
    if args.workload in SINGLE_THREADED:
        # Before numpy is first imported; set-up subprocesses inherit it.
        os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        import workloads

        out_dir = OUT / f"{args.workload}-setup"
        out_dir.mkdir(parents=True, exist_ok=True)
        workloads.WORKLOADS[args.workload](args.seed, out_dir)
        return 0

    setup_s = timed_setups(args) if not args.trace else None
    import workloads

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    m, metrics = (traced_run if args.trace else plain_run)(workload, args)
    try:
        workload.check_run()
    except Exception as exc:  # a check that cannot even run is a failed check
        m.problems.append(f"run: {type(exc).__name__}: {exc}")
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")

    digest = hashlib.sha256(
        json.dumps(m.reports, sort_keys=True).encode()
    ).hexdigest()
    (OUT / f"reports-{args.workload}-s{args.seed}.json").write_text(
        json.dumps(m.reports, indent=1, sort_keys=True) + "\n"
    )
    for problem in m.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"reports sha256 {digest} ({len(m.reports)} analyses)")
    result = {
        "correct": not m.problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
