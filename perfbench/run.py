"""Benchmark of the §5 pipeline: four workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the same operations twice, first untraced and then
with every layer's public functions wrapped (see ``layers.py``), checks
that both runs gave bit-identical answers, and reports the per-layer
split.  The last line of standard output is the result object; the line
before it is a report with provenance, sample counts and any failures.
The exit code is 0 only when every correctness gate passed.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402

# One BLAS thread, here and in the daemon and set-up probes this process
# starts.  On a 2-CPU host a second BLAS thread contends with the client
# and makes the temporal workload's dense solves erratic from one
# operation to the next.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

#: Set-up is repeated in this many processes (this one included) and
#: reported as the median.
SETUP_SAMPLES = 3

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def percentile(values, q: float):
    """Nearest-rank ``q``-quantile, or ``None`` when fewer than
    ``TAIL_SAMPLES`` samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


@dataclass
class Phase:
    """What one closed-loop pass over the operation stream produced."""

    latencies: list = field(default_factory=list)
    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(record is not None for record in self.records)


def measure(workload, items, *, seconds=None, count=None, recorder=None) -> Phase:
    """Closed loop until ``seconds`` of run time or ``count`` operations."""
    phase = Phase()
    started = time.perf_counter()
    for index, item in enumerate(items):
        if count is not None and index >= count:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
        scope = recorder.span("op") if recorder is not None else nullcontext()
        began = time.perf_counter()
        try:
            with scope:
                answer = workload.run(item)
            latency = time.perf_counter() - began
            record = workload.digest(item, answer)
        except Exception:  # a failed operation, counted and reported
            latency = time.perf_counter() - began
            record = None
            phase.failures.append(f"operation {index}: {traceback.format_exc(limit=3)}")
        phase.latencies.append(latency)
        phase.records.append(record)
    return phase


def check(workload, phase: Phase, seed: int) -> list:
    records = [record for record in phase.records if record is not None]
    return workload.check(records, random.Random(seed))


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of ``name`` in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for folder, _dirs, files in sorted(os.walk("src")):
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(folder, filename)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "seed": seed,
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def git_revision() -> str:
    """HEAD of a git checkout at the working directory, read from its
    files; ``"unknown"`` in an export without ``.git``."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload, name: str, seed: int, seconds: float, report: dict) -> tuple:
    workload.setup(seed, traced=False)
    setups = [time.perf_counter() - START]
    try:
        phase = measure(workload, workload.operations(seed), seconds=seconds)
        peak_rss = workload.peak_rss_mb()
    finally:
        workload.close()
    errors = check(workload, phase, seed)
    setups += [setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    latencies_ms = [1e3 * value for value, record in zip(phase.latencies, phase.records)
                    if record is not None]
    if not latencies_ms:
        raise RuntimeError("no operation completed")
    report.update(
        samples=len(latencies_ms),
        latency_p90_ms=percentile(latencies_ms, 0.9),
        latencies_ms=[round(value, 3) for value in latencies_ms],
        setup_samples_s=setups,
    )
    metrics = {
        "ops_per_s": phase.completed / sum(phase.latencies),
        "latency_p50_ms": statistics.median(latencies_ms),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
    }
    return phase, errors, {metric: (metrics[metric], unit) for metric, unit in END_TO_END.items()}


def traced(workload, name: str, seed: int, seconds: float, report: dict) -> tuple:
    import layers
    from spans import Recorder, installed, spans_from_rows

    workload.setup(seed, traced=False)
    try:
        plain = measure(workload, workload.operations(seed), seconds=seconds / 2)
    finally:
        workload.close()
    recorder = Recorder()
    workload.setup(seed, traced=True)
    try:
        wrappers = (
            installed(recorder, layers.targets()) if workload.in_process else nullcontext()
        )
        with wrappers:
            again = measure(
                workload, workload.operations(seed), count=plain.attempted, recorder=recorder
            )
    finally:
        rows = workload.close()
    spans = recorder.spans
    if rows:
        # Daemon spans: hang each root (request handler) under the
        # client operation whose interval holds it.
        daemon = spans_from_rows(rows, offset=len(spans))
        ops = [index for index, span in enumerate(spans) if span.name == "op"]
        for span in daemon:
            if span.parent < 0:
                middle = (span.start + span.end) / 2
                span.parent = next(
                    (op for op in ops if spans[op].start <= middle <= spans[op].end), -1
                )
        spans = spans + daemon
    errors = check(workload, plain, seed) + again.failures
    errors += [
        f"operation {index}: the traced answer differs from the untraced one"
        for index, (a, b) in enumerate(zip(plain.records, again.records))
        if a is not None and b is not None and a != b
    ]
    pairs = [(a, b) for a, b, record in zip(plain.latencies, again.latencies, plain.records)
             if record is not None]
    metrics = layers.per_layer(spans)
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(b for _, b in pairs) / sum(a for a, _ in pairs) - 1.0
    )
    report.update(samples=len(pairs))
    return plain, errors, {metric: (value, layers.UNITS[metric]) for metric, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run from the repository root: src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    if args.setup_probe:
        workload.setup(args.seed, traced=False)
        elapsed = time.perf_counter() - START
        workload.close()
        print(repr(elapsed))
        return 0

    report = {"workload": args.workload, "trace": args.trace}
    run = traced if args.trace else end_to_end
    phase, errors, metrics = run(workload, args.workload, args.seed, args.seconds, report)
    # A wrong answer is a failed operation, like one that raised.
    failed = min(phase.attempted, phase.attempted - phase.completed + len(errors))
    correct = failed == 0
    report.update(
        error_rate=failed / phase.attempted,
        failures=(phase.failures + errors)[:20],
        provenance=provenance(args.seed),
    )
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
