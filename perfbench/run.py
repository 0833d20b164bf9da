"""Benchmark runner for tropical-kummer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-hex --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 35 --trace 1

One run repeats the workload's fixed batch in one process, closed loop,
for the whole number of batches (at least three) that takes closest to
``--seconds``.  Set-up (importing the package from ``src`` afresh and
building the workload's inputs from the seed) is timed several times,
spread over the run.
Every batch's outputs are hashed and compared with the digest recorded in
``perfbench/expected.json``; a mismatch fails every op of the batch.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics, including the tracing overhead.  The last line of
standard output is the result as one JSON object; a fuller record, with the
run's provenance, is written under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import Calibrator, clock
from program import Program, ProgramMissingError, build, source_digest
from tracing import TIES, Tracer, layer_metrics
from workloads import CHECK_NAMES, VARIANTS, Batch, make_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
MIN_BATCHES = 3
SETUP_REPS = 7
# No batch starts once a run could no longer finish inside this many seconds.
RUN_LIMIT_S = 150.0
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def tie(metric: str) -> str:
    """The end-to-end metric and workload a per-layer metric should move."""
    layers = [k for k in TIES if metric.startswith(k + ".")]
    return "-> " + TIES[max(layers, key=len)] if layers else ""


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git; None outside git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def peak_rss_mb(spawns: bool) -> float:
    """Peak RSS of the process doing the program's work: the largest spawned
    child for a workload that spawns, else this process."""
    who = resource.RUSAGE_CHILDREN if spawns else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Run:
    """One workload in one process: set-up, batches, digests and metrics."""

    def __init__(self, workload, seed: int, seconds: float, expected_digest):
        self.workload = workload
        self.variant = seed % VARIANTS
        self.seconds = seconds
        self.expected_digest = expected_digest
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.mismatches: list[str] = []
        self.errors: list[str] = []

    def setup(self) -> float:
        """Import the package afresh and build the inputs; return the time,
        scaled to the reference speed."""
        cal = Calibrator()
        cal.begin()
        start = clock()
        self.program = Program.load(ROOT)
        self.inputs = self.workload.make_inputs(self.program, self.variant, ROOT)
        elapsed = clock() - start
        cal.op(elapsed)
        return cal.end(elapsed)[1]

    def batch(self, tracer=None) -> Batch:
        """One checked batch; a raised error or a digest mismatch fails every op."""
        if tracer is not None:
            tracer.install()
        try:
            result = self.workload.run_batch(self.program, self.inputs, tracer)
        except Exception as exc:  # the run goes on and reports the failure
            self.errors.append(f"{type(exc).__name__}: {exc}")
            n = self.workload.ops
            result = Batch(0.0, [], n, n, "error")
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.digests.append(result.digest)
        if self.expected_digest is not None and result.digest != self.expected_digest:
            self.mismatches.append(result.digest)
            result.failed = result.attempted
        self.attempted += result.attempted
        self.failed += result.failed
        return result

    def _done(self, start: float, last: Batch, batches: int) -> bool:
        """Stop at the whole number of batches, at least MIN_BATCHES, that
        ends nearest ``seconds``."""
        elapsed = clock() - start
        if elapsed + last.wall_s >= RUN_LIMIT_S:
            return True
        return batches >= MIN_BATCHES and elapsed + last.wall_s / 2 >= self.seconds

    def measure(self) -> tuple[list[Batch], list[float]]:
        """Batches, with SETUP_REPS set-ups spread evenly over the run.

        Every re-import leaves a little memory behind, so the number of
        set-ups is fixed: peak RSS must not depend on how many batches fit.
        """
        start = clock()
        batches, setups = [], []
        while not batches or not self._done(start, batches[-1], len(batches)):
            due = (clock() - start) * SETUP_REPS / max(self.seconds, 1.0)
            if len(setups) < min(SETUP_REPS, 1 + due):
                setups.append(self.setup())
            batches.append(self.batch())
        while len(setups) < SETUP_REPS:
            setups.append(self.setup())
        return batches, setups

    def measure_traced(self) -> tuple[list[Batch], list[Batch], Tracer, list[dict], dict]:
        """Alternate untraced and traced batches: at least one and two of each."""
        tracer = Tracer(self.program)
        plain, traced, counts = [], [], []
        times = {}
        start = clock()
        step = 0
        while True:
            if step % 3 == 0:  # U T T U T T ...
                last = self.batch()
                plain.append(last)
            else:
                last = self.batch(tracer)
                traced.append(last)
                counts.append(tracer.counts())
                for name, t in tracer.snapshot().items():
                    acc = times.setdefault(name, {"total": 0.0, "self": 0.0})
                    acc["total"] += t["total"]
                    acc["self"] += t["self"]
            step += 1
            if len(traced) >= 2 and self._done(start, last, len(plain) + len(traced)):
                return plain, traced, tracer, counts, times


def _completed(batches: list[Batch]) -> list[Batch]:
    return [b for b in batches if b.latencies_s]


def op_times(batches: list[Batch]) -> tuple[list[float], float]:
    """Each op's latency and the batch's wall time, as medians over the
    run's batches of times scaled to the reference speed (see
    ``calibrate``).  Every batch runs the same ops in the same order."""
    good = _completed(batches)
    if not good:
        raise RuntimeError("no batch completed")
    per_op = [statistics.median(op) for op in zip(*(b.scaled_s for b in good))]
    return per_op, statistics.median(b.scaled_wall_s for b in good)


def end_to_end(workload, batches: list[Batch], setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics.  Set-up runs in this process, so ``setup_s``
    is the median of its scaled times."""
    per_op, wall = op_times(batches)
    op_tail, percentile = tail(per_op)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": len(per_op) / wall,
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": op_tail * 1e3,
        "peak_rss_mb": peak_rss_mb(workload.spawns),
    }
    notes = {"op_tail_percentile": percentile, "op_tail_n": len(per_op), "batches_used": len(_completed(batches))}
    return metrics, notes


def per_layer(plain, traced, counts, times) -> tuple[dict, dict]:
    overhead = op_times(traced)[1] - op_times(plain)[1]
    plain, traced = _completed(plain), _completed(traced)
    metrics = layer_metrics(counts[0], times, len(counts))
    checks = [dict(zip(b.detail["checks"], b.scaled_s)) for b in plain if "checks" in b.detail]
    for name in CHECK_NAMES:
        metrics[f"verify.check.{name}_s"] = (
            statistics.median(c.get(name, 0.0) for c in checks) if checks else 0.0
        )
    probes = {"interp": [], "import": []}
    command = []
    for b in traced:
        for key, values in b.detail.get("probes", {}).items():
            probes[key] += values
        if "probes" in b.detail:
            command += b.latencies_s
    interp = statistics.median(probes["interp"]) * 1e3 if probes["interp"] else 0.0
    imp = statistics.median(probes["import"]) * 1e3 if probes["import"] else 0.0
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = imp
    metrics["cli.command_ms"] = statistics.median(command) * 1e3 - imp if command else 0.0
    metrics["trace.overhead_s"] = overhead
    repeat = all(c == counts[0] for c in counts[1:])
    return metrics, {"counts": counts[0], "counts_repeat": repeat}


def select(spec_metrics: list[dict], computed: dict) -> dict:
    out = {}
    for m in spec_metrics:
        value = computed[m["name"]]
        if value != value:
            raise RuntimeError(f"metric {m['name']} has no measurement")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run_one(args) -> int:
    try:
        build(ROOT)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ProgramMissingError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = make_workloads()[args.workload]
    expected = json.loads((HERE / "expected.json").read_text())
    run = Run(workload, args.seed, args.seconds, expected["digests"][workload.name][args.seed % VARIANTS])
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "variant": run.variant,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
        "nproc": os.cpu_count(),
        "ops_per_batch": workload.ops,
    }
    if args.trace:
        run.setup()
        plain, traced, tracer, counts, times = run.measure_traced()
        computed, extra = per_layer(plain, traced, counts, times)
        if not extra["counts_repeat"]:
            run.errors.append("work counts differ between traced batches")
        tracer.write_spans(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json.gz")
        metrics = select(spec["per_layer"], computed)
        record.update(extra, batches={"plain": len(plain), "traced": len(traced)}, ties=TIES)
        shown = [(n, v["value"], v["unit"], tie(n)) for n, v in metrics.items()]
    else:
        batches, setups = run.measure()
        computed, notes = end_to_end(workload, batches, setups)
        metrics = select(spec["end_to_end"], computed)
        record.update(
            notes,
            batches=len(batches),
            wall_s=[b.wall_s for b in batches],
            scaled_wall_s=[b.scaled_wall_s for b in batches],
            slowness=[b.slowness for b in batches],
            setup_s=setups,
        )
        shown = [(n, v["value"], v["unit"], "") for n, v in metrics.items()]
    correct = run.failed == 0 and not run.mismatches and not run.errors
    record.update(
        attempted=run.attempted,
        failed=run.failed,
        fail_frac=run.failed / run.attempted,
        expected_digest=run.expected_digest,
        mismatched_digests=run.mismatches,
        errors=run.errors,
        metrics=computed,
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(
        f"# {workload.name} seed={args.seed} variant={run.variant} "
        f"python={record['python']} nproc={record['nproc']} commit={record['commit']}"
    )
    for name, value, unit, moves in shown:
        print(f"{name:48s} {value:14.6g} {unit:6s} {moves}")
    if not args.trace:
        print(f"{'op_tail percentile':48s} p{record['op_tail_percentile']:.4g} of n={record['op_tail_n']}")
    print(f"{'fail_frac':48s} {record['fail_frac']:14.6g} ({run.failed}/{run.attempted}, digest {'ok' if not run.mismatches else 'MISMATCH'})")
    for err in run.errors:
        print(f"error: {err}", file=sys.stderr)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in make_workloads():
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*make_workloads(), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
