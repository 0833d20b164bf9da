"""Self-test of the benchmark, and the recorder of its expected outputs.

    python3 perfbench/selftest.py            # smoke: minimal sizes, seconds
    python3 perfbench/selftest.py --record   # rewrite expected.json (minutes)

The smoke mode runs every workload at its minimal size with seed 0, one
untraced and two traced batches, and fails unless each batch's output
digest and the traced work counts equal the values recorded in
``expected.json``, and every metric ``BENCHMARK.json`` names is produced.
It does not replace the full runs of ``run.py``.

``--record`` reruns every workload at full size for each of the seed
variants and stores the digest of its outputs, after checking that no op
failed, plus the smoke digests and counts.  Record only from code whose
outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, ROOT, Run, end_to_end, per_layer, select
from program import build
from workloads import VARIANTS, make_workloads

SMOKE_SEED = 0


def smoke(name: str, digest):
    """Run one minimal workload; return its digest, counts and all metrics."""
    workload = make_workloads("smoke")[name]
    run = Run(workload, SMOKE_SEED, 0.0, digest)
    setups = [run.setup()]
    plain, traced, _, counts, times = run.measure_traced()
    layer, extra = per_layer(plain, traced, counts, times)
    e2e, _ = end_to_end(workload, plain, setups)
    return run, {**layer, **e2e}, extra


def check() -> int:
    expected = json.loads((HERE / "expected.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(make_workloads()):
        problems.append("BENCHMARK.json workloads differ from the runner's")
    for name in make_workloads("smoke"):
        found = len(problems)
        run, metrics, extra = smoke(name, expected["smoke"]["digests"][name])
        if run.failed or run.mismatches or run.errors:
            problems.append(f"{name}: {run.failed} failed ops, digests {run.mismatches}, {run.errors}")
        if extra["counts"] != expected["smoke"]["counts"][name] or not extra["counts_repeat"]:
            problems.append(f"{name}: work counts differ from the recorded ones")
        try:
            select(spec["end_to_end"] + spec["per_layer"], metrics)
        except (KeyError, RuntimeError) as exc:
            problems.append(f"{name}: metric {exc} not produced")
        print(f"{name}: {run.attempted} ops, {'ok' if len(problems) == found else 'FAIL'}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def record() -> int:
    out = {"variants": VARIANTS, "digests": {}, "smoke": {"seed": SMOKE_SEED, "digests": {}, "counts": {}}}
    for name, workload in make_workloads().items():
        digests = []
        for variant in range(VARIANTS if workload.seeded else 1):
            run = Run(workload, variant, 0.0, None)
            run.setup()
            batch = run.batch()
            if batch.failed or run.errors:
                print(f"{name} variant {variant}: {batch.failed} failed ops {run.errors}", file=sys.stderr)
                return 1
            digests.append(batch.digest)
            print(f"{name} variant {variant}: {batch.digest[:16]} ({batch.wall_s:.2f} s)", flush=True)
        out["digests"][name] = digests * (VARIANTS // len(digests))
        run, _, extra = smoke(name, None)
        if run.failed or run.errors or len(set(run.digests)) != 1 or not extra["counts_repeat"]:
            print(f"{name} smoke: failed ops, or outputs or counts that do not repeat", file=sys.stderr)
            return 1
        out["smoke"]["digests"][name] = run.digests[0]
        out["smoke"]["counts"][name] = extra["counts"]
    (HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args()
    build(ROOT)
    return record() if args.record else check()


if __name__ == "__main__":
    sys.exit(main())
