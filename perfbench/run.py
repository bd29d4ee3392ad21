"""Seeded benchmark for evdetect.

Run from the repository root:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 15 --trace 0

Workloads are `replay` and `fleet` (see perfbench/README.md). The run
generates its inputs from `--seed` in a child process, measures the named
workload for about `--seconds`, checks the program's outputs, prints a readable
report and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json; with
`--trace 1` they are its per-layer metrics, from the layer-by-layer traced run
(perfbench/traced.py). The full result, with run metadata and the raw samples
behind every median, is written under `.perfbench/results/`.

Exit status: 0 when every correctness check passed, 1 when one failed (the
JSON line is still printed, with "correct": false), 2 when the benchmark
cannot run here (no `src/evdetect` next to it, or bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import common

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(common.ROOT, ".perfbench")
GEN_TIMEOUT_S = 600


def contract() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def generate_inputs(seed: int, workloads: list[str], work: str) -> dict:
    """Run gen.py in a child process and wait for it."""
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--seed", str(seed), "--out", work, "--workloads", *workloads],
        check=True,
        stdout=sys.stderr,
        timeout=GEN_TIMEOUT_S,
    )
    with open(os.path.join(work, "inputs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Seeded benchmark for evdetect.")
    ap.add_argument("--workload", required=True, choices=("replay", "fleet"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.source_present():
        print(f"perfbench: no evdetect source under {common.SRC}; nothing to measure", file=sys.stderr)
        return 2
    spec = contract()
    import traced  # these import evdetect, so only once the source is known to be there
    import workloads

    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR)
    try:
        wanted = ["replay", "fleet"] if args.trace else [args.workload]
        started = time.perf_counter()
        info = generate_inputs(args.seed, wanted, work)
        gen_s = time.perf_counter() - started
        checks, ops = common.Checks(), common.Ops()
        if args.trace:
            spans = os.path.join(OUT_DIR, "results", f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
            result = traced.run(args.workload, work, args.seconds, checks, ops, spans)
            spec_metrics = spec["per_layer"]
        else:
            result = workloads.RUNNERS[args.workload](work, args.seconds, checks, ops)
            spec_metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in spec_metrics if m["name"] not in result.metrics]
    if missing:
        checks.record("metrics_complete", False, f"not measured: {missing}")
    metrics = {
        m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
        for m in spec_metrics
        if m["name"] in result.metrics
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": checks.ok,
        "checks": checks.results,
        "operations": ops.as_dict(),
        "failed_frac": ops.failed / max(ops.attempted, 1),
        "metrics": metrics,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in result.named.items()},
        "sizes": result.sizes,
        "inputs": info,
        "input_generation_s": gen_s,
        "meta": common.run_metadata(),
        "samples": result.samples,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, "results", name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"# {name}: {'correct' if checks.ok else 'INCORRECT'}; full result in .perfbench/results/{name}.json")
    for failure in checks.failures():
        print(f"# check failed: {failure}")
    for op, c in ops.as_dict().items():
        print(f"#   op {op:<12} attempted {c['attempted']:>8}  failed {c['failed']:>4}")
    print(f"#   failed_frac {record['failed_frac']:.6g} ({ops.failed}/{ops.attempted})")
    if not args.trace:
        print("#   raw values below; the result line has times rescaled to the nominal host")
    for key, (value, unit) in result.named.items():
        print(f"#   {key:<32} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {"correct": checks.ok, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
        )
    )
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
