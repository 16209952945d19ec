"""Benchmark for the seqmine CLI: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload gsp-gap --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, both modes
    python3 perfbench/run.py --self-test      # the checks reject corrupted outputs

``--trace 0`` reports the end-to-end metrics, measured on ``python -m
seqmine`` subprocesses with tracing off; ``--trace 1`` reports the per-layer
metrics from traced runs of the same CLI and a memory pass. The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``BENCHMARK.json`` names the workloads, the
metrics with their units, and the default ``--seconds``. Inputs, results and
traces go to ``.bench_work/``.
Exit status: 0 when every output check passed, 1 when one failed, 2 when the
source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def _parser(spec: dict) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", default="all", help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                   help="measured time per run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    p.add_argument("--self-test", action="store_true",
                   help="show that every check rejects a corrupted output, then exit")
    return p


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(spec: dict, workload, seed: int, seconds: float, trace: int) -> dict:
    """One run; prints the human-readable report and returns the result."""
    from harness import Run, end_to_end, machine_facts, per_layer

    run = Run(workload, seed, ROOT, WORK)
    traces: list = []
    try:
        if trace:
            metrics = per_layer(run, seconds, traces)
        else:
            metrics = end_to_end(run, seconds)
    finally:
        run.cleanup()
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    correct = run.failed == 0 and not run.problems
    result = {
        "workload": workload.name, "seed": seed, "trace": trace, "seconds": seconds,
        "input_sha256": run.sha256, "input_records": run.records,
        "machine": machine_facts(),
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "failed_share": run.failed / run.attempted if run.attempted else 0.0,
        "problems": run.problems, "metrics": metrics, "samples": run.samples,
    }
    stem = f"{run.stem}-trace{trace}"
    if trace:
        result["split_of_wall_s"] = run.split
        with open(WORK / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for tracer in traces:
                tracer.write(handle)
    (WORK / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"== {workload.name} seed={seed} trace={trace} input_sha256={run.sha256} "
          f"records={run.records}")
    print("   machine: " + " ".join(f"{k}={v}" for k, v in result["machine"].items()))
    for name, m in metrics.items():
        print(f"   {name:<38} {_fmt(m['value']):>14} {m['unit']}")
    print(f"   {'failed_share':<38} {_fmt(result['failed_share']):>14} share "
          f"({run.failed} of {run.attempted})")
    if trace:
        print("   share of wall_s: " + " ".join(f"{k}={v:.1%}" for k, v in run.split.items()))
    for problem in run.problems:
        print(f"   problem: {problem}")
    return result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parser(spec).parse_args(argv)
    if not (SRC / "seqmine" / "__init__.py").is_file():
        print(f"error: no seqmine source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        from selftest import main as self_test

        return self_test(ROOT, WORK)
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        chosen = [WORKLOADS[name] for name in names]
    elif args.workload in names:
        chosen = [WORKLOADS[args.workload]]
    else:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)} or all", file=sys.stderr)
        return 2
    modes = [args.trace] if args.trace is not None else [0, 1]
    results = [run_one(spec, w, args.seed, args.seconds, t) for w in chosen for t in modes]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
