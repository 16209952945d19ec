"""Child process for the traced run: one instrumented run of the real CLI.

    python3 perfbench/traced.py spans|memory RUN_ID -- <seqmine argv>

It runs in a fresh interpreter, like the CLI subprocess it is compared with,
so its spans are not skewed by the benchmark's own heap. Both modes call
``seqmine.cli.main`` with its layer functions rebound to probes
(``tracing.instrumented``) and capture what it writes to stdout. ``spans``
records a span around every layer call and samples the stream's tree
between batches, then (for ``mine-seq``) runs the probes under a separate
root. ``memory`` makes the memory pass under ``tracemalloc``, with call
counters on ``model.contains`` and ``itemsets.generate_candidates``.
Prints one JSON object: the output's sha256, the spans or the memory
figures, and the layers' counts.
"""

from __future__ import annotations

import hashlib
import json
import sys

from seqmine import cli as seqmine_cli
from seqmine import itemsets, model
from seqmine.sequences import prefixspan_mine

from tracing import MemoryProbe, Tracer, cli_output, counting, instrumented, tracing_memory

# model.support probe: at most this many contains() calls
SUPPORT_PROBE_CALLS = 150_000


def _supports(patterns, db, constraints) -> list[int]:
    return [model.support(sp.pattern, db, constraints).count for sp in patterns]


def _final_result(tracer: Tracer, args):
    if args.closed:
        return tracer.last["sequences.filter_closed"]
    return tracer.last[f"sequences.{args.algo}_mine"]


def layer_counts(tracer: Tracer, args) -> dict:
    """Counts from the results the CLI's layer calls returned."""
    found = {"textfmt.lines": tracer.lines}
    if args.command == "mine-seq":
        mined = tracer.last[f"sequences.{args.algo}_mine"]
        found[f"sequences.{args.algo}.candidates"] = mined.stats.candidates_generated
        found[f"sequences.{args.algo}.patterns"] = len(mined.patterns)
        if args.closed:
            found["sequences.closed.before"] = len(mined.patterns)
            found["sequences.closed.kept"] = len(_final_result(tracer, args).patterns)
    elif args.command == "mine-itemsets":
        found["items"] = len(tracer.last["dataset.load"][1])
        found["itemsets.frequent"] = len(tracer.last["itemsets.mine"])
        if "itemsets.rules" in tracer.last:
            found["itemsets.rules"] = len(tracer.last["itemsets.rules"])
    return found


def probes(tracer: Tracer, args) -> dict:
    """``model.support`` over evenly spaced output patterns and, for GSP,
    PrefixSpan on the same input."""
    db = tracer.last["dataset.load"]
    constraints = seqmine_cli._build_constraints(args)
    found = {}
    if args.algo == "gsp":
        ps = tracer.call("sequences.prefixspan_mine", prefixspan_mine, db, constraints)
        found["sequences.prefixspan.candidates"] = ps.stats.candidates_generated
        found["sequences.prefixspan.patterns"] = len(ps.patterns)
    patterns = _final_result(tracer, args).patterns
    k = max(1, min(len(patterns), SUPPORT_PROBE_CALLS // len(db)))
    chosen = [patterns[i * len(patterns) // k] for i in range(k)] if patterns else []
    counts = tracer.call("model.support", _supports, chosen, db, constraints)
    found["model.support.calls"] = len(chosen) * len(db)
    found["model.support.mismatches"] = sum(a != sp.count for a, sp in zip(counts, chosen))
    return found


def main(argv: list[str]) -> int:
    mode, run_id, sep, *cli_argv = argv
    if sep != "--" or mode not in ("spans", "memory"):
        print(__doc__, file=sys.stderr)
        return 2
    args = seqmine_cli.build_parser().parse_args(cli_argv)
    report: dict = {}
    if mode == "spans":
        tracer = Tracer(int(run_id))
        with instrumented(tracer):
            out = tracer.call("cli", cli_output, cli_argv)
        info = layer_counts(tracer, args)
        if args.command == "mine-seq":
            info.update(tracer.call("probe", probes, tracer, args))
        report["spans"] = tracer.spans
        report["tree"] = tracer.tree.as_dict()
        report["info"] = info
    else:
        memory = MemoryProbe()
        with tracing_memory(), counting(model.contains) as contains, \
                counting(itemsets.generate_candidates, sized=True) as candidates, \
                instrumented(memory):
            out = cli_output(cli_argv)
        report["memory"] = {
            "alloc_peak": memory.alloc_peak,
            "contains_calls": contains.calls,
            "generated_candidates": candidates.result_items,
        }
    report["sha256"] = hashlib.sha256(out).hexdigest()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
