"""The four workloads: input, command, and the check that judges its output.

Why each workload is there is said in ``BENCHMARK.json``. Each is sized so that one CLI run takes about two seconds on a 2-CPU
machine, which leaves several repetitions per measured run. All run
single-process with ``SEQMINE_THREADS`` at its default of 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
from tracing import cli_output

# Runs the CLI on argv and returns its stdout; raises if it exits non-zero.
CliOutput = Callable[[list[str]], bytes]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple[str, ...]
    generate: Callable[[int, int], str]
    size: int
    self_test_size: int
    # (parsed CLI args, input path, input text, CLI runner) -> output check
    checker: Callable[..., checks.Check]

    def argv(self, input_path: Path) -> list[str]:
        return [self.command, str(input_path), *self.flags]


def _swap(argv: list[str], flag: str, value: str | None) -> list[str]:
    """argv with ``flag``'s value replaced, or the flag removed when None."""
    i = argv.index(flag)
    if value is None:
        return argv[:i] + argv[i + 1:]
    return argv[: i + 1] + [value] + argv[i + 2:]


def _gsp_check(args, path: Path, text: str, cli: CliOutput) -> checks.Check:
    argv = _swap(["mine-seq", str(path), *GSP_GAP.flags], "--algo", "prefixspan")
    return checks.equal_bytes_checker("GSP output vs PrefixSpan output", cli(argv))


def _closed_check(args, path: Path, text: str, cli: CliOutput) -> checks.Check:
    return checks.closed_checker(cli(_swap(CLOSED_MOTIFS.argv(path), "--closed", None)))


def _stream_check(args, path: Path, text: str, cli: CliOutput) -> checks.Check:
    guarantees = checks.StreamGuarantees(path, args)
    return checks.stream_checker(cli_output(STREAM_LOSSY.argv(path)), guarantees)


def _itemsets_check(args, path: Path, text: str, cli: CliOutput) -> checks.Check:
    return checks.itemsets_checker(text, args)


GSP_GAP = Workload(
    "gsp-gap",
    "mine-seq",
    # at 1% support every 2-pattern is frequent, so every seed counts the
    # same 1116 candidates and only the data differs
    ("--algo", "gsp", "--max-gap", "3", "--max-length", "3", "--min-support", "0.01"),
    inputs.baseline_sequences,
    800,
    150,
    _gsp_check,
)

CLOSED_MOTIFS = Workload(
    "closed-motifs",
    "mine-seq",
    ("--algo", "prefixspan", "--closed", "--max-length", "8", "--min-support", "0.03"),
    inputs.planted_motif_sequences,
    4000,
    600,
    _closed_check,
)

STREAM_LOSSY = Workload(
    "stream-lossy",
    "mine-stream",
    ("--sigma", "0.08", "--epsilon", "0.02", "--batch-size", "200", "--max-length", "5"),
    inputs.baseline_sequences,
    6000,
    1000,
    _stream_check,
)

ITEMSETS_RULES = Workload(
    "itemsets-rules",
    "mine-itemsets",
    ("--min-support", "0.005", "--min-confidence", "0.5"),
    inputs.baskets,
    15000,
    2000,
    _itemsets_check,
)

WORKLOADS = {w.name: w for w in (GSP_GAP, CLOSED_MOTIFS, STREAM_LOSSY, ITEMSETS_RULES)}
