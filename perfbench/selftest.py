"""Self-test: every workload's check accepts the real output and rejects the
same output with one count off by one, and with one pattern line dropped.
For ``stream-lossy`` the two lossy-counting guarantees are also tried on
their own, without the comparison with the in-process run: they must reject
a count raised above its exact count, and a dropped pattern whose exact
support is at least sigma. Runs on reduced inputs in well under a minute.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from checks import StreamGuarantees, split_pattern_line
from harness import Run
from workloads import WORKLOADS


def _final_section(lines: list[str]) -> int:
    """Index of the first pattern line of the section the check reads: the
    last report for a stream, the whole output otherwise."""
    return max((i + 1 for i, line in enumerate(lines) if line.startswith("#")), default=0)


def _join(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def _target(lines: list[str]) -> int:
    """Index of the middle pattern line of the section the check reads."""
    candidates = [i for i in range(_final_section(lines), len(lines)) if " count=" in lines[i]]
    return candidates[len(candidates) // 2]


def count_off(out: bytes) -> bytes:
    lines = out.decode().splitlines()
    i = _target(lines)
    text, count, support = split_pattern_line(lines[i])
    lines[i] = f"{text} count={count + 1} support={support}"
    return _join(lines)


def drop_line(out: bytes) -> bytes:
    lines = out.decode().splitlines()
    del lines[_target(lines)]
    return _join(lines)


def count_above_exact(out: bytes, guarantees: StreamGuarantees) -> bytes:
    """The middle pattern of the final report, its count set one above its
    exact count."""
    lines = out.decode().splitlines()
    i = _target(lines)
    text, _, support = split_pattern_line(lines[i])
    lines[i] = f"{text} count={guarantees.exact[text] + 1} support={support}"
    return _join(lines)


def drop_must_report(out: bytes, guarantees: StreamGuarantees) -> bytes:
    """The final report without its last pattern of exact support >= sigma."""
    lines = out.decode().splitlines()
    i = max(i for i in range(_final_section(lines), len(lines))
            if guarantees.must_report(split_pattern_line(lines[i])[0]))
    del lines[i]
    return _join(lines)


def main(root: Path, work: Path) -> int:
    failures = 0

    def verdict(label: str, ok: bool) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label}")

    for workload in WORKLOADS.values():
        small = dataclasses.replace(workload, size=workload.self_test_size)
        run = Run(small, 7, root, work)
        try:
            cli_run = run.cli(small.argv(run.input_path))
            out = cli_run.stdout
            cases = [
                ("real output accepted", out, True),
                ("one count off rejected", count_off(out), False),
                ("one pattern dropped rejected", drop_line(out), False),
            ]
            for label, case, accept in cases:
                verdict(f"{workload.name}: {label}",
                        cli_run.returncode == 0 and run.judge(case) == accept)
            if workload.command == "mine-stream":
                guarantees = StreamGuarantees(run.input_path, run.args)
                cases = [
                    ("real output accepted", out, True),
                    ("count above its exact count rejected", count_above_exact(out, guarantees), False),
                    ("pattern of support >= sigma dropped rejected",
                     drop_must_report(out, guarantees), False),
                ]
                for label, case, accept in cases:
                    verdict(f"{workload.name} guarantees alone: {label}",
                            (not guarantees(case)) == accept)
        finally:
            run.cleanup()
    print(f"self-test: {failures} failure(s)")
    return 1 if failures else 0
