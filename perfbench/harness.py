"""One benchmark run of one workload.

With ``trace=0`` it measures the end-to-end metrics on the real CLI
(``python -m seqmine``), each repetition a fresh subprocess with tracing
off. With ``trace=1`` it repeats traced runs of the same CLI (``traced.py``,
also a fresh subprocess), then makes one memory pass, and reports the per-layer
metrics. Input generation, the output
checks and the memory pass stay outside every timed region. Every timed
child is scaled to the reference CPU speed (``speed.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from seqmine import cli as seqmine_cli

from speed import SpeedScale
from tracing import Tracer
from workloads import Workload

SETUP_RUNS = 7
MIN_REPS = 3
MIN_TRACED = 2
CLI_TIMEOUT_S = 120.0


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "SEQMINE_THREADS": "unset, so the default of 1",
    }


def child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
    env.pop("SEQMINE_THREADS", None)
    return env


@dataclass
class CliRun:
    returncode: int
    wall_s: float
    rss_mb: float
    result_times: list[float]  # seconds from spawn at which each result arrived
    stdout: bytes
    stderr: str


# how often the child's memory high-water mark is read while it runs
HWM_POLL_S = 0.02


def _pinner(cpu: int | None):
    return None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))


def _vm_hwm_kb(pid: int) -> int | None:
    """The process's peak resident set (``VmHWM``), which starts afresh at
    exec; ``ru_maxrss`` does not, and would report this process's size
    whenever that is larger than the child's."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def run_cli(argv: list[str], env: dict, cwd: Path, streaming: bool,
            cpu: int | None = None) -> CliRun:
    """Spawn ``python -m seqmine argv`` (on ``cpu`` when given), timestamp
    results as they arrive on stdout, and follow the child's ``VmHWM`` until
    it exits (``ru_maxrss`` from ``wait4`` where there is no ``/proc``)."""
    out = bytearray()
    times: list[float] = []
    scan = 0
    hwm_kb = None
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "seqmine", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd,
        preexec_fn=_pinner(cpu),
    ) as proc:
        try:
            fds = {proc.stdout.fileno(): out, proc.stderr.fileno(): bytearray()}
            err = fds[proc.stderr.fileno()]
            while fds:
                remaining = start + CLI_TIMEOUT_S - perf_counter()
                if remaining <= 0:
                    raise TimeoutError(f"seqmine {argv[0]} ran over {CLI_TIMEOUT_S} s")
                ready, _, _ = select.select(list(fds), [], [], min(remaining, HWM_POLL_S))
                hwm_kb = _vm_hwm_kb(proc.pid) or hwm_kb
                for fd in ready:
                    chunk = os.read(fd, 1 << 16)
                    now = perf_counter() - start
                    if not chunk:
                        del fds[fd]
                        continue
                    fds[fd] += chunk
                    if fds[fd] is not out:
                        continue
                    if not streaming:
                        if not times:
                            times.append(now)
                        continue
                    while (nl := out.find(b"\n", scan)) != -1:
                        if out.startswith(b"#", scan):
                            times.append(now)
                        scan = nl + 1
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return CliRun(proc.returncode, wall, (hwm_kb or usage.ru_maxrss) / 1024, times or [wall],
                  bytes(out), err.decode(errors="replace"))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Run:
    """One run's input (generated and written under ``work``), its CLI
    runner, its output verdicts and its counts of attempts and failures."""

    workload: Workload
    seed: int
    root: Path
    work: Path
    input_path: Path = field(init=False)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    split: dict = field(default_factory=dict)
    cli_sha256: str = ""

    def __post_init__(self):
        wl = self.workload
        self.text = wl.generate(wl.size, self.seed)
        self.sha256 = hashlib.sha256(self.text.encode()).hexdigest()
        self.work.mkdir(parents=True, exist_ok=True)
        stem = f"{wl.name}-seed{self.seed}"
        self.input_path = self.work / f"{stem}.csv"
        self.input_path.write_text(self.text, encoding="utf-8")
        self.one_line_path = self.work / f"{stem}-one.csv"
        # the shortest line, so the one-line run is fixed cost and no mining
        shortest = min(self.text.splitlines(), key=lambda line: (len(line.split()), line))
        self.one_line_path.write_text(shortest + "\n", encoding="utf-8")
        self.stem = stem
        self.env = child_env(self.root / "src")
        self.streaming = wl.command == "mine-stream"
        self.args = seqmine_cli.build_parser().parse_args(wl.argv(self.input_path))
        self.records = self._count_records()
        self._verdicts: dict[bytes, list[str]] = {}
        self._check = None

    def _count_records(self) -> int:
        """Baskets (one per line) or sequences (distinct seq_ids)."""
        if self.workload.command == "mine-itemsets":
            return len(self.text.splitlines())
        return len({line.split(",", 1)[0] for line in self.text.splitlines()})

    def cli(self, argv: list[str], speed: SpeedScale | None = None) -> CliRun:
        """Run the CLI; with ``speed``, on its current CPU while this process
        waits elsewhere."""
        if speed is None:
            run = run_cli(argv, self.env, self.root, self.streaming)
        else:
            with speed.elsewhere():
                run = run_cli(argv, self.env, self.root, self.streaming, speed.cpu)
        self.attempted += 1
        if run.returncode != 0:
            self.failed += 1
            self.problems.append(f"seqmine {argv[0]} exited {run.returncode}: {run.stderr.strip()}")
        return run

    def _reference_output(self, argv: list[str]) -> bytes:
        run = self.cli(argv)
        if run.returncode != 0:
            raise RuntimeError(self.problems[-1])
        return run.stdout

    def judge(self, out: bytes) -> bool:
        """Check one output; equal outputs are checked once."""
        if self._check is None:
            self._check = self.workload.checker(
                self.args, self.input_path, self.text, self._reference_output
            )
        key = hashlib.sha256(out).digest()
        if key not in self._verdicts:
            self._verdicts[key] = self._check(out)
            self.problems.extend(self._verdicts[key][:5])
        return not self._verdicts[key]

    def count_outputs(self, outputs: list[bytes]) -> None:
        for out in outputs:
            if not self.judge(out):
                self.failed += 1

    def cleanup(self) -> None:
        self.input_path.unlink(missing_ok=True)
        self.one_line_path.unlink(missing_ok=True)


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    wl = run.workload
    one_line = wl.argv(run.one_line_path)
    run.cli(one_line)  # warm-up: bytecode caches, file cache
    speed = SpeedScale()
    setups: list[tuple[float, float]] = []  # (raw wall, factor)
    reps: list[tuple[CliRun, float]] = []
    started = perf_counter()
    # setup runs interleave with the measured runs, so that both sample the
    # whole window
    while len(reps) < MIN_REPS or perf_counter() - started < seconds:
        speed.next_cpu()
        before = speed.calibrate()
        rep = run.cli(wl.argv(run.input_path), speed)
        between = speed.calibrate()
        setup = run.cli(one_line, speed)
        after = speed.calibrate()
        reps.append((rep, speed.factor(before, between)))
        setups.append((setup.wall_s, speed.factor(between, after)))
    while len(setups) < SETUP_RUNS:
        before = speed.calibrate()
        setup = run.cli(one_line, speed)
        setups.append((setup.wall_s, speed.factor(before, speed.calibrate())))
    run.count_outputs([r.stdout for r, _ in reps if r.returncode == 0])
    walls = [r.wall_s * k for r, k in reps]
    intervals = [(b - a) * k for r, k in reps
                 for a, b in zip([0.0] + r.result_times, r.result_times)]
    run.samples = {
        "raw_wall_s": [r.wall_s for r, _ in reps], "wall_factor": [k for _, k in reps],
        "raw_setup_s": [w for w, _ in setups], "setup_factor": [k for _, k in setups],
        "peak_rss_mb": [r.rss_mb for r, _ in reps], "calibration_s": speed.calibrations,
    }
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(w * k for w, k in setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r, _ in reps),
        "seqs_per_s": statistics.median(run.records / w for w in walls),
        "report_interval_p50_ms": percentile(intervals, 50) * 1e3,
        "report_interval_p80_ms": percentile(intervals, 80) * 1e3,
    }


def traced_child(run: Run, mode: str, run_id: int, speed: SpeedScale | None = None) -> dict:
    """One traced CLI run in a fresh interpreter (``traced.py``); its output
    must hash the same as the CLI's. ``spawned`` in the report is the spawn
    time on the clock the child's spans use."""
    script = Path(__file__).with_name("traced.py")
    argv = [sys.executable, str(script), mode, str(run_id), "--",
            *run.workload.argv(run.input_path)]
    cpu = speed.cpu if speed else None
    spawned = perf_counter()
    with speed.elsewhere() if speed else nullcontext():
        done = subprocess.run(argv, capture_output=True, env=run.env, cwd=run.root,
                              timeout=CLI_TIMEOUT_S, check=False, preexec_fn=_pinner(cpu))
    run.attempted += 1
    if done.returncode != 0:
        run.failed += 1
        run.problems.append(f"traced.py {mode} exited {done.returncode}: "
                            f"{done.stderr.decode(errors='replace').strip()[-300:]}")
        return {}
    report = json.loads(done.stdout)
    report["spawned"] = spawned
    if report["sha256"] != run.cli_sha256:
        run.failed += 1
        run.problems.append(f"traced.py {mode} output differs from the CLI output")
    if report.get("info", {}).get("model.support.mismatches"):
        run.failed += 1
        run.problems.append("model.support disagrees with the mined counts")
    return report


def per_layer(run: Run, seconds: float, traces: list[Tracer]) -> dict[str, float]:
    """Per-layer medians over traced children. A child's wall is from its
    spawn to the end of its ``cli`` root span (``perf_counter`` is one
    monotonic clock across processes), so the residual and the split are
    taken within one run, not across runs on a drifting CPU."""
    wl = run.workload
    first = run.cli(wl.argv(run.input_path))  # warm-up, and the output to compare with
    run.cli_sha256 = hashlib.sha256(first.stdout).hexdigest()
    run.count_outputs([first.stdout] if first.returncode == 0 else [])
    speed = SpeedScale()
    factors: list[float] = []
    walls: list[float] = []
    info: dict = {}
    tree: dict = {}
    started = perf_counter()
    while len(traces) < MIN_TRACED or perf_counter() - started < seconds:
        speed.next_cpu()
        before = speed.calibrate()
        report = traced_child(run, "spans", len(traces), speed)
        factors.append(speed.factor(before, speed.calibrate()))
        tracer = Tracer(len(traces))
        tracer.spans = report.get("spans", [])
        traces.append(tracer)
        roots = [end for name, _, end, parent in tracer.spans if name == "cli" and parent is None]
        walls.append(((roots[0] - report["spawned"]) if roots else 0.0) * factors[-1])
        info = report.get("info", info)
        tree = report.get("tree", tree)
    # the memory pass is slow under tracemalloc and times nothing
    memory = traced_child(run, "memory", len(traces)).get("memory", {})
    run.samples = {"traced_wall_s": walls, "trace_factor": factors,
                   "calibration_s": speed.calibrations}

    def scaled_totals(root: str, top: bool = False) -> list[dict[str, float]]:
        return [{k: v * f for k, v in t.totals(root, top).items()} for t, f in zip(traces, factors)]

    cli_medians = _medians(scaled_totals("cli"))
    cli_top = scaled_totals("cli", top=True)
    probe_medians = _medians(scaled_totals("probe"))

    def med(name: str, medians=cli_medians) -> float:
        return medians.get(name, 0.0)

    def pooled_ms(name: str, q: float) -> float:
        return percentile([d * f for t, f in zip(traces, factors) for d in t.durations(name)], q) * 1e3

    def mb(layer: str) -> float:
        return memory.get("alloc_peak", {}).get(layer, 0) / 2**20

    gsp_s = med("sequences.gsp_mine")
    ps_s = med("sequences.prefixspan_mine") or med("sequences.prefixspan_mine", probe_medians)
    support_s = med("model.support", probe_medians)
    itemset_candidates = info.get("items", 0) + memory.get("generated_candidates", 0)
    metrics = {
        "dataset.load_s": med("dataset.load"),
        "dataset.iter_s": med("dataset.iter"),
        "dataset.lines_per_s": _ratio(len(run.text.splitlines()), med("dataset.load") + med("dataset.iter")),
        "dataset.alloc_peak_mb": mb("dataset"),
        "model.contains_per_s": _ratio(info.get("model.support.calls", 0), support_s),
        "model.contains_calls": memory.get("contains_calls", 0),
        "sequences.gsp_mine_s": gsp_s,
        "sequences.gsp.candidates": info.get("sequences.gsp.candidates", 0),
        "sequences.gsp.frequent_ratio": _ratio(
            info.get("sequences.gsp.patterns", 0), info.get("sequences.gsp.candidates", 0)),
        "sequences.prefixspan_mine_s": ps_s,
        "sequences.prefixspan.candidates": info.get("sequences.prefixspan.candidates", 0),
        "sequences.prefixspan.frequent_ratio": _ratio(
            info.get("sequences.prefixspan.patterns", 0), info.get("sequences.prefixspan.candidates", 0)),
        "sequences.gsp_over_prefixspan": _ratio(gsp_s, ps_s) if gsp_s else 0.0,
        "sequences.filter_closed_s": med("sequences.filter_closed"),
        "sequences.closed.kept_ratio": _ratio(
            info.get("sequences.closed.kept", 0), info.get("sequences.closed.before", 0)),
        "sequences.alloc_peak_mb": mb("sequences"),
        "stream.process_batch_p50_ms": pooled_ms("stream.process_batch", 50),
        "stream.process_batch_p80_ms": pooled_ms("stream.process_batch", 80),
        "stream.query_output_p50_ms": pooled_ms("stream.query_output", 50),
        "stream.flush_s": med("stream.flush"),
        "stream.tree_nodes_max": tree.get("tree_nodes_max", 0),
        "stream.tree_bytes_max": tree.get("tree_bytes_max", 0),
        "stream.nodes_inserted": tree.get("nodes_inserted", 0),
        "stream.nodes_evicted": tree.get("nodes_evicted", 0),
        "stream.alloc_peak_mb": mb("stream"),
        "itemsets.mine_s": med("itemsets.mine"),
        "itemsets.candidates": itemset_candidates,
        "itemsets.frequent_ratio": _ratio(info.get("itemsets.frequent", 0), itemset_candidates),
        "itemsets.rules_s": med("itemsets.rules"),
        "itemsets.rules": info.get("itemsets.rules", 0),
        "itemsets.alloc_peak_mb": mb("itemsets"),
        "textfmt.format_s": med("textfmt.format"),
        "textfmt.lines": info.get("textfmt.lines", 0),
        "textfmt.alloc_peak_mb": mb("textfmt"),
        "cli.residual_s": statistics.median(w - sum(t.values()) for w, t in zip(walls, cli_top)),
    }
    # shares of wall_s by layer, from the top-level spans only, so that a
    # call made inside another (query_output in flush) is not counted twice
    run.split = {
        layer: statistics.median(
            _ratio(sum(v for k, v in t.items() if k.startswith(layer + ".")), w)
            for w, t in zip(walls, cli_top))
        for layer in ("dataset", "sequences", "stream", "itemsets", "textfmt", "probe")
    }
    run.split["cli.residual"] = statistics.median(
        _ratio(w - sum(t.values()), w) for w, t in zip(walls, cli_top))
    return metrics


def _medians(totals: list[dict[str, float]]) -> dict[str, float]:
    names = {k for t in totals for k in t}
    return {k: statistics.median(t.get(k, 0.0) for t in totals) for k in names}
