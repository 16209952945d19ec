"""Synthetic database generation and the benchmark harness.

The generator is seeded and documented so runs are reproducible: items are
drawn Zipf-ish (weight 1/rank), sequence lengths are geometric, timestamps
advance by small random steps.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from seqmine.model import (
    Alphabet,
    Constraints,
    DataSequence,
    SequenceDatabase,
    Transaction,
)
from seqmine.sequences import gsp_mine, prefixspan_mine
from seqmine.stream import StreamConfig, StreamState, flush, process_batch

BENCH_ALGOS = ("gsp", "prefixspan", "stream")


def generate_db(
    n_sequences: int,
    alphabet_size: int = 10,
    seed: int = 0,
    geometric_p: float = 0.45,
    max_txns: int = 8,
    max_items_per_txn: int = 3,
    id_prefix: str = "s",
) -> SequenceDatabase:
    """A reproducible synthetic database: Zipf-ish items, geometric lengths."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(alphabet_size)]
    population = list(range(alphabet_size))
    alphabet = Alphabet(f"i{k:02d}" for k in range(alphabet_size))
    sequences = []
    for s in range(n_sequences):
        n_txns = 1
        while n_txns < max_txns and rng.random() < geometric_p:
            n_txns += 1
        t = 0
        transactions = []
        for _ in range(n_txns):
            t += rng.randint(1, 3)
            k = rng.randint(1, max_items_per_txn)
            items = set(rng.choices(population, weights=weights, k=k))
            transactions.append(Transaction(t, tuple(sorted(items))))
        sequences.append(DataSequence(f"{id_prefix}{s}", tuple(transactions)))
    return SequenceDatabase(tuple(sequences), alphabet)


def deep_sizeof(obj) -> int:
    """Approximate recursive byte size of nested tuples/ints/floats."""
    size = sys.getsizeof(obj)
    if isinstance(obj, tuple):
        size += sum(deep_sizeof(x) for x in obj)
    return size


@dataclass
class BenchRow:
    algorithm: str
    n_sequences: int
    avg_transactions: float
    constraints: str
    patterns_emitted: int
    elapsed_s: float
    store_bytes: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def _describe(constraints: Constraints) -> str:
    parts = [f"min_support={constraints.min_support}"]
    if constraints.min_gap:
        parts.append(f"min_gap={constraints.min_gap}")
    if constraints.max_gap is not None:
        parts.append(f"max_gap={constraints.max_gap}")
    if constraints.max_index_gap is not None:
        parts.append(f"max_index_gap={constraints.max_index_gap}")
    if constraints.max_length is not None:
        parts.append(f"max_length={constraints.max_length}")
    return " ".join(parts)


def _avg_transactions(db: SequenceDatabase) -> float:
    return round(sum(len(s.transactions) for s in db.sequences) / len(db.sequences), 2)


def run_algorithm(
    algorithm: str,
    db: SequenceDatabase,
    constraints: Constraints,
    stream_config: Optional[StreamConfig] = None,
    threads: int = 1,
) -> BenchRow:
    if algorithm in ("gsp", "prefixspan"):
        if algorithm == "gsp":
            result = gsp_mine(db, constraints, threads=threads)
        else:
            result = prefixspan_mine(db, constraints)
        store = sum(deep_sizeof(sp.pattern) for sp in result.patterns)
        return BenchRow(
            algorithm,
            len(db.sequences),
            _avg_transactions(db),
            _describe(constraints),
            len(result.patterns),
            result.stats.elapsed,
            store,
        )
    if algorithm == "stream":
        config = stream_config or StreamConfig(
            sigma=constraints.min_support,
            epsilon=constraints.min_support / 4,
            batch_size=50,
            max_length=constraints.max_length or 4,
        )
        state = StreamState()
        peak = 0
        elapsed = 0.0
        seqs = db.sequences
        full = len(seqs) // config.batch_size * config.batch_size
        for lo in range(0, full, config.batch_size):
            started = time.perf_counter()
            process_batch(state, seqs[lo : lo + config.batch_size], config)
            elapsed += time.perf_counter() - started
            peak = max(peak, state.tree.approx_bytes())
        started = time.perf_counter()
        out = flush(state, seqs[full:], config)
        elapsed += time.perf_counter() - started
        peak = max(peak, state.tree.approx_bytes())
        desc = (
            f"sigma={config.sigma} epsilon={config.epsilon} "
            f"batch_size={config.batch_size} max_length={config.max_length}"
        )
        return BenchRow(
            algorithm, len(seqs), _avg_transactions(db), desc, len(out), elapsed, peak
        )
    raise ValueError(f"unknown algorithm {algorithm!r}")


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares (slope, intercept, r_squared)."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def run_bench(
    sizes: Sequence[int],
    algos: Sequence[str],
    seed: int = 0,
    min_support: float = 0.2,
    max_length: int = 4,
    threads: int = 1,
) -> tuple[list[BenchRow], Optional[tuple[float, float, float]]]:
    """Run every algorithm over synthetic databases of the given sizes.

    Returns the rows plus, when the stream miner ran on 3+ sizes, the
    (slope, intercept, r2) fit of its elapsed time against input size.
    """
    for algo in algos:
        if algo not in BENCH_ALGOS:
            raise ValueError(f"unknown algorithm {algo!r}; choose from {BENCH_ALGOS}")
    constraints = Constraints(min_support=min_support, max_length=max_length)
    rows = []
    stream_points: list[tuple[int, float]] = []
    for size in sizes:
        db = generate_db(size, seed=seed)
        for algo in algos:
            row = run_algorithm(algo, db, constraints, threads=threads)
            rows.append(row)
            if algo == "stream":
                stream_points.append((size, row.elapsed_s))
    fit = None
    if len(stream_points) >= 3:
        xs = [float(x) for x, _ in stream_points]
        ys = [y for _, y in stream_points]
        fit = linear_fit(xs, ys)
    return rows, fit
