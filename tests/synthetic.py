"""Synthetic databases and a least-squares fit for the test suites.

The generators are seeded and documented so runs are reproducible. In a
sequence database items are drawn Zipf-ish (weight 1/rank), sequence
lengths are geometric and timestamps advance by small random steps;
baskets are drawn like the benchmark's itemset input. The benchmark is
``perfbench/`` (run ``python3 perfbench/run.py``), which builds its own
inputs."""

from __future__ import annotations

import random
from typing import Sequence

from seqmine.model import Alphabet, DataSequence, SequenceDatabase


def generate_db(
    n_sequences: int,
    alphabet_size: int = 10,
    seed: int = 0,
    geometric_p: float = 0.45,
    max_txns: int = 8,
) -> SequenceDatabase:
    """A reproducible synthetic database: Zipf-ish items (1-3 draws per
    transaction), geometric lengths, seq_ids ``s0``, ``s1``, ..."""
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
        times, itemsets = [], []
        for _ in range(n_txns):
            t += rng.randint(1, 3)
            k = rng.randint(1, 3)
            times.append(t)
            itemsets.append(tuple(sorted(set(rng.choices(population, weights=weights, k=k)))))
        sequences.append(DataSequence(f"s{s}", tuple(times), tuple(itemsets)))
    return SequenceDatabase(tuple(sequences), alphabet)


def generate_baskets(
    n_baskets: int, seed: int, items: int = 60, geometric_p: float = 0.88, max_draws: int = 16
) -> list[tuple[int, ...]]:
    """Reproducible baskets drawn like ``perfbench/inputs.baskets``: ``items``
    Zipf-ish products (weight 1/rank**0.8), each basket ``k`` draws with
    ``k`` geometric (``geometric_p``) and capped at ``max_draws``. Items are
    the products' ranks, so a basket is its distinct draws in ascending
    order."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** 0.8 for rank in range(items)]
    population = range(items)
    baskets = []
    for _ in range(n_baskets):
        k = 1
        while k < max_draws and rng.random() < geometric_p:
            k += 1
        baskets.append(tuple(sorted(set(rng.choices(population, weights=weights, k=k)))))
    return baskets


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

