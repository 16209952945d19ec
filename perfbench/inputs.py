"""Seeded input generators for the benchmark workloads.

They live beside the benchmark rather than in ``seqmine.bench`` so that a
change to the library cannot change what a workload feeds the program. Each
generator returns CSV text in one of the CLI's input formats; the same
``(n, seed)`` always gives the same bytes.
"""

from __future__ import annotations

import random

BASE_ITEMS = 8


def _zipf_weights(size: int, exponent: float = 1.0) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(size)]


def _geometric(rng: random.Random, p: float, cap: int) -> int:
    k = 1
    while k < cap and rng.random() < p:
        k += 1
    return k


def _stratified_lengths(rng: random.Random, n: int, p: float, cap: int) -> list[int]:
    """``n`` lengths with the distribution of ``_geometric(rng, p, cap)``,
    taken at its exact quantiles and shuffled. A few long sequences carry
    most of the mining work: drawn independently, the patterns the stream
    workload mines spread by about 9% between seeds (quartile distance over
    median, 8 seeds); stratified, by about 3%."""
    lengths = []
    for i in range(n):
        u = (i + 0.5) / n
        k, below = 1, 1 - p
        while k < cap and u > below:
            k += 1
            below += (1 - p) * p ** (k - 1)
        lengths.append(k)
    rng.shuffle(lengths)
    return lengths


def _background(rng: random.Random, weights: list[float], length: int) -> list[list[str]]:
    """The ROADMAP baseline draw for one sequence of ``length`` transactions:
    8 Zipf items (weight 1/rank) and up to 3 draws per transaction. Its
    length is geometric with p 0.65, capped at 10 transactions."""
    population = range(BASE_ITEMS)
    return [
        sorted({f"i{i:02d}" for i in rng.choices(population, weights=weights, k=rng.randint(1, 3))})
        for _ in range(length)
    ]


def _sequence_csv(sequences: list[list[list[str]]], rng: random.Random) -> str:
    lines = []
    for s, transactions in enumerate(sequences):
        t = 0
        for items in transactions:
            t += rng.randint(1, 3)
            lines.append(f"s{s},{t},{' '.join(items)}")
    return "\n".join(lines) + "\n"


def baseline_sequences(n: int, seed: int) -> str:
    """sequence-CSV drawn like the ROADMAP GSP-vs-PrefixSpan baseline, with
    stratified lengths."""
    rng = random.Random(seed)
    weights = _zipf_weights(BASE_ITEMS)
    lengths = _stratified_lengths(rng, n, 0.65, 10)
    return _sequence_csv([_background(rng, weights, k) for k in lengths], rng)


def planted_motif_sequences(
    n: int, seed: int, motifs: int = 4, motif_length: int = 8, share: float = 0.3
) -> str:
    """The baseline draw, with one of a few planted motifs in ``share`` of the
    sequences.

    A motif is ``motif_length`` single-item elements; the motifs split an
    alphabet of their own between them, so every seed plants the same shape.
    A carrier gets its motif inserted in order at random places between its
    background transactions. Every carrier of a motif supports all of the motif's
    subsequences, so they form large equal-count groups: the case the closed
    filter exists for.
    """
    rng = random.Random(seed)
    weights = _zipf_weights(BASE_ITEMS)
    tokens = [f"m{i:02d}" for i in range(motifs * motif_length)]
    rng.shuffle(tokens)
    planted = [tokens[m * motif_length:(m + 1) * motif_length] for m in range(motifs)]
    sequences = []
    for _ in range(n):
        transactions = _background(rng, weights, _geometric(rng, 0.65, 10))
        if rng.random() < share:
            motif = planted[rng.randrange(motifs)]
            slots = sorted(rng.choices(range(len(transactions) + 1), k=motif_length))
            merged: list[list[str]] = []
            k = 0
            for j in range(len(transactions) + 1):
                while k < motif_length and slots[k] == j:
                    merged.append([motif[k]])
                    k += 1
                if j < len(transactions):
                    merged.append(transactions[j])
            transactions = merged
        sequences.append(transactions)
    return _sequence_csv(sequences, rng)


def baskets(n: int, seed: int, items: int = 60, p: float = 0.88, max_size: int = 16) -> str:
    """transactions-CSV: ``items`` Zipf-ish products (weight 1/rank**0.8) and
    geometric basket sizes capped at ``max_size`` draws.

    The cap matters: uncapped, exponentially distributed sizes make level-wise
    counting blow up on the few very long baskets.
    """
    rng = random.Random(seed)
    weights = _zipf_weights(items, 0.8)
    population = range(items)
    lines = []
    for b in range(n):
        drawn = rng.choices(population, weights=weights, k=_geometric(rng, p, max_size))
        lines.append(f"b{b},{' '.join(f'p{i:02d}' for i in sorted(set(drawn)))}")
    return "\n".join(lines) + "\n"
