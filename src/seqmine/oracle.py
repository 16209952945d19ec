"""Exhaustive reference miners, used only by tests and the acceptance suite.

These are deliberately naive: enumerate everything within hard caps, count
by direct containment, refuse anything bigger. They are the ground truth
the real miners are checked against, so they share no containment code.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import combinations

from seqmine.errors import AlphabetTooLargeError, InstanceTooLargeError
from seqmine.itemsets import FrequentItemset
from seqmine.model import (
    Alphabet,
    Constraints,
    DataSequence,
    Itemset,
    Pattern,
    SequenceDatabase,
    SupportedPattern,
    min_count,
    pattern_length,
    pattern_sort_key,
    unit_fraction,
)

MAX_ITEMSET_ALPHABET = 16
MAX_SEQUENCE_ALPHABET = 6
MAX_SEQUENCE_PATTERN_LENGTH = 4


def contains_by_enumeration(
    pattern: Pattern, seq: DataSequence, constraints: Constraints | None = None
) -> bool:
    """Independent containment oracle: try every index combination."""
    c = constraints or Constraints()
    times, itemsets = seq.times, seq.itemsets
    for idxs in combinations(range(len(times)), len(pattern)):
        if not all(set(e) <= set(itemsets[i]) for e, i in zip(pattern, idxs)):
            continue
        ok = True
        for i, j in zip(idxs, idxs[1:]):
            dt = times[j] - times[i]
            if dt <= c.min_gap:
                ok = False
            elif c.max_gap is not None and dt > c.max_gap:
                ok = False
            elif c.max_index_gap is not None and j - i - 1 > c.max_index_gap:
                ok = False
            if not ok:
                break
        if ok:
            return True
    return False


def brute_itemsets(transactions: Sequence[Itemset], min_support: float) -> list[FrequentItemset]:
    """Every frequent itemset, by enumerating all subsets of the alphabet."""
    unit_fraction(min_support, "min_support")
    n = len(transactions)
    minc = min_count(min_support, n)
    alphabet = sorted({item for t in transactions for item in t})
    if len(alphabet) > MAX_ITEMSET_ALPHABET:
        raise AlphabetTooLargeError(
            f"{len(alphabet)} distinct items exceed the enumeration cap of {MAX_ITEMSET_ALPHABET}"
        )
    tsets = [frozenset(t) for t in transactions]
    out = []
    for size in range(1, len(alphabet) + 1):
        for candidate in combinations(alphabet, size):
            cset = frozenset(candidate)
            count = sum(1 for t in tsets if cset <= t)
            if count >= minc:
                out.append(FrequentItemset(candidate, count, count / n))
    return out


def iter_canonical_patterns(items: Sequence[int], max_length: int) -> Iterator[Pattern]:
    """All canonical patterns over ``items`` with at most ``max_length`` items.

    Growth is canonical: append a new single-item element, or extend the
    last element with a strictly larger item. Every pattern is produced
    exactly once.
    """
    items = sorted(items)
    level: list[Pattern] = [((item,),) for item in items]
    size = 1
    while level and size <= max_length:
        yield from level
        if size == max_length:
            break
        grown: list[Pattern] = []
        for pattern in level:
            for item in items:
                grown.append(pattern + ((item,),))
                if item > pattern[-1][-1]:
                    grown.append(pattern[:-1] + (pattern[-1] + (item,),))
        level = grown
        size += 1


def brute_sequences(db: SequenceDatabase, constraints: Constraints) -> list[SupportedPattern]:
    """Every frequent sequential pattern, by enumerating all canonical patterns.

    Enumeration runs over the items that actually occur in the database;
    a pattern using any other item supports zero sequences and can never
    reach a positive threshold.
    """
    n = len(db.sequences)
    minc = min_count(constraints.min_support, n)
    if len(db.alphabet) > MAX_SEQUENCE_ALPHABET:
        raise InstanceTooLargeError(
            f"alphabet of {len(db.alphabet)} exceeds the cap of {MAX_SEQUENCE_ALPHABET}"
        )
    if constraints.max_length is None or constraints.max_length > MAX_SEQUENCE_PATTERN_LENGTH:
        raise InstanceTooLargeError(
            f"max_length must be set and <= {MAX_SEQUENCE_PATTERN_LENGTH} for exhaustive mining"
        )
    present = sorted({item for s in db.sequences for items in s.itemsets for item in items})
    out = []
    for pattern in iter_canonical_patterns(present, constraints.max_length):
        count = sum(1 for seq in db.sequences if contains_by_enumeration(pattern, seq, constraints))
        if count >= minc:
            out.append(SupportedPattern(pattern, count, count / n))
    out.sort(key=lambda sp: pattern_sort_key(sp.pattern))
    return out


def brute_stream(
    stream: Sequence[DataSequence], sigma: float, max_length: int = MAX_SEQUENCE_PATTERN_LENGTH
) -> list[SupportedPattern]:
    """Offline exact mining of a whole stream, for stream-guarantee checks."""
    if not stream:
        return []
    max_item = max(item for seq in stream for items in seq.itemsets for item in items)
    db = SequenceDatabase(tuple(stream), Alphabet(f"item{i}" for i in range(max_item + 1)))
    return brute_sequences(db, Constraints(min_support=sigma, max_length=max_length))


def _embeds(inner: Pattern, outer: Pattern, pi: int = 0, oi: int = 0) -> bool:
    # exhaustive backtracking, independent of the greedy check in sequences.py
    if pi == len(inner):
        return True
    es = set(inner[pi])
    for k in range(oi, len(outer)):
        if es <= set(outer[k]) and _embeds(inner, outer, pi + 1, k + 1):
            return True
    return False


def brute_closed(patterns: Sequence[SupportedPattern]) -> list[SupportedPattern]:
    """Patterns with no equal-count strict superpattern in the input."""
    out = []
    for sp in patterns:
        absorbed = any(
            other.count == sp.count
            and pattern_length(other.pattern) > pattern_length(sp.pattern)
            and _embeds(sp.pattern, other.pattern)
            for other in patterns
        )
        if not absorbed:
            out.append(sp)
    return out
