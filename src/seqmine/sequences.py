"""Sequential-pattern mining under gap constraints.

Two independent miners with an identical contract:

* :func:`gsp_mine` grows patterns level by level (m items per level) and
  counts a level in one walk per sequence over the candidates' prefix tree,
  carrying each node's end positions as a bitmask (SPAM's item bitmaps).
* :func:`prefixspan_mine` grows patterns depth-first, carrying for every
  sequence the bitmask of transaction indices where the pattern's last
  element can end; that frontier is exact even with gap constraints. Each
  projection entry visits only the items whose last occurrence is at or
  after its lowest end position, read from per-sequence rows ordered by
  last occurrence: no other item can extend it.

Both grow a frontier the same way: an s-extension is ``extend(ends, reach)
& mask`` and an i-extension ``ends & mask``, over ``DataSequence.item_masks``.

Both return the same pattern set with the same counts; the test suite and
the acceptance suite hold them to that.

A word on pruning: deleting the first or the last item of a pattern can
never lower support, even under gap constraints, because the surviving
embedding keeps all its consecutive gaps (an end element either shrinks or
drops away entirely). Deleting a middle element, by contrast, fuses two
gaps into one and may violate max_gap, so the classic "every (m-1)-subsequence
must be frequent" prune is unsound here. Candidate pruning below therefore
uses only the two end deletions, and every candidate is verified by
counting anyway.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

from seqmine.errors import EmptyDatabaseError
from seqmine.model import (
    Constraints,
    DataSequence,
    Pattern,
    SequenceDatabase,
    SupportedPattern,
    extend,
    min_count,
    pattern_length,
    pattern_sort_key,
    reach_masks,
)


@dataclass
class MiningStats:
    candidates_generated: int = 0
    database_passes: int = 0


@dataclass
class MiningResult:
    patterns: list[SupportedPattern]
    stats: MiningStats


def _delete_first_item(pattern: Pattern) -> Pattern:
    head = pattern[0]
    if len(head) == 1:
        return pattern[1:]
    return (head[1:],) + pattern[1:]


def _delete_last_item(pattern: Pattern) -> Pattern:
    tail = pattern[-1]
    if len(tail) == 1:
        return pattern[:-1]
    return pattern[:-1] + (tail[:-1],)


def _finalize(pairs: dict[Pattern, int], n: int, stats: MiningStats) -> MiningResult:
    patterns = [
        SupportedPattern(p, c, c / n)
        for p, c in sorted(pairs.items(), key=lambda kv: pattern_sort_key(kv[0]))
    ]
    return MiningResult(patterns, stats)


def _candidate_tree(candidates: list[Pattern]) -> tuple[list, list]:
    """Prefix tree of the candidates: an inner node is a pair of (item, child)
    lists, s- then i-extensions; a leaf is the candidate's index."""
    inner: dict[Pattern, tuple[list, list]] = {(): ([], [])}

    def attach(pattern: Pattern, child) -> None:
        prefix = _delete_last_item(pattern)
        parent = inner.get(prefix)
        if parent is None:
            parent = inner[prefix] = ([], [])
            attach(prefix, parent)
        parent[len(pattern[-1]) > 1].append((pattern[-1][-1], child))

    for index, candidate in enumerate(candidates):
        attach(candidate, index)
    return inner[()]


def _count_candidates(
    candidates: list[Pattern], sequences: Sequence[DataSequence], constraints: Constraints
) -> list[int]:
    """Per-candidate support counts, in one tree walk per sequence."""
    root = _candidate_tree(candidates)
    counts = [0] * len(candidates)
    for seq in sequences:
        masks = seq.item_masks
        reach = reach_masks(seq.times, constraints)
        # (node, positions an s-extension may take, positions the node ends at)
        stack = [(root, -1, 0)]
        while stack:
            (s_ext, i_ext), allowed, ends = stack.pop()
            for children, base in ((s_ext, allowed), (i_ext, ends)):
                for item, child in children:
                    found = base & masks.get(item, 0)
                    if not found:
                        continue
                    if isinstance(child, int):
                        counts[child] += 1
                    else:
                        stack.append((child, extend(found, reach) if child[0] else 0, found))
    return counts


def gsp_mine(db: SequenceDatabase, constraints: Constraints) -> MiningResult:
    """Level-wise mining: all patterns meeting the support threshold.

    Level m extends each frequent (m-1)-pattern with each frequent item,
    either as a new trailing element or into the last element (keeping the
    element sorted); a candidate is counted only if deleting its first item
    also leaves a frequent pattern. ``stats.database_passes`` counts one
    counting sweep per level attempted.
    """
    if not db.sequences:
        raise EmptyDatabaseError("gsp_mine needs a non-empty database")
    n = len(db.sequences)
    minc = min_count(constraints.min_support, n)
    max_len = constraints.max_length
    stats = MiningStats()

    item_counts = Counter(item for seq in db.sequences for item in seq.item_masks)
    stats.candidates_generated += len(item_counts)
    stats.database_passes += 1

    frequent_items = sorted(i for i, c in item_counts.items() if c >= minc)
    frequent: dict[Pattern, int] = {((i,),): item_counts[i] for i in frequent_items}
    prev_level: list[Pattern] = sorted(frequent, key=pattern_sort_key)

    m = 2
    while prev_level and (max_len is None or m <= max_len):
        prev_set = set(prev_level)
        candidates: list[Pattern] = []
        for pattern in prev_level:
            last = pattern[-1]
            for item in frequent_items:
                grown = pattern + ((item,),)
                if _delete_first_item(grown) in prev_set:
                    candidates.append(grown)
                if item > last[-1]:
                    grown = pattern[:-1] + (last + (item,),)
                    if _delete_first_item(grown) in prev_set:
                        candidates.append(grown)
        stats.database_passes += 1
        stats.candidates_generated += len(candidates)
        counts = _count_candidates(candidates, db.sequences, constraints)
        level = [c for c, cnt in zip(candidates, counts) if cnt >= minc]
        frequent.update((c, cnt) for c, cnt in zip(candidates, counts) if cnt >= minc)
        prev_level = sorted(level, key=pattern_sort_key)
        m += 1

    return _finalize(frequent, n, stats)


def _item_rows(masks: dict[int, int], n: int) -> list[list[tuple[int, int]]]:
    """``rows[p]``: the ``(item, bits)`` pairs of a sequence of ``n``
    transactions with a bit at or after ``p``, latest last occurrence first.

    Each row is a prefix of the same order; equal rows share one list, and
    ``rows[n]`` (so also ``rows[-1]``) is empty.
    """
    order = sorted(masks.items(), key=lambda kv: kv[1].bit_length(), reverse=True)
    rows = [order] * (n + 1)
    row: list[tuple[int, int]] = []
    k = 0
    for p in range(n, -1, -1):
        while k < len(order) and order[k][1].bit_length() > p:
            k += 1
        if k == len(order):
            break
        if k > len(row):
            row = order[:k]
        rows[p] = row
    return rows


def _prefixspan(
    sequences: Sequence[DataSequence],
    minc: int,
    constraints: Constraints,
    stats: Optional[MiningStats] = None,
) -> dict[Pattern, int]:
    """Pattern-growth over end-position projections; returns pattern -> count.

    A projection entry is ``(s, ends)``: sequence index and the bitmask of
    transactions where the pattern's last element can end (pseudo-projection
    carried as SPAM's item bitmaps). Every pattern is added after its parent
    (the pattern minus its last item), so the result is parents-first.

    An entry visits only the items in ``rows[low]`` of its sequence, where
    ``low`` is its lowest end bit (see :func:`_item_rows`). That skips no
    extension: an s-extension lands in ``extend(ends, reach)``, which lies
    after ``low``, and an i-extension lands in ``ends``, at or after
    ``low``, so an item whose bits all lie below ``low`` extends nothing.
    """
    stats = stats if stats is not None else MiningStats()
    max_len = constraints.max_length
    found: dict[Pattern, int] = {}

    seq_rows = [_item_rows(s.item_masks, len(s.itemsets)) for s in sequences]
    seq_reach = [reach_masks(s.times, constraints) for s in sequences]

    first: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for s, seq in enumerate(sequences):
        for item, bits in seq.item_masks.items():
            first[item].append((s, bits))
    stats.candidates_generated += len(first)

    # (pattern, its item count, its projection)
    stack: list[tuple[Pattern, int, list[tuple[int, int]]]] = []
    for item in sorted(first):
        entries = first[item]
        if len(entries) >= minc:
            pattern: Pattern = ((item,),)
            found[pattern] = len(entries)
            if max_len is None or max_len > 1:
                stack.append((pattern, 1, entries))

    while stack:
        pattern, plen, projection = stack.pop()
        last_max = pattern[-1][-1]

        seq_ext: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        set_ext: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        for s, ends in projection:
            allowed = extend(ends, seq_reach[s])
            for item, bits in seq_rows[s][(ends & -ends).bit_length() - 1]:
                if allowed & bits:
                    seq_ext[item].append((s, allowed & bits))
                if item > last_max and ends & bits:
                    set_ext[item].append((s, ends & bits))

        stats.candidates_generated += len(seq_ext) + len(set_ext)
        grown: list[tuple[Pattern, list[tuple[int, int]]]] = []
        for item in sorted(seq_ext):
            entries = seq_ext[item]
            if len(entries) >= minc:
                grown.append((pattern + ((item,),), entries))
        for item in sorted(set_ext):
            entries = set_ext[item]
            if len(entries) >= minc:
                grown.append((pattern[:-1] + (pattern[-1] + (item,),), entries))

        for child, entries in grown:
            found[child] = len(entries)
            if max_len is None or plen + 1 < max_len:
                stack.append((child, plen + 1, entries))

    return found


def prefixspan_mine(db: SequenceDatabase, constraints: Constraints) -> MiningResult:
    """Pattern-growth mining; contract identical to :func:`gsp_mine`."""
    if not db.sequences:
        raise EmptyDatabaseError("prefixspan_mine needs a non-empty database")
    n = len(db.sequences)
    stats = MiningStats(database_passes=1)
    found = _prefixspan(db.sequences, min_count(constraints.min_support, n), constraints, stats)
    return _finalize(found, n, stats)


def pattern_in_pattern(inner: Pattern, outer: Pattern) -> bool:
    """Unconstrained pattern-in-pattern containment (greedy element match)."""
    oi = 0
    for element in inner:
        es = set(element)
        while oi < len(outer) and not es <= set(outer[oi]):
            oi += 1
        if oi == len(outer):
            return False
        oi += 1
    return True


def filter_closed(result: MiningResult) -> MiningResult:
    """Keep only patterns with no equal-count strict superpattern in the result.

    Containment here ignores gap constraints; closedness compacts the result
    set, it is not re-checked against the database. Patterns are visited
    longest first and each is compared only against kept, strictly longer
    patterns of its count: containment is transitive, so the longest pattern
    absorbing any other is itself kept.
    """
    kept_by_count: dict[int, list[tuple[int, Pattern]]] = {}
    closed: set[Pattern] = set()
    for sp in sorted(result.patterns, key=lambda sp: -pattern_length(sp.pattern)):
        length = pattern_length(sp.pattern)
        peers = kept_by_count.setdefault(sp.count, [])
        if not any(n > length and pattern_in_pattern(sp.pattern, q) for n, q in peers):
            peers.append((length, sp.pattern))
            closed.add(sp.pattern)
    return MiningResult([sp for sp in result.patterns if sp.pattern in closed], result.stats)
