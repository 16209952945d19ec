"""Sequential-pattern mining under gap constraints.

Two miners with an identical contract, differing only in the order they
grow patterns and in where a pattern of two or more items takes its
candidates from:

* :func:`gsp_mine` grows patterns level by level (m items per level); a
  pattern's candidates are the frequent children of its first-item
  deletion (GSP's join).
* :func:`prefixspan_mine` grows patterns depth-first; a pattern's
  candidates are the frequent level-2 children of its last item.

Everything else is shared: :func:`_frequent_items` counts level 1,
:func:`_level2_candidates` gives each frequent item its level-2
candidates, and :func:`_children` is the one step that counts a pattern's
extensions. It works on the database laid out as one bit string
(:func:`seqmine.model.bit_layout`): sequence s takes one bit per
transaction, then an always-zero sentinel bit. A pattern's projection is one
int, the positions in every sequence where its last element can end; that
frontier is exact even with gap constraints. An s-extension by x is
``extend(ends, layout) & items[x]`` and an i-extension by y is
``ends & items[y]``, so a candidate costs a few C-level big-int operations
over the whole database, and :func:`seqmine.model.count_sequences` reads
its support off the sentinels. Each candidate handed to that step counts
once in ``MiningStats.candidates_generated``.

Level 2 is where the alphabet's width tells. With F frequent items,
testing every pair on the bit layout ANDs about 1.5 F² ints, each as wide
as the layout (W bits), and W grows with the number of sequences; bounding
the pairs first by :func:`_successors` costs one Python visit per item
occurrence, which grows with the database too. So the step weighs their
work, F² W bits against ``_BITS_PER_VISIT`` bits per occurrence, and tests
every pair only while that is the lighter side (see
:func:`_level2_candidates`).

Both return the same pattern set with the same counts; the test suite and
the acceptance suite hold them to that.

A word on pruning: deleting the first or the last item of a pattern can
never lower support, even under gap constraints, because the surviving
embedding keeps all its consecutive gaps (an end element either shrinks or
drops away entirely). Deleting a middle element, by contrast, fuses two
gaps into one and may violate max_gap, so the classic "every (m-1)-subsequence
must be frequent" prune is unsound here. Both miners therefore prune by
first-item deletion alone. GSP's join grows a pattern P by an item only the
way P minus its first item grew by that item and stayed frequent, since that
deletion of the grown pattern must be frequent too. PrefixSpan applies the
same deletion until only P's last item ``a`` is left (the largest item of
P's last element). That turns P extended by a new element ``(x)`` into
``<(a)(x)>``, and P with ``y > a`` added to its last element into
``<(a y)>``. So an extension can be frequent only if that 2-pattern is, and
PrefixSpan counts level 2 for every item before it grows any deeper
pattern, then tests only the ``x`` and ``y`` whose 2-pattern was frequent.
Those lists are counted under the gap rules, so they are never looser than
the successor lists (which ignore gaps), and equal them when gaps are
unbounded. Every candidate is verified by counting anyway.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from collections.abc import Iterator, Sequence
from itertools import chain, combinations

from seqmine.errors import EmptyDatabaseError
from seqmine.model import (
    BitLayout,
    Columns,
    Constraints,
    Pattern,
    SequenceDatabase,
    SupportedPattern,
    bit_layout,
    count_sequences,
    extend,
    min_count,
    pattern_length,
    pattern_sort_key,
)


class MiningStats:
    """What a miner did: candidates counted and passes over the database."""

    __slots__ = ("candidates_generated", "database_passes")

    def __init__(self, candidates_generated: int = 0, database_passes: int = 0):
        self.candidates_generated = candidates_generated
        self.database_passes = database_passes

    def __repr__(self) -> str:
        return (
            f"MiningStats(candidates_generated={self.candidates_generated}, "
            f"database_passes={self.database_passes})"
        )


class MiningResult(namedtuple("MiningResult", "patterns stats")):
    """A miner's patterns, sorted by length then pattern, and its stats."""

    __slots__ = ()


def _delete_first_item(pattern: Pattern) -> Pattern:
    head = pattern[0]
    if len(head) == 1:
        return pattern[1:]
    return (head[1:],) + pattern[1:]


def _finalize(pairs: dict[Pattern, int], n: int, stats: MiningStats) -> MiningResult:
    patterns = [
        SupportedPattern(p, c, c / n)
        for p, c in sorted(pairs.items(), key=lambda kv: pattern_sort_key(kv[0]))
    ]
    return MiningResult(patterns, stats)


def _frequent_items(
    columns: Columns, minc: int, stats: MiningStats
) -> tuple[list[int], dict[Pattern, int]]:
    """Level 1: the frequent items (ascending) and each one's singleton
    pattern -> count. Every item seen counts as a candidate."""
    flat = columns.itemsets
    bounds = zip(columns.firsts, columns.sentinels())
    counts = Counter(chain.from_iterable(set().union(*flat[first:last]) for first, last in bounds))
    stats.candidates_generated += len(counts)
    frequent = sorted(i for i, c in counts.items() if c >= minc)
    return frequent, {((i,),): counts[i] for i in frequent}


def _children(
    pattern: Pattern,
    ends: int,
    s_items: Sequence[tuple[int, int]],
    i_items: Sequence[tuple[int, int]],
    layout: BitLayout,
    minc: int,
    stats: MiningStats,
) -> Iterator[tuple[Pattern, int, int]]:
    """Count ``pattern`` grown by each ``(item, bits)`` candidate, as a new
    trailing element (``s_items``) or into its last element (``i_items``,
    items above the last one); yield each frequent child as
    ``(child, count, child_ends)``, s-extensions first, each list in order.
    ``ends`` is the pattern's projection."""
    stats.candidates_generated += len(s_items) + len(i_items)
    allowed = extend(ends, layout) if s_items else 0
    for new_element, base, candidates in ((True, allowed, s_items), (False, ends, i_items)):
        for item, bits in candidates:
            child_ends = base & bits
            # a cheap bound first: each sequence counted holds a bit
            if child_ends.bit_count() >= minc:
                count = count_sequences(child_ends, layout)
                if count >= minc:
                    if new_element:
                        child = pattern + ((item,),)
                    else:
                        child = pattern[:-1] + (pattern[-1] + (item,),)
                    yield child, count, child_ends


def gsp_mine(db: SequenceDatabase, constraints: Constraints) -> MiningResult:
    """Level-wise mining: all patterns meeting the support threshold.

    Level m is GSP's join of level m-1 with itself. A pattern P grows by an
    item x, as a new trailing element or into its last element (keeping the
    element sorted), only if deleting P's first item leaves a pattern D that
    grew by x the same way and stayed frequent: for P of two or more items,
    deleting the first item of P extended by x gives D extended by x, and
    that deletion never lowers support under any gap rule (see the module
    docstring), so the join loses no frequent pattern. P's candidates are
    therefore D's frequent children, kept as an (s-list, i-list) pair of
    ``(item, bits)`` and counted by the :func:`_children` step PrefixSpan
    uses too. At level 2, D is the empty pattern, and an item's candidates
    come from :func:`_level2_candidates`, as PrefixSpan's do: every frequent
    item on narrow alphabets, the item's successor lists on wide ones.
    ``stats.database_passes`` counts one counting sweep per level attempted.
    """
    if not len(db):
        raise EmptyDatabaseError("gsp_mine needs a non-empty database")
    n = len(db)
    minc = min_count(constraints.min_support, n)
    max_len = constraints.max_length
    stats = MiningStats(database_passes=1)

    frequent_items, frequent = _frequent_items(db.columns, minc, stats)
    if not frequent or max_len == 1:
        return _finalize(frequent, n, stats)
    layout = bit_layout(db.columns, constraints, frequent_items)
    items = layout.items
    pairs = _level2_candidates(db.columns, frequent_items, layout, minc)
    # (pattern, its projection, its s- and i-candidates as (item, bits))
    level = [(((i,),), items[i], *pairs[i]) for i in frequent_items]

    m = 2
    while level:
        stats.database_passes += 1
        grown: list[tuple[Pattern, int]] = []
        # pattern -> its frequent children's (s-list, i-list) of (item, bits)
        children: defaultdict[Pattern, tuple[list, list]] = defaultdict(lambda: ([], []))
        # pop each projection once used: at most two levels are held
        while level:
            pattern, ends, s_items, i_items = level.pop()
            for child, count, child_ends in _children(
                pattern, ends, s_items, i_items, layout, minc, stats
            ):
                frequent[child] = count
                if max_len is None or m < max_len:
                    grown.append((child, child_ends))
                    # a one-item last element is a new element: an s-extension
                    last = child[-1]
                    children[pattern][len(last) > 1].append((last[-1], items[last[-1]]))
        level = [(p, ends, *children.get(_delete_first_item(p), ((), ()))) for p, ends in grown]
        m += 1

    return _finalize(frequent, n, stats)


def _successors(
    columns: Columns, minc: int, items: dict[int, int]
) -> tuple[dict[int, list[tuple[int, int]]], dict[int, list[tuple[int, int]]]]:
    """For each item ``a``, the items ``x`` that follow ``a`` and the items
    ``y > a`` that share a transaction with ``a``, each in at least ``minc``
    sequences, gaps ignored (ascending), as ``(item, items[item])``. No pair
    with an infrequent item clears ``minc``."""
    follows: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)
    i_pairs: list[tuple[int, int]] = []
    flat = columns.itemsets
    for start, stop in zip(columns.firsts, columns.sentinels()):
        later: set[int] = set()
        # item -> the items after its first occurrence (the last write wins),
        # kept as tuples: a small frozenset takes several times the memory
        firsts: dict[int, tuple[int, ...]] = {}
        pairs: set[tuple[int, int]] = set()
        for txn in reversed(flat[start:stop]):
            firsts.update(dict.fromkeys(txn, tuple(later)))
            later.update(txn)
            if len(txn) > 1:
                pairs.update(combinations(txn, 2))
        for a, after in firsts.items():
            follows[a].append(after)
        i_pairs.extend(pairs)

    s_next = {}
    for a, afters in follows.items():
        if len(afters) >= minc:
            counts = Counter(chain.from_iterable(afters))
            s_next[a] = [(x, items[x]) for x in sorted(x for x, c in counts.items() if c >= minc)]
    i_next: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for a, y in sorted(pair for pair, count in Counter(i_pairs).items() if count >= minc):
        i_next[a].append((y, items[y]))
    return s_next, i_next


# One Python visit of an item occurrence in _successors costs about as much
# as ANDing this many bits of the layout. On synthetic inputs of 4,000 to
# 400,000 sequences (CPython 3.11, x86-64) the two level-2 passes cost the
# same between 16,000 and 42,000 bits, so below that the pairs are cheaper.
# At 400,000 sequences, 632 frequent items (F² = n) took 69 s as pairs and
# 25 s through the lists, while 128 items took 8.5 s and 9.8 s.
_BITS_PER_VISIT = 1 << 14


def _level2_candidates(
    columns: Columns, frequent: list[int], layout: BitLayout, minc: int
) -> dict[int, tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
    """Each frequent item's level-2 candidates, as an (s-list, i-list) of
    ``(item, bits)`` for :func:`_children`.

    Testing every pair of the F frequent items ANDs and popcounts an int of
    the layout's width W for each of about 1.5 F² pairs; :func:`_successors`
    visits each item occurrence in Python, and its lists drop every pair
    that co-occurs, gaps ignored, in fewer than ``minc`` sequences. W and
    the occurrences both grow with the number of sequences, so the choice
    rests on F and on the price of a visit, not on the database's size.
    While F² W is at most ``_BITS_PER_VISIT`` bits per occurrence of a
    frequent item, an item's candidates are every frequent item as a new
    element and the frequent items above it in its element; otherwise they
    are its successor lists.
    """
    items = layout.items
    visits = sum(items[i].bit_count() for i in frequent)
    if len(frequent) ** 2 * layout.sentinels.bit_length() <= _BITS_PER_VISIT * visits:
        every = [(i, items[i]) for i in frequent]
        return {i: (every, every[k + 1:]) for k, i in enumerate(frequent)}
    s_next, i_next = _successors(columns, minc, items)
    return {a: (s_next.get(a, []), i_next.get(a, [])) for a in frequent}


def _prefixspan(
    columns: Columns,
    minc: int,
    constraints: Constraints,
    stats: MiningStats | None = None,
) -> dict[Pattern, int]:
    """Pattern-growth over bit-string projections; returns pattern -> count.

    Level 2 is counted first, for every frequent item, from
    :func:`_level2_candidates`. A deeper pattern whose last item is ``a``
    then hands only ``a``'s frequent level-2 children to :func:`_children`,
    the counting step GSP uses too; that bound is sound under every gap
    rule (see the module docstring). A stack entry is a pattern, its item
    count and its projection ``ends``. A level-2 entry holds ``None``, and
    its projection is rebuilt from item bits when it is popped, so the
    level-2 projections are never all held at once. Every pattern is added
    after its parent (the pattern minus its last item), so the result is
    parents-first. No caller reads that order: the stream's table stays
    prefix-closed because a mined pattern's parent is mined too, with at
    least its count.
    """
    stats = stats if stats is not None else MiningStats()
    max_len = constraints.max_length

    frequent, found = _frequent_items(columns, minc, stats)
    if not frequent or max_len == 1:
        return found
    layout = bit_layout(columns, constraints, frequent)
    items = layout.items
    pairs = _level2_candidates(columns, frequent, layout, minc)

    # (pattern, its item count, its projection or None at level 2)
    stack: list[tuple[Pattern, int, int | None]] = []
    # item -> its frequent level-2 children's (s-list, i-list) of (item, bits)
    bounds: dict[int, tuple[list, list]] = {}
    for a in frequent:
        bounds[a] = grown = ([], [])
        for child, count, _ in _children(((a,),), items[a], *pairs[a], layout, minc, stats):
            found[child] = count
            last = child[-1]
            grown[len(last) > 1].append((last[-1], items[last[-1]]))
            if max_len is None or max_len > 2:
                stack.append((child, 2, None))
    while stack:
        pattern, plen, ends = stack.pop()
        if ends is None:
            first = items[pattern[0][0]]
            ends = (extend(first, layout) if len(pattern) == 2 else first) & items[pattern[-1][-1]]
        for child, count, child_ends in _children(
            pattern, ends, *bounds[pattern[-1][-1]], layout, minc, stats
        ):
            found[child] = count
            if max_len is None or plen + 1 < max_len:
                stack.append((child, plen + 1, child_ends))

    return found


def prefixspan_mine(db: SequenceDatabase, constraints: Constraints) -> MiningResult:
    """Pattern-growth mining; contract identical to :func:`gsp_mine`."""
    if not len(db):
        raise EmptyDatabaseError("prefixspan_mine needs a non-empty database")
    n = len(db)
    stats = MiningStats(database_passes=1)
    found = _prefixspan(db.columns, min_count(constraints.min_support, n), constraints, stats)
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
