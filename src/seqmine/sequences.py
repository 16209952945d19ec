"""Sequential-pattern mining under gap constraints.

Two miners with an identical contract, differing only in the order they
grow patterns and in where a pattern of two or more items takes its
candidates from:

* :func:`gsp_mine` grows patterns level by level (m items per level); a
  pattern's candidates are the frequent children of its first-item
  deletion (GSP's join).
* :func:`prefixspan_mine` grows patterns depth-first; a pattern's
  candidates are the frequent level-2 children of its last item that its
  parent's frequent children allow.

Everything else is shared. Both build the database's layout as one bit
string first (:func:`seqmine.model.bit_layout`): sequence s takes one bit
per transaction, then an always-zero sentinel bit, and each item has the
int of the transactions that hold it. :func:`_frequent_items` reads level
1 off those ints; past level 1 nothing reads an infrequent item's int, so
each miner goes on with a layout that holds the frequent items' ints only.
:func:`_level2_candidates` gives each frequent item its level-2
candidates, and :func:`_children` is the one step that counts a
pattern's extensions on that layout: it stores each frequent child's
count and returns the children with S and I, the items they add as new
elements and into the last element, as two masks. A pattern's projection
is one int, the positions in every sequence where its last element can
end; that frontier is exact even with gap constraints. An s-extension by
x is ``extend(ends, layout) & items[x]`` and an i-extension by y is
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
unbounded. PrefixSpan then intersects them with what the parent P (the
pattern minus its last item y) allows, as in SPAM's S-step and I-step
pruning (Ayres et al., KDD 2002). Counting P gives S(P) and I(P), the items
that extended P frequently as a new element and into its last element.
Deleting y from an element that keeps other items changes no gap, so a
child made by joining y to P's last element takes new elements from S(P)
and items into its last element from I(P); a child made by adding ``(y)``
takes items into ``(y)`` from S(P). Deleting ``(y)`` from that child's
s-extension, though, removes a middle element and fuses two gaps, so S(P)
bounds its new elements only when neither max_gap nor max_index_gap is set.
Every candidate is verified by counting anyway.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from collections.abc import Sequence
from itertools import chain, combinations

from seqmine.errors import EmptyDatabaseError
from seqmine.model import (
    BitLayout,
    Columns,
    Constraints,
    Pattern,
    SequenceDatabase,
    SupportedPattern,
    _pattern_ends,
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
    layout: BitLayout, minc: int, stats: MiningStats
) -> tuple[list[int], dict[Pattern, int]]:
    """Level 1, read off the layout: the frequent items (ascending) and each
    one's singleton pattern -> count. Every item seen counts as a candidate."""
    stats.candidates_generated += len(layout.items)
    counts = {i: count_sequences(bits, layout) for i, bits in layout.items.items()}
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
    found: dict[Pattern, int],
) -> tuple[list[tuple[Pattern, int]], int, int]:
    """Count ``pattern`` grown by each ``(item, bits)`` candidate, as a new
    trailing element (``s_items``) or into its last element (``i_items``,
    items above the last one), and store each frequent child's count in
    ``found``. Return the frequent children as ``(child, its projection)``,
    s-extensions first, each list in order, and the items they add as two
    masks: S as new elements and I into the last element. ``ends`` is the
    pattern's projection."""
    stats.candidates_generated += len(s_items) + len(i_items)
    grown, s_found, i_found = [], 0, 0
    allowed = extend(ends, layout) if s_items else 0
    # two loops, not one over both lists: most calls test a handful of
    # candidates, so the per-call setup of a shared loop shows
    for item, bits in s_items:
        c_ends = allowed & bits
        # a cheap bound first: each sequence counted holds a bit
        if c_ends.bit_count() >= minc and (count := count_sequences(c_ends, layout)) >= minc:
            child = pattern + ((item,),)
            found[child] = count
            grown.append((child, c_ends))
            s_found |= 1 << item
    for item, bits in i_items:
        c_ends = ends & bits
        if c_ends.bit_count() >= minc and (count := count_sequences(c_ends, layout)) >= minc:
            child = pattern[:-1] + (pattern[-1] + (item,),)
            found[child] = count
            grown.append((child, c_ends))
            i_found |= 1 << item
    return grown, s_found, i_found


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

    layout = bit_layout(db.columns, constraints)
    frequent_items, frequent = _frequent_items(layout, minc, stats)
    if not frequent or max_len == 1:
        return _finalize(frequent, n, stats)
    items = {i: layout.items[i] for i in frequent_items}
    layout = layout._replace(items=items)
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
            got, _, _ = _children(pattern, ends, s_items, i_items, layout, minc, stats, frequent)
            if max_len is None or m < max_len:
                grown += got
                for child, _ in got:
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
    for _, _, itemsets in columns.runs():
        later: set[int] = set()
        # item -> the items after its first occurrence (the last write wins),
        # kept as tuples: a small frozenset takes several times the memory
        firsts: dict[int, tuple[int, ...]] = {}
        pairs: set[tuple[int, int]] = set()
        for txn in reversed(itemsets):
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


class _Listed(dict):
    """Item mask -> the ``(item, bits)`` of each item in it, ascending: the
    candidate list :func:`_children` takes, built on first use."""

    __slots__ = ("items",)

    def __init__(self, items: dict[int, int]):
        self.items = items

    def __missing__(self, mask: int) -> list[tuple[int, int]]:
        got = self[mask] = []
        while mask:
            item = (mask & -mask).bit_length() - 1
            got.append((item, self.items[item]))
            mask ^= 1 << item
        return got


def _prefixspan(
    columns: Columns,
    minc: int,
    constraints: Constraints,
    stats: MiningStats | None = None,
) -> dict[Pattern, int]:
    """Pattern-growth over bit-string projections; returns pattern -> count.

    Level 2 is counted first, for every frequent item, from
    :func:`_level2_candidates`; item y's frequent level-2 children are kept
    as two item masks, ``bs[y]`` as new elements and ``bi[y]`` into y's
    element. A stack entry is a pattern, its item count, its projection
    ``ends``, and S and I of its parent. A level-2 entry holds ``None`` as
    its projection, which :func:`seqmine.model._pattern_ends` grows from
    nothing when it is popped, so the level-2 projections are never all
    held at once. A popped pattern with last item y ANDs its parent's
    masks with ``bs[y]`` and ``bi[y]`` as the module docstring says, and
    hands the items left to :func:`_children`, the counting step GSP uses
    too; each mask's candidate list is built once per call. That call also stores the
    frequent children's counts and returns their S and I. Every pattern is
    added after its parent (the pattern minus its last item), so the
    result is parents-first. No caller reads that order: the stream's
    table stays prefix-closed because a mined pattern's parent is mined
    too, with at least its count.
    """
    stats = stats if stats is not None else MiningStats()
    max_len = constraints.max_length

    layout = bit_layout(columns, constraints)
    frequent, found = _frequent_items(layout, minc, stats)
    if not frequent or max_len == 1:
        return found
    items = {i: layout.items[i] for i in frequent}
    layout = layout._replace(items=items)
    pairs = _level2_candidates(columns, frequent, layout, minc)
    bs, bi, listed = {}, {}, _Listed(items)
    # (pattern, its item count, its projection or None at level 2, its parent's S, I)
    stack: list[tuple[Pattern, int, int | None, int, int]] = []
    for a in frequent:
        children, bs[a], bi[a] = _children(((a,),), items[a], *pairs[a], layout, minc, stats, found)
        if max_len is None or max_len > 2:
            stack += [(child, 2, None, bs[a], bi[a]) for child, _ in children]
    while stack:
        pattern, plen, ends, s_found, i_found = stack.pop()
        y = pattern[-1][-1]
        if ends is None:
            ends = _pattern_ends(pattern, layout)
        if len(pattern[-1]) > 1:  # an i-step child
            s_mask, i_mask = s_found & bs[y], i_found & bi[y]
        else:  # an s-step child: S(P) bounds its s-steps only on unbounded gaps
            s_mask, i_mask = (bs[y] if layout.bounded else s_found & bs[y]), s_found & bi[y]
        children, s_found, i_found = _children(
            pattern, ends, listed[s_mask], listed[i_mask], layout, minc, stats, found
        )
        if max_len is None or plen + 1 < max_len:
            stack += [(c, plen + 1, c_ends, s_found, i_found) for c, c_ends in children]

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
