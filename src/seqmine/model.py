"""Shared vocabulary for the mining toolkit.

Items are dense integer ids issued by an :class:`Alphabet`. An itemset is a
strictly ascending tuple of item ids, a pattern is a non-empty tuple of
itemsets, and a data-sequence is parallel ``times`` and ``itemsets`` tuples:
transaction j has itemset ``itemsets[j]`` at integer time ``times[j]``, the
times strictly increasing. Containment of a pattern in a data-sequence
optionally honors gap constraints between consecutive matched elements:

* ``min_gap``   -- exclusive lower bound on the time difference,
* ``max_gap``   -- inclusive upper bound on the time difference,
* ``max_index_gap`` -- maximum number of transactions skipped in between.

Counting works on one bit string for the whole database (SPAM's vertical
bitmaps, Ayres et al., KDD 2002), held as a Python int so that one C-level
big-int operation covers every sequence at once. Sequence s takes one bit
per transaction, followed by one **sentinel** bit that no item ever sets.
A database holds its sequences in that order as :class:`Columns`: flat
``times`` and ``itemsets`` tuples with one entry per bit, a sentinel's
entry included, beside each sequence's id and first position. The
sequence-CSV loader fills the columns in one pass, and ``db.sequences``
builds :class:`DataSequence` objects from them only when it is read.
:func:`item_ints` is the one builder of per-item bitmaps: in one scan of
any iterable of rows it gives each item met the int of the rows that hold
it, so a loader can feed it rows as it parses them and keep none.
:func:`bit_layout` reads the columns and is the one reader of the gap
rules: it builds the :class:`BitLayout` of a database, an int for every
item from :func:`item_ints` and the masks the rules come down to, so the
sequence miners read each item's support off its int. Its one loop over
the step lengths k serves every gap rule: an int ``same``, ANDed at each
step with ``real`` (every bit but the sentinels) shifted by k, marks the
positions j whose positions j - k to j all lie in one sequence. It bounds
every step's mask, and the loop ends when no sequence is long enough for
another step. A pattern's projection is then one int ``ends``: the
positions where its last element can end, in every sequence at once.

* :func:`count_sequences` counts the sequences with a bit in ``ends``:
  ``((ends | sentinels) - starts) & sentinels`` keeps a sequence's sentinel
  exactly when the borrow from its first bit stops below it, that is when
  the sequence has a bit set. The sentinel stops every borrow, so no
  sequence's bits reach its neighbor's.
* :func:`first_allowed` is the one loop over the gap rules' steps: it
  shifts ``ends`` by each allowed step. Its shifts are bounded by a
  constraint, never by a sequence's length, and a mask drops every bit a
  shift carried past a sentinel. Under ``max_gap`` or ``max_index_gap``
  every end steps, and the positions reached are all those the next
  element may take. Otherwise only each sequence's lowest end steps, and
  each sequence gets at most one bit: the first position the next element
  may take, from which every later one is allowed too.
* :func:`extend` gives the positions the next element may take: the
  positions :func:`first_allowed` gives under bounded gaps, and otherwise
  their :func:`fill`, every position from each up to the sentinel.
* :func:`frequent_layout` gives each frequent item the ``upto`` int its
  s-candidate is tested against, so item x extends a pattern in a sequence
  exactly where ``first & upto[x]`` has a bit, ``first`` being what
  :func:`first_allowed` gives. Under bounded gaps ``upto`` is the items
  dict itself. Otherwise ``upto[x]`` holds every position of each sequence
  up to x's last occurrence in it (LAPIN's last-position test, Yang, Wang &
  Kitsuregawa, DASFAA 2007), and as ``first`` has at most one bit per
  sequence an s-extension's count is ``(first & upto[x]).bit_count()``:
  one AND and one popcount.

:func:`contains` and :func:`support`, GSP and PrefixSpan all grow ``ends``
with :func:`extend`. The itemset miner takes its level-1 masks from
:class:`Baskets`, whose ints :func:`item_ints` builds.
:func:`support` counts on the layout of the database's own columns, which
the database keeps for the gap rules of the last call; neither builds
``upto``, which only the miners read past level 1.
:func:`unit_fraction` is the one check of a threshold, be it a support, a
confidence, sigma or epsilon: it refuses a value that is not finite or not
in (0, 1], and gives the rest as the exact fraction every count is taken
from. The configs, both itemset functions, the itemset oracle and the CLI
call it.
Every type is immutable after construction, except that a database builds
its ``sequences`` once and keeps that layout, and every function here is
pure except :func:`support`, which fills the database's layout slot.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from operator import ge, index, length_hint

from seqmine.errors import (
    EmptyDatabaseError,
    EmptyElementError,
    EmptyPatternError,
    InvalidConstraintsError,
    InvalidThresholdError,
)

Itemset = tuple[int, ...]
Pattern = tuple[Itemset, ...]
# one data-sequence as (seq_id, times, itemsets)
Run = tuple[str, tuple[int, ...], tuple[Itemset, ...]]


class Alphabet:
    """Bidirectional token <-> dense id table.

    Ids are assigned densely in first-intern order, so a database loaded
    twice from the same text gets identical ids.
    """

    __slots__ = ("_id_by_token", "_tokens")

    def __init__(self, tokens: Iterable[str] = ()):
        self._id_by_token: dict[str, int] = {}
        self._tokens: list[str] = []
        for token in tokens:
            self.intern(token)

    def intern(self, token: str) -> int:
        """Return the id for ``token``, assigning the next dense id if new."""
        try:
            return self._id_by_token[token]
        except KeyError:
            item_id = len(self._tokens)
            self._id_by_token[token] = item_id
            self._tokens.append(token)
            return item_id

    def token(self, item_id: int) -> str:
        return self._tokens[item_id]

    def tokens(self) -> tuple[str, ...]:
        return tuple(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: object) -> bool:
        return token in self._id_by_token

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._tokens == other._tokens

    def __repr__(self) -> str:
        return f"Alphabet({self._tokens!r})"


def anonymous_alphabet(size: int) -> Alphabet:
    """An alphabet with placeholder tokens, for databases built from raw ids."""
    return Alphabet(f"item{i}" for i in range(size))


class _Checked:
    """Base of a named tuple that checks its fields when it is built: the
    subclass's ``_check`` raises for an invalid instance. namedtuple's
    ``_replace`` builds through ``_make``, so it checks too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _check_integers(self, error: type[Exception], names: str) -> None:
        """Raise ``error`` naming the first of the space-separated fields
        ``names`` that is not an integer, as :func:`operator.index` reads
        one. A field whose default is None, which means unbounded, may be
        None."""
        for name in names.split():
            value = getattr(self, name)
            if value is None and self._field_defaults.get(name, 0) is None:
                continue
            try:
                index(value)
            except TypeError:
                raise error(f"{name} must be an integer, got {value!r}") from None


class DataSequence(_Checked, namedtuple("DataSequence", "seq_id times itemsets")):
    """The transactions of one entity, as parallel ``times`` and ``itemsets``:
    a ``(seq_id, times, itemsets)`` :data:`Run`.

    Construction (and ``_replace``) raises :class:`EmptyElementError` for a
    sequence with no transactions or an empty itemset, and
    :class:`ValueError` when an itemset is not strictly ascending, the times
    do not strictly increase, or the two tuples differ in length.
    """

    __slots__ = ()

    def _check(self):
        if not self.itemsets:
            raise EmptyElementError(f"data-sequence {self.seq_id!r} has no transactions")
        if len(self.times) != len(self.itemsets):
            raise ValueError(f"data-sequence {self.seq_id!r} times and itemsets differ in length")
        if any(map(ge, self.times, self.times[1:])):
            raise ValueError(f"data-sequence {self.seq_id!r} times not strictly increasing")
        for items in self.itemsets:
            if not items:
                raise EmptyElementError(f"data-sequence {self.seq_id!r} has an empty itemset")
            if any(map(ge, items, items[1:])):
                raise ValueError(f"transaction items not strictly ascending: {items}")


class Columns(namedtuple("Columns", "seq_ids firsts times itemsets")):
    """Data-sequences as flat columns, the form the miners read.

    ``seq_ids`` and ``firsts`` hold one entry per sequence: its id and the
    position of its first transaction. ``times`` and ``itemsets`` hold one
    entry per position: sequence s takes the positions from ``firsts[s]``
    on, one per transaction in time order, then one **sentinel** entry
    with time 0 and itemset ``()``. Position j is bit j of a
    :class:`BitLayout`. All four are tuples.
    """

    __slots__ = ()

    @classmethod
    def from_runs(cls, runs: Iterable[Run]) -> Columns:
        """The columns of ``(seq_id, times, itemsets)`` runs, in order; the
        runs are taken as they are, unchecked."""
        seq_ids: list[str] = []
        firsts: list[int] = []
        times: list[int] = []
        itemsets: list[Itemset] = []
        for seq_id, run_times, run_itemsets in runs:
            seq_ids.append(seq_id)
            firsts.append(len(itemsets))
            times += run_times
            times.append(0)
            itemsets += run_itemsets
            itemsets.append(())
        return cls(tuple(seq_ids), tuple(firsts), tuple(times), tuple(itemsets))

    def sentinels(self) -> list[int]:
        """The position of each sequence's sentinel."""
        firsts = self.firsts
        return [f - 1 for f in firsts[1:]] + [len(self.itemsets) - 1] if firsts else []

    def runs(self) -> Iterator[Run]:
        """``(seq_id, times, itemsets)`` of each sequence, in order."""
        times, itemsets = self.times, self.itemsets
        for seq_id, first, last in zip(self.seq_ids, self.firsts, self.sentinels()):
            yield seq_id, times[first:last], itemsets[first:last]


class SequenceDatabase:
    """Data-sequences held as :class:`Columns`, plus the symbol table their
    ids refer to.

    ``SequenceDatabase(sequences, alphabet)`` flattens the data-sequences
    once, and raises :class:`ValueError` for a repeated seq_id; a loader
    that builds the columns itself hands them to :meth:`from_columns`.
    ``sequences`` is the database as a tuple of :class:`DataSequence`,
    built from the columns on first use; the miners never read it.
    """

    __slots__ = ("columns", "alphabet", "_sequences", "_layout")

    def __init__(self, sequences: Iterable[DataSequence], alphabet: Alphabet):
        sequences = tuple(sequences)
        self.columns = Columns.from_runs(sequences)
        if len(set(self.columns.seq_ids)) != len(sequences):
            raise ValueError("duplicate seq_id in database")
        self.alphabet = alphabet
        self._sequences: tuple[DataSequence, ...] | None = sequences
        # (gap rules, their BitLayout of the columns), kept by support()
        self._layout: tuple[tuple, BitLayout] | None = None

    @classmethod
    def from_columns(cls, columns: Columns, alphabet: Alphabet) -> SequenceDatabase:
        """A database over ``columns`` as they are: its sequences must be
        valid data-sequences with distinct seq_ids."""
        db = cls.__new__(cls)
        db.columns, db.alphabet, db._sequences, db._layout = columns, alphabet, None, None
        return db

    @property
    def sequences(self) -> tuple[DataSequence, ...]:
        if self._sequences is None:
            self._sequences = tuple(DataSequence(*run) for run in self.columns.runs())
        return self._sequences

    def __len__(self) -> int:
        return len(self.columns.seq_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceDatabase):
            return NotImplemented
        return self.columns == other.columns and self.alphabet == other.alphabet

    def __repr__(self) -> str:
        return f"SequenceDatabase({self.sequences!r}, {self.alphabet!r})"


def exact_fraction(x) -> Fraction:
    """Recover the decimal fraction a float argument was meant to express.

    Thresholds arrive as floats (0.25, 0.07, ...). Multiplying floats by
    database sizes and flooring/ceiling them is exactly the kind of place
    where 0.07 * 100 == 7.000000000000001 ruins a count, so every threshold
    comparison in the toolkit goes through this, after :func:`unit_fraction`
    has checked the threshold. A nonzero value too small to round (below
    5e-10) keeps its exact binary value, so that a positive threshold never
    becomes 0.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    exact = Fraction(x)
    return exact.limit_denominator(10**9) or exact


def unit_fraction(value, name: str, error: type[Exception] = InvalidThresholdError) -> Fraction:
    """The threshold ``value`` as :func:`exact_fraction` makes it, checked:
    a value that is not finite raises :class:`InvalidThresholdError`, and
    one outside (0, 1] raises ``error``, each message naming ``name``. The
    range is tested on the value as given, so a value just above 1 is
    refused even where it would round to 1. Every support, confidence,
    sigma and epsilon threshold in the toolkit is checked here.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidThresholdError(f"threshold must be a finite number, got {value} for {name}")
    if not 0 < Fraction(value) <= 1:
        raise error(f"{name} must be in (0, 1], got {value}")
    return exact_fraction(value)


class Constraints(
    _Checked,
    namedtuple(
        "Constraints",
        "min_support min_gap max_gap max_index_gap max_length",
        defaults=(1.0, 0, None, None, None),
    ),
):
    """Mining parameters: a support threshold plus containment constraints.

    ``min_gap`` is an exclusive lower bound and ``max_gap`` an inclusive upper
    bound on the transaction-time difference between consecutive matched
    elements; ``max_index_gap`` caps how many transactions may sit between
    them; ``max_length`` caps the number of items in a pattern. ``None``
    means unbounded.

    Construction (and ``_replace``) raises :class:`InvalidConstraintsError`
    for an inconsistent set, a ``min_support`` outside (0, 1], a
    ``min_gap`` that is not an integer, or another gap or length field that
    is neither None nor an integer (a bool counts as one), and
    :class:`InvalidThresholdError` for a non-finite ``min_support``
    (:func:`unit_fraction`), so every instance is valid.
    """

    __slots__ = ()

    def _check(self):
        self._check_integers(InvalidConstraintsError, "min_gap max_gap max_index_gap max_length")
        unit_fraction(self.min_support, "min_support", InvalidConstraintsError)
        if self.min_gap < 0:
            raise InvalidConstraintsError(f"min_gap must be >= 0, got {self.min_gap}")
        if self.max_gap is not None and self.min_gap >= self.max_gap:
            raise InvalidConstraintsError(
                f"min_gap ({self.min_gap}) must be < max_gap ({self.max_gap})"
            )
        if self.max_index_gap is not None and self.max_index_gap < 0:
            raise InvalidConstraintsError(f"max_index_gap must be >= 0, got {self.max_index_gap}")
        if self.max_length is not None and self.max_length < 1:
            raise InvalidConstraintsError(f"max_length must be >= 1, got {self.max_length}")


UNCONSTRAINED = Constraints()


class SupportedPattern(namedtuple("SupportedPattern", "pattern count support")):
    """A pattern together with how many data-sequences contain it."""

    __slots__ = ()


def canonicalize(raw_pattern: Sequence[Sequence[int]]) -> Pattern:
    """Sort and dedupe every element, preserving element order.

    Raises :class:`EmptyPatternError` for a pattern with no elements and
    :class:`EmptyElementError` if any element list is empty.
    """
    if not raw_pattern:
        raise EmptyPatternError("pattern has no elements")
    elements = []
    for element in raw_pattern:
        if not element:
            raise EmptyElementError("pattern element is empty")
        elements.append(tuple(sorted(set(element))))
    return tuple(elements)


def pattern_length(pattern: Pattern) -> int:
    """Total number of items summed over all elements."""
    return sum(len(e) for e in pattern)


def pattern_sort_key(pattern: Pattern) -> tuple[int, Pattern]:
    return (pattern_length(pattern), pattern)


def min_count(min_support, db_size: int) -> int:
    """Absolute minimum count for a threshold :func:`unit_fraction` accepts:
    ceil(s * n)."""
    return math.ceil(exact_fraction(min_support) * db_size)


class BitLayout(namedtuple("BitLayout", "starts sentinels real items bounded steps upto")):
    """A database's columns as one bit string, with the gap rules as masks.

    ``starts``, ``sentinels`` and ``real`` are ints used as bit sets,
    ``items`` maps each item id to its int, ``bounded`` is a bool and
    ``steps`` a tuple of ``(k, mask)`` int pairs.

    Transaction j of a sequence whose first bit is ``o`` is bit ``o + j``;
    the sentinel after the sequence is never set in ``items`` or ``real``.
    ``steps`` holds ``(k, mask)`` pairs read by :func:`first_allowed`:
    with ``bounded`` set (``max_gap`` or ``max_index_gap``), bit j of
    ``mask`` says that an element matched at transaction j - k may be
    followed by one at j; otherwise it says that j is the first transaction
    allowed after one matched at j - k, and every later one is allowed too.
    A mask never marks j unless j - k lies in j's sequence; with no gap rule
    the one step is k = 1, marking every position but each sequence's first.
    ``upto`` is None on a layout :func:`bit_layout` builds. On one
    :func:`frequent_layout` builds it maps each item id to the int an
    s-candidate by the item is tested against: the ``items`` dict itself
    when ``bounded`` is set, each item's last-position int otherwise.
    """

    __slots__ = ()


class Baskets(namedtuple("Baskets", "size items")):
    """Transactions as one int per item, the form the itemset miner reads:
    ``size`` is the number of baskets, and ``items`` maps each item id to
    its int, with bit j set where basket j, in file order, holds the item.
    """

    __slots__ = ()


def _int_of(bits: Iterable[int], size: int) -> int:
    buf = bytearray((size + 7) >> 3)
    for b in bits:
        buf[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(buf, "little")


def item_ints(rows: Iterable[Iterable[int]]) -> dict[int, int]:
    """Each item met in ``rows`` -> its int, with bit j set where row j
    holds the item; an item repeated in a row sets its bit once.

    ``rows`` may be any iterable, a generator included, and is read once.
    The bits go into one byte row per item, set in place during the scan:
    OR-ing them into a growing int would copy the int once per row,
    quadratic in the number of rows. The byte rows start as wide as
    ``len(rows)`` needs when ``rows`` tells its length, and every one of
    them doubles when a row's bit falls past their end, checked once per
    row.
    """
    width = (length_hint(rows) + 7) >> 3
    found: dict[int, bytearray] = {}
    for j, row in enumerate(rows):
        byte, bit = j >> 3, 1 << (j & 7)
        if byte == width:
            pad = bytes(width or 8)
            width += len(pad)
            for got in found.values():
                got += pad
        for item in row:
            got = found.get(item)
            if got is None:
                got = found[item] = bytearray(width)
            got[byte] |= bit
    return {item: int.from_bytes(got, "little") for item, got in found.items()}


def bit_layout(columns: Columns, constraints: Constraints) -> BitLayout:
    """Lay ``columns`` out as one bit string, bit j for position j, with an
    int for every item (:func:`item_ints`), and turn the gap rules into
    shift masks.

    One loop builds the masks of every gap rule. At step k, ``same`` marks
    each j whose positions j - k to j are all real, so all lie in one
    sequence: a sentinel sits between any two. Step k's mask is ``same``
    ANDed with the time test of the gap rule, and the loop ends once
    ``same`` is empty, as no sequence has more than k transactions.

    With ``max_gap`` or ``max_index_gap`` set, step k is allowed when the
    time from j - k to j lies in (min_gap, max_gap] and at most
    ``max_index_gap`` transactions sit between; times strictly increase,
    so k never exceeds ``max_gap``. Otherwise the allowed positions after
    an element are a suffix of its sequence, and step k marks where that
    suffix starts; it starts within ``min_gap + 1`` transactions. With no
    gap rule at all it starts at the very next one: the time test cannot
    fail, so it is skipped, and step 1's mask is ``same`` itself.
    """
    c = constraints
    size = len(columns.itemsets)
    sentinels = _int_of(columns.sentinels(), size)
    real = ((1 << size) - 1) ^ sentinels

    min_gap, high = c.min_gap, math.inf if c.max_gap is None else c.max_gap
    bounded = c.max_gap is not None or c.max_index_gap is not None
    if bounded:
        reach = min(high, math.inf if c.max_index_gap is None else c.max_index_gap + 1)
    else:
        reach = min_gap + 1
    times, steps, same = columns.times, [], real
    for k in range(1, reach + 1):
        same &= real << k
        if not same:
            break
        mask = same
        if bounded or min_gap:
            marked = [
                j
                for j, t, before, start in zip(range(k, size), times[k:], times[k - 1:], times)
                if min_gap < t - start <= high and (bounded or before - start <= min_gap)
            ]
            mask &= _int_of(marked, size)
        if mask:
            steps.append((k, mask))
    return BitLayout(
        starts=_int_of(columns.firsts, size),
        sentinels=sentinels,
        real=real,
        items=item_ints(columns.itemsets),
        bounded=bounded,
        steps=tuple(steps),
        upto=None,
    )


def count_sequences(ends: int, layout: BitLayout) -> int:
    """How many sequences have a bit set in ``ends``."""
    sentinels = layout.sentinels
    return (((ends | sentinels) - layout.starts) & sentinels).bit_count()


def extend(ends: int, layout: BitLayout) -> int:
    """Positions the next element may take after an element ending at
    ``ends``; the one function that applies the gap rules.

    Under ``max_gap`` or ``max_index_gap`` they are the positions
    :func:`first_allowed` gives. Otherwise they are its :func:`fill`: every
    position from the first one allowed is allowed.
    """
    first = first_allowed(ends, layout)
    return first if layout.bounded else fill(first, layout)


def first_allowed(ends: int, layout: BitLayout) -> int:
    """The positions ``ends`` reaches through the layout's steps. Under
    ``max_gap`` or ``max_index_gap`` every end steps, and these are all the
    positions the next element may take. Otherwise only the lowest end of
    each sequence steps, and this is the first position the next element
    may take: at most one bit per sequence, none where nothing may follow."""
    if not layout.bounded:
        # the lowest end of each sequence: its borrow stops there
        h = ends | layout.sentinels
        ends = (h ^ (h - layout.starts)) & ends
    out = 0
    for k, mask in layout.steps:
        out |= (ends << k) & mask
    return out


def fill(first: int, layout: BitLayout) -> int:
    """Every position from each bit of ``first`` (at most one per sequence)
    up to its sequence's sentinel, which the mask drops; a sequence with no
    bit keeps only its sentinel, so it gets none."""
    return (layout.sentinels - first) & layout.real


def frequent_layout(layout: BitLayout, frequent: Iterable[int]) -> BitLayout:
    """``layout`` holding the ints of the ``frequent`` items only, with
    ``upto`` set to the int each one's s-candidate is tested against:
    item x extends a pattern in a sequence exactly where
    :func:`first_allowed` has a bit of ``upto[x]``. Under ``max_gap`` or
    ``max_index_gap`` that is the item's own int, and ``upto`` is the
    ``items`` dict itself. Otherwise the next element may take a suffix of
    each sequence, from the one bit :func:`first_allowed` gives, and
    ``upto[x]`` is every position of each sequence up to x's last
    occurrence in it.

    Those ints are smeared down within each sequence by doubling steps: at
    step k, ``span`` marks the j whose positions j to j + k all lie in one
    sequence, and the steps go on while some sequence is longer than k.
    """
    items = {i: layout.items[i] for i in frequent}
    # a bounded layout's s-candidates are tested against the item ints: no smear
    upto, k, span = items, 1, 0 if layout.bounded else layout.real & (layout.real >> 1)
    while span:
        upto = {i: bits | ((bits >> k) & span) for i, bits in upto.items()}
        span, k = span & (span >> k), 2 * k
    return layout._replace(items=items, upto=upto)


def _pattern_ends(pattern: Pattern, layout: BitLayout) -> int:
    items = layout.items
    ends = layout.real
    for k, element in enumerate(pattern):
        if k:
            ends = extend(ends, layout)
        for item in element:
            ends &= items.get(item, 0)
        if not ends:
            break
    return ends


def contains(pattern: Pattern, seq: DataSequence, constraints: Constraints | None = None) -> bool:
    """True iff ``pattern`` embeds into ``seq`` under the gap constraints.

    An embedding maps elements to transactions at strictly increasing
    indices, each element a subset of its transaction, with every
    consecutive pair satisfying the gap constraints. The search keeps the
    full frontier of feasible end positions per element, because with an
    active ``max_gap`` a greedy earliest match is not sound: it grows the
    pattern's projection on the layout of ``seq`` alone.
    """
    layout = bit_layout(Columns.from_runs((seq,)), constraints or UNCONSTRAINED)
    return _pattern_ends(pattern, layout) != 0


def support(
    pattern: Pattern, db: SequenceDatabase, constraints: Constraints | None = None
) -> SupportedPattern:
    """Count supporting data-sequences; each sequence contributes at most 1.

    The count is read off the layout of ``db.columns``. The database keeps
    the layout of its last call, keyed on the gap rules (``min_gap``,
    ``max_gap``, ``max_index_gap``), the only fields :func:`bit_layout`
    reads, so a run of calls under one set of gap rules builds it once.
    """
    if not len(db):
        raise EmptyDatabaseError("support needs a non-empty database")
    c = constraints or UNCONSTRAINED
    # read the slot once: a concurrent call may replace it
    kept = db._layout
    if kept is None or kept[0] != c[1:4]:
        kept = db._layout = (c[1:4], bit_layout(db.columns, c))
    layout = kept[1]
    count = count_sequences(_pattern_ends(pattern, layout), layout)
    return SupportedPattern(pattern, count, count / len(db))


def itemset_support(itemset: Itemset, transactions: Sequence[Itemset]) -> tuple[int, float]:
    """(count, fraction) of transactions containing ``itemset``."""
    if not transactions:
        raise EmptyDatabaseError("itemset_support needs a non-empty transaction list")
    wanted = frozenset(itemset)
    count = sum(1 for t in transactions if wanted <= frozenset(t))
    return count, count / len(transactions)
