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

:func:`reach_masks` is the one reader of these rules and :func:`extend` the
one kernel that applies them: :func:`contains`, GSP and PrefixSpan all grow
end-position bitmasks over ``DataSequence.item_masks`` with it. All types
are immutable after construction and every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import ge
from typing import Iterable, Optional, Sequence

from seqmine.errors import (
    EmptyDatabaseError,
    EmptyElementError,
    EmptyPatternError,
    InvalidConstraintsError,
    InvalidThresholdError,
)

Itemset = tuple[int, ...]
Pattern = tuple[Itemset, ...]


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


@dataclass(frozen=True)
class DataSequence:
    """The transactions of one entity, as parallel ``times`` and ``itemsets``.

    Construction (and ``dataclasses.replace``) raises
    :class:`EmptyElementError` for a sequence with no transactions or an
    empty itemset, and :class:`ValueError` when an itemset is not strictly
    ascending, the times do not strictly increase, or the two tuples differ
    in length.
    """

    seq_id: str
    times: tuple[int, ...]
    itemsets: tuple[Itemset, ...]

    def __post_init__(self):
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

    @cached_property
    def item_masks(self) -> dict[int, int]:
        """Item -> bitmask of the transaction indices holding it."""
        masks: dict[int, int] = {}
        for j, items in enumerate(self.itemsets):
            for item in items:
                masks[item] = masks.get(item, 0) | 1 << j
        return masks


@dataclass(frozen=True)
class SequenceDatabase:
    """A set of data-sequences plus the symbol table their ids refer to."""

    sequences: tuple[DataSequence, ...]
    alphabet: Alphabet

    def __post_init__(self):
        ids = [s.seq_id for s in self.sequences]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate seq_id in database")

    def __len__(self) -> int:
        return len(self.sequences)


def exact_fraction(x) -> Fraction:
    """Recover the decimal fraction a float argument was meant to express.

    Thresholds arrive as floats (0.25, 0.07, ...). Multiplying floats by
    database sizes and flooring/ceiling them is exactly the kind of place
    where 0.07 * 100 == 7.000000000000001 ruins a count, so every threshold
    comparison in the toolkit goes through this, and so does the check that
    rejects an infinite or NaN float.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float) and not math.isfinite(x):
        raise InvalidThresholdError(f"threshold must be a finite number, got {x}")
    return Fraction(x).limit_denominator(10**9)


@dataclass(frozen=True)
class Constraints:
    """Mining parameters: a support threshold plus containment constraints.

    ``min_gap`` is an exclusive lower bound and ``max_gap`` an inclusive upper
    bound on the transaction-time difference between consecutive matched
    elements; ``max_index_gap`` caps how many transactions may sit between
    them; ``max_length`` caps the number of items in a pattern. ``None``
    means unbounded.

    Construction (and ``dataclasses.replace``) raises
    :class:`InvalidConstraintsError` for an inconsistent set and
    :class:`InvalidThresholdError` for a non-finite ``min_support``, so every
    instance is valid.
    """

    min_support: float = 1.0
    min_gap: int = 0
    max_gap: Optional[int] = None
    max_index_gap: Optional[int] = None
    max_length: Optional[int] = None

    def __post_init__(self):
        ms = exact_fraction(self.min_support)
        if not 0 < ms <= 1:
            raise InvalidConstraintsError(f"min_support must be in (0, 1], got {self.min_support}")
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

    @property
    def gaps_unbounded(self) -> bool:
        """True when containment degenerates to plain subsequence matching."""
        return self.min_gap == 0 and self.max_gap is None and self.max_index_gap is None


UNCONSTRAINED = Constraints()


@dataclass(frozen=True)
class SupportedPattern:
    """A pattern together with how many data-sequences contain it."""

    pattern: Pattern
    count: int
    support: float


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
    """Absolute minimum count for a fractional threshold: ceil(s * n)."""
    return math.ceil(exact_fraction(min_support) * db_size)


def reach_masks(times: Sequence[int], constraints: Constraints) -> Optional[tuple[int, ...]]:
    """Bit j of ``reach[i]`` is set iff an element matched at transaction i
    may be followed by one at transaction j; None when gaps are unbounded."""
    c = constraints
    if c.gaps_unbounded:
        return None
    reach = []
    for i, t in enumerate(times):
        stop = len(times) if c.max_index_gap is None else min(len(times), i + 2 + c.max_index_gap)
        mask = 0
        for j in range(i + 1, stop):
            dt = times[j] - t
            if c.max_gap is not None and dt > c.max_gap:
                break
            if dt > c.min_gap:
                mask |= 1 << j
        reach.append(mask)
    return tuple(reach)


def extend(frontier: int, reach: Optional[Sequence[int]]) -> int:
    """Positions the next element may take, given the ``frontier`` of end
    positions; unbounded, every position after the first end (a negative
    int: AND it with an item mask)."""
    if reach is None:
        return -((frontier & -frontier) << 1)
    out = 0
    while frontier:
        low = frontier & -frontier
        out |= reach[low.bit_length() - 1]
        frontier ^= low
    return out


def contains(pattern: Pattern, seq: DataSequence, constraints: Optional[Constraints] = None) -> bool:
    """True iff ``pattern`` embeds into ``seq`` under the gap constraints.

    An embedding maps elements to transactions at strictly increasing
    indices, each element a subset of its transaction, with every
    consecutive pair satisfying the gap constraints. The search keeps the
    full frontier of feasible end positions per element, because with an
    active ``max_gap`` a greedy earliest match is not sound.
    """
    masks = seq.item_masks
    last = len(pattern) - 1
    allowed = -1
    for k, element in enumerate(pattern):
        frontier = allowed
        for item in element:
            frontier &= masks.get(item, 0)
        if not frontier:
            return False
        if k == last:
            break
        if k == 0:
            # only now is a second element known to need the gap rules
            reach = reach_masks(seq.times, constraints or UNCONSTRAINED)
        allowed = extend(frontier, reach)
    return True


def support(
    pattern: Pattern, db: SequenceDatabase, constraints: Optional[Constraints] = None
) -> SupportedPattern:
    """Count supporting data-sequences; each sequence contributes at most 1."""
    if not db.sequences:
        raise EmptyDatabaseError("support needs a non-empty database")
    count = sum(1 for seq in db.sequences if contains(pattern, seq, constraints))
    return SupportedPattern(pattern, count, count / len(db.sequences))


def itemset_support(itemset: Itemset, transactions: Sequence[Itemset]) -> tuple[int, float]:
    """(count, fraction) of transactions containing ``itemset``."""
    if not transactions:
        raise EmptyDatabaseError("itemset_support needs a non-empty transaction list")
    wanted = frozenset(itemset)
    count = sum(1 for t in transactions if wanted <= frozenset(t))
    return count, count / len(transactions)
