"""Level-wise frequent-itemset mining and association-rule generation.

The miner follows the classic scheme (apriori-gen, Agrawal & Srikant, VLDB
1994): pass m counts only candidates built from the frequent
(m-1)-itemsets, and a candidate survives generation only if all of its
(m-1)-subsets were frequent. Two of those subsets are the joined itemsets
themselves; the subset without the first item is tested next, because it
rejects most joins, and only then, from m = 4 up, the middle ones.
Counting is by tidset intersection in bitmap form (Zaki, IEEE TKDE 2000):
every frequent itemset carries a Python-int bitmask of the transactions
that contain it, and a candidate's mask is the AND of the masks of the two
(m-1)-itemsets it was joined from, so no pass rescans the transactions.
Rules keep X -> Z \\ X when count(X) is at most one integer bound computed
per Z from the exact confidence threshold. Transactions here are plain
itemsets; time plays no role.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations, groupby

from seqmine.errors import (
    EmptyDatabaseError,
    InvalidThresholdError,
    MissingSubsetSupportError,
    MixedSizesError,
)
from seqmine.model import Itemset, exact_fraction, item_ints, min_count


FrequentItemset = namedtuple("FrequentItemset", "itemset count support")
AssociationRule = namedtuple("AssociationRule", "antecedent consequent support confidence")


def generate_candidates(frequent_prev: Sequence[Itemset]) -> list[Itemset]:
    """Join frequent (m-1)-itemsets into m-candidates and prune by subsets.

    Two itemsets a < b sharing their first m-2 items join into the
    candidate ``a + b[-1:]``; it is kept only if every (m-1)-subset is
    itself in the input. Dropping its last item gives a, and the item
    before it b, so those two hold by construction. The subset without the
    first item is tested inline next; at m = 3 it is the whole test, and
    on larger inputs it rejects most joins before any of the m - 3 middle
    subsets (m >= 4 only) is built. Output is sorted and duplicate-free.
    """
    if not frequent_prev:
        return []
    sizes = {len(i) for i in frequent_prev}
    if len(sizes) != 1:
        raise MixedSizesError(f"input itemsets have mixed sizes: {sorted(sizes)}")
    prev_set = set(frequent_prev)
    prev = sorted(prev_set)
    m = len(prev[0]) + 1
    candidates = []
    for _, group in groupby(prev, key=lambda i: i[:-1]):
        for a, b in combinations(group, 2):
            candidate = a + b[-1:]
            if candidate[1:] in prev_set and (
                m < 4
                or all(candidate[:i] + candidate[i + 1 :] in prev_set for i in range(1, m - 2))
            ):
                candidates.append(candidate)
    return candidates  # already sorted: prev is, and so is each group's pair order


def _validate_threshold(value: float, name: str) -> Fraction:
    frac = exact_fraction(value)
    if not 0 < frac <= 1:
        raise InvalidThresholdError(f"{name} must be in (0, 1], got {value}")
    return frac


def mine_frequent_itemsets(
    transactions: Sequence[Itemset], min_support: float
) -> list[FrequentItemset]:
    """All itemsets whose count meets ceil(min_support * |transactions|).

    Level 1 gives each item the bitmask of the transactions that hold it,
    from :func:`seqmine.model.item_ints`, so unsorted or repeated items in
    a transaction count once.
    Level m takes its candidates from :func:`generate_candidates` (so every
    (m-1)-subset of a counted candidate is frequent; the subset without the
    first item is checked first, the middle ones only from m = 4 up) and
    counts candidate ``c`` as the popcount of
    ``mask[c[:-1]] & mask[c[:-2] + c[-1:]]``;
    only the previous level's masks are kept, each dropped after its last
    use. Mining stops at the first level that yields nothing frequent.
    Output is sorted by (size, lexicographic).
    """
    _validate_threshold(min_support, "min_support")
    if not transactions:
        raise EmptyDatabaseError("mine_frequent_itemsets needs transactions")
    n = len(transactions)
    minc = min_count(min_support, n)

    masks = {(i,): mask for i, mask in item_ints(transactions).items() if mask.bit_count() >= minc}
    frequent = {i: mask.bit_count() for i, mask in masks.items()}

    while masks:
        level_masks = {}
        a = None
        for c in generate_candidates(list(masks)):
            if c[:-1] != a:
                # candidates arrive sorted, and each reads only masks at or
                # above its own c[:-1], so a's mask is dead once c moves on
                masks.pop(a, None)
                a = c[:-1]
            mask = masks[a] & masks[c[:-2] + c[-1:]]
            count = mask.bit_count()
            if count >= minc:
                level_masks[c] = mask
                frequent[c] = count
        masks = level_masks

    return [
        FrequentItemset(itemset, count, count / n)
        for itemset, count in sorted(frequent.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]


def generate_rules(
    frequent: Sequence[FrequentItemset], min_confidence: float
) -> list[AssociationRule]:
    """Emit X -> Z \\ X for every frequent Z and non-empty proper X subset of Z.

    Confidence is support(Z) / support(X); a rule is emitted iff its
    confidence reaches ``min_confidence``. With ``num/den`` the threshold
    as an exact fraction, count(Z) / count(X) >= num / den holds exactly
    when count(X) <= count(Z) * den // num, so each Z computes that one
    integer bound and each X costs one comparison. Every subset X must be
    in ``frequent`` (MissingSubsetSupportError otherwise), even where no
    rule comes of it. The rule inherits Z's support.
    Output order: Z in (size, lexicographic) order, then X likewise.
    """
    min_conf = _validate_threshold(min_confidence, "min_confidence")
    num, den = min_conf.numerator, min_conf.denominator
    count_by_itemset = {f.itemset: f.count for f in frequent}
    rules = []
    for f in sorted(frequent, key=lambda f: (len(f.itemset), f.itemset)):
        z = f.itemset
        # count(Z) / count(X) >= num / den  <=>  count(X) <= count(Z) * den // num
        limit = f.count * den // num
        for size in range(1, len(z)):
            for x in combinations(z, size):
                cx = count_by_itemset.get(x)
                if cx is None:
                    raise MissingSubsetSupportError(f"support of subset {x} is missing")
                if cx <= limit:
                    consequent = tuple(i for i in z if i not in x)
                    rules.append(AssociationRule(x, consequent, f.support, f.count / cx))
    return rules
