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
Level 2 takes every pair of frequent items from one join; from there the
itemsets are mined one prefix class at a time (Zaki's equivalence classes,
same paper). The class of item a is every itemset whose smallest item is
a; itemsets of two or more items join only when they share all but their
last item, so a class's joins never leave it. Classes run in descending
a, each level by level until it yields nothing, so the masks held at once
are those of two adjacent levels of one class, never a whole level's. The
subset tests read every itemset found so far: the subset without the first
item starts with a larger item, whose class is finished, and the middle
ones lie in the class's previous level. So the per-class joins together
are exactly the level-wise join, candidate for candidate. "Smallest" is
by ascending count: the items are mined under their ranks in that order
and named by their ids again in the output, so the most frequent items,
which would head the widest classes, head the smallest.
Level 1 is :func:`frequent_items`, one popcount per item. Its itemsets are
final before any pair is counted, and they sort first, so the CLI writes
them while the deeper levels are still to be mined.
Rules keep X -> Z \\ X when count(X) is at most one integer bound computed
per Z from the exact confidence threshold. The miner reads the
transactions only as each item's bitmask, a :class:`seqmine.model.Baskets`,
so no object is held per transaction; time plays no role.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Container, Sequence
from itertools import combinations, groupby
from operator import itemgetter

from seqmine.errors import MissingSubsetSupportError, MixedSizesError
from seqmine.model import Baskets, Itemset, item_ints, min_count, unit_fraction


FrequentItemset = namedtuple("FrequentItemset", "itemset count support")
AssociationRule = namedtuple("AssociationRule", "antecedent consequent support confidence")


def generate_candidates(
    frequent_prev: Sequence[Itemset], known: Container[Itemset] | None = None
) -> list[Itemset]:
    """Join frequent (m-1)-itemsets into m-candidates and prune by subsets.

    Two itemsets a < b sharing their first m-2 items join into the
    candidate ``a + b[-1:]``; it is kept only if every (m-1)-subset is
    frequent: in ``known`` when it is given, else in the input itself.
    Dropping its last item gives a, and the item before it b, so those two
    hold by construction. The subset without the first item is tested
    inline next; at m = 3 it is the whole test, and on larger inputs it
    rejects most joins before any of the m - 3 middle subsets (m >= 4
    only) is built. Output is sorted and duplicate-free.

    :func:`mine_frequent_itemsets` joins one prefix class at a time and
    passes every itemset found so far as ``known``, because the subset
    without the first item lies in another class.
    """
    if not frequent_prev:
        return []
    sizes = {len(i) for i in frequent_prev}
    if len(sizes) != 1:
        raise MixedSizesError(f"input itemsets have mixed sizes: {sorted(sizes)}")
    prev_set = set(frequent_prev)
    if known is None:
        known = prev_set
    prev = sorted(prev_set)
    m = len(prev[0]) + 1
    candidates = []
    for _, group in groupby(prev, key=lambda i: i[:-1]):
        for a, b in combinations(group, 2):
            candidate = a + b[-1:]
            if candidate[1:] in known and (
                m < 4
                or all(candidate[:i] + candidate[i + 1 :] in known for i in range(1, m - 2))
            ):
                candidates.append(candidate)
    return candidates  # already sorted: prev is, and so is each group's pair order


def frequent_items(transactions: Baskets, min_support: float) -> list[FrequentItemset]:
    """The frequent 1-itemsets of ``transactions``, in ascending id order:
    each item whose count, the popcount of its bitmask, meets
    ceil(min_support * size). It is level 1 of
    :func:`mine_frequent_itemsets`; no baskets raise EmptyDatabaseError
    (:func:`~seqmine.model.min_count`).
    """
    unit_fraction(min_support, "min_support")
    n = transactions.size
    minc = min_count(min_support, n)
    found = []
    for i, mask in sorted(transactions.items.items()):
        count = mask.bit_count()
        if count >= minc:
            found.append(FrequentItemset((i,), count, count / n))
    return found


def mine_frequent_itemsets(
    transactions: Baskets | Sequence[Itemset], min_support: float
) -> list[FrequentItemset]:
    """All itemsets whose count meets ceil(min_support * |transactions|).

    ``transactions`` is a :class:`seqmine.model.Baskets`, as
    :func:`seqmine.dataset.load_transactions` gives, or a sequence of
    itemsets, which is laid out as one first. Level 1 is
    :func:`frequent_items` over the Baskets' ints, built by
    :func:`seqmine.model.item_ints`, so unsorted or repeated items in a
    transaction count once; the frequent items are then renamed by their
    rank in ascending count (ties by id) until the output. Level 2's
    candidates are one :func:`generate_candidates` call on the frequent
    items. Then each prefix class (the itemsets whose smallest item is a),
    in descending a, is mined level by level until it yields nothing: its
    level m takes its candidates from :func:`generate_candidates` on the
    class's level m-1, with every itemset found so far as ``known`` (so
    every (m-1)-subset of a counted candidate is frequent), and counts
    candidate ``c`` as the popcount of
    ``mask[c[:-1]] & mask[c[:-2] + c[-1:]]``. Only the class's previous
    level's masks are kept, each dropped once the candidates have moved
    past it, so the masks held at once are two adjacent levels of one
    class; ranked by count, the most frequent items head the smallest
    classes. The candidates are exactly those of a global level-by-level
    join. The output list is built straight from the counts found, which
    are then dropped, and sorted in place by (size, lexicographic).
    """
    if not isinstance(transactions, Baskets):
        transactions = Baskets(len(transactions), item_ints(transactions))
    # ranks by ascending count: the most frequent items head the smallest classes
    ranked = sorted(
        (count, i, transactions.items[i])
        for (i,), count, _ in frequent_items(transactions, min_support)
    )
    n = transactions.size
    minc = min_count(min_support, n)
    frequent = {(rank,): count for rank, (count, _, _) in enumerate(ranked)}
    pairs = generate_candidates(list(frequent))
    classes = [list(group) for _, group in groupby(pairs, key=itemgetter(0))]

    for class_pairs in reversed(classes):
        masks = {}
        for c in class_pairs:
            mask = ranked[c[0]][2] & ranked[c[1]][2]
            count = mask.bit_count()
            if count >= minc:
                masks[c] = mask
                frequent[c] = count
        while masks:
            level_masks = {}
            prev = list(masks)  # sorted: candidates arrive sorted
            dead = 0
            for c in generate_candidates(prev, frequent):
                a = c[:-1]
                # c reads only masks at or above a, so every mask below it is dead
                while prev[dead] < a:
                    del masks[prev[dead]]
                    dead += 1
                mask = masks[a] & masks[c[:-2] + c[-1:]]
                count = mask.bit_count()
                if count >= minc:
                    level_masks[c] = mask
                    frequent[c] = count
            masks = level_masks

    items = [i for _, i, _ in ranked]
    found = [
        FrequentItemset(tuple(sorted(items[r] for r in ranks)), count, count / n)
        for ranks, count in frequent.items()
    ]
    del frequent
    found.sort(key=lambda f: (len(f.itemset), f.itemset))
    return found


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
    min_conf = unit_fraction(min_confidence, "min_confidence")
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
