"""Level-wise itemset mining and rule generation."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import A, B, C
from strategies import messy_transaction_dbs, transaction_dbs
from synthetic import generate_baskets

from seqmine import itemsets
from seqmine.errors import (
    EmptyDatabaseError,
    InvalidThresholdError,
    MissingSubsetSupportError,
    MixedSizesError,
)
from seqmine.itemsets import (
    FrequentItemset,
    frequent_items,
    generate_candidates,
    generate_rules,
    mine_frequent_itemsets,
)
from seqmine.model import Baskets, exact_fraction, item_ints, itemset_support, min_count
from seqmine.oracle import brute_itemsets


class TestGenerateCandidates:
    def test_triangle_joins_to_triple(self):
        assert generate_candidates([(A, B), (A, C), (B, C)]) == [(A, B, C)]

    def test_disjoint_pairs_produce_nothing(self):
        assert generate_candidates([(A, B), (C, 3)]) == []

    def test_singletons_join_to_all_pairs(self):
        assert generate_candidates([(A,), (B,), (C,)]) == [(A, B), (A, C), (B, C)]

    def test_subset_prune_drops_unsupported_join(self):
        # (A,B) and (A,C) join to (A,B,C) but (B,C) is not frequent
        assert generate_candidates([(A, B), (A, C)]) == []

    def test_mixed_sizes_rejected(self):
        with pytest.raises(MixedSizesError):
            generate_candidates([(A, B), (C,)])

    def test_empty_input(self):
        assert generate_candidates([]) == []

    @settings(max_examples=300)
    @given(st.data())
    def test_equals_plain_definition(self, data):
        # sizes 1-5 over a small universe, so that many joins miss exactly one
        # subset: the first-item one, or (from size 3 up) a middle one
        size = data.draw(st.integers(1, 5), label="size")
        universe = list(combinations(range(data.draw(st.integers(size + 1, 8))), size))
        prev = sorted(data.draw(st.sets(st.sampled_from(universe), min_size=1), label="prev"))
        prev_set = set(prev)
        want = sorted(
            a + b[-1:]
            for a in prev
            for b in prev
            if a[:-1] == b[:-1]
            and a[-1] < b[-1]
            and all(sub in prev_set for sub in combinations(a + b[-1:], size))
        )
        assert generate_candidates(prev) == want


class TestFrequentItems:
    @settings(max_examples=100)
    @given(messy_transaction_dbs(), st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    @example([(A,), (B,)], 1.0)  # no item is frequent
    @example([(C, A), (B,), (A, B, C)], 0.25)  # every item is frequent
    def test_equals_the_one_item_itemsets_of_the_miners(self, transactions, min_support):
        got = frequent_items(Baskets(len(transactions), item_ints(transactions)), min_support)
        for mined in (
            mine_frequent_itemsets(transactions, min_support),
            brute_itemsets(transactions, min_support),
        ):
            assert got == [f for f in mined if len(f.itemset) == 1]


class TestMineFrequentItemsets:
    def test_half_support(self, tdb1):
        got = [(f.itemset, f.count) for f in mine_frequent_itemsets(tdb1, 0.5)]
        assert got == [
            ((A,), 3),
            ((B,), 3),
            ((C,), 3),
            ((A, B), 2),
            ((A, C), 2),
            ((B, C), 2),
        ]

    def test_full_support_empty(self, tdb1):
        assert mine_frequent_itemsets(tdb1, 1.0) == []

    def test_singleton_database(self):
        got = mine_frequent_itemsets([(A,)], 0.5)
        assert [(f.itemset, f.count, f.support) for f in got] == [((A,), 1, 1.0)]

    def test_empty_database_rejected(self):
        with pytest.raises(EmptyDatabaseError):
            mine_frequent_itemsets([], 0.5)

    def test_bad_threshold_rejected(self, tdb1):
        with pytest.raises(InvalidThresholdError):
            mine_frequent_itemsets(tdb1, 0.0)
        with pytest.raises(InvalidThresholdError):
            mine_frequent_itemsets(tdb1, 1.5)

    @settings(max_examples=100)
    @given(transaction_dbs(max_items=6, max_txns=10), st.sampled_from([0.25, 0.5, 0.75]))
    def test_equals_brute_force(self, transactions, min_support):
        mined = mine_frequent_itemsets(transactions, min_support)
        brute = brute_itemsets(transactions, min_support)
        assert [(f.itemset, f.count) for f in mined] == [(f.itemset, f.count) for f in brute]

    def test_unsorted_transaction_counts_its_pair(self):
        got = mine_frequent_itemsets([(2, 1), (1, 2)], 1.0)
        assert [(f.itemset, f.count) for f in got] == [((1,), 2), ((2,), 2), ((1, 2), 2)]

    def test_repeated_item_counts_once(self):
        got = mine_frequent_itemsets([(1, 1, 2), (3,)], 0.5)
        assert [(f.itemset, f.count) for f in got] == [((1,), 1), ((2,), 1), ((3,), 1), ((1, 2), 1)]

    @settings(max_examples=100)
    @given(messy_transaction_dbs(max_items=6, max_txns=10), st.sampled_from([0.25, 0.5, 0.75]))
    def test_non_canonical_transactions_equal_brute_force(self, transactions, min_support):
        mined = mine_frequent_itemsets(transactions, min_support)
        brute = brute_itemsets(transactions, min_support)
        assert [(f.itemset, f.count) for f in mined] == [(f.itemset, f.count) for f in brute]

    @given(transaction_dbs(), st.sampled_from([0.25, 0.5]))
    def test_downward_closure(self, transactions, min_support):
        mined = mine_frequent_itemsets(transactions, min_support)
        emitted = {f.itemset for f in mined}
        for itemset in emitted:
            for drop in range(len(itemset)):
                sub = itemset[:drop] + itemset[drop + 1 :]
                if sub:
                    assert sub in emitted


def planted_baskets(seed, n=400, items=40):
    """Baskets of 1-4 noise items over ``items`` products; about a quarter
    also hold one of three planted sets of 6 or 7 items."""
    rng = random.Random(seed)
    planted = [tuple(range(0, 7)), tuple(range(10, 16)), (3, 4, 20, 21, 22, 23, 24)]
    baskets = []
    for _ in range(n):
        basket = set(rng.sample(range(items), rng.randint(1, 4)))
        if rng.random() < 0.25:
            basket.update(rng.choice(planted))
        baskets.append(tuple(sorted(basket)))
    return baskets


def assert_recounted_and_complete(transactions, min_support):
    """Recount every mined itemset and check the negative border: every
    level-wise candidate left out of the output counts below minc."""
    minc = min_count(min_support, len(transactions))
    mined = {f.itemset: f.count for f in mine_frequent_itemsets(transactions, min_support)}
    for itemset, count in mined.items():
        assert count == itemset_support(itemset, transactions)[0] >= minc
        assert all(sub in mined for sub in combinations(itemset, len(itemset) - 1) if sub)
    level = sorted({(i,) for t in transactions for i in t})
    while level:
        for c in level:
            if c not in mined:
                assert itemset_support(c, transactions)[0] < minc, c
        level = generate_candidates(sorted(i for i in mined if len(i) == len(level[0])))
    return mined


@pytest.mark.parametrize("seed", [3, 17])
def test_levels_past_the_oracle_cap(seed):
    # brute_itemsets stops at 6 items; here levels 6-8 are checked by recounting
    mined = assert_recounted_and_complete(planted_baskets(seed), 0.05)
    assert max(map(len, mined)) >= 7


@settings(max_examples=100)
@given(
    transaction_dbs(min_items=10, max_items=30, max_txns=40, max_size=10),
    st.sampled_from([0.05, 0.1, 0.2]),
)
def test_levels_past_the_oracle_cap_drawn(transactions, min_support):
    # 10-30 items: past brute force, where the prefix classes' subset tests
    # read itemsets of classes mined before them
    assert_recounted_and_complete(transactions, min_support)


def candidates_generated(transactions, min_support):
    """The mined itemsets, and the summed sizes of the results of every
    :func:`generate_candidates` call the mining made."""
    sizes = []

    def counted(*args, **kwargs):
        result = generate_candidates(*args, **kwargs)
        sizes.append(len(result))
        return result

    with mock.patch.object(itemsets, "generate_candidates", counted):
        mined = mine_frequent_itemsets(transactions, min_support)
    return mined, sum(sizes)


def levelwise_candidates(mined):
    """The candidates a global level-by-level join of ``mined`` generates."""
    levels = {}
    for f in mined:
        levels.setdefault(len(f.itemset), []).append(f.itemset)
    return sum(len(generate_candidates(level)) for level in levels.values())


@pytest.mark.parametrize("seed", [3, 17])
def test_prefix_classes_generate_the_levelwise_candidates(seed):
    mined, generated = candidates_generated(planted_baskets(seed), 0.05)
    assert generated == levelwise_candidates(mined) > 0


@settings(max_examples=100)
@given(
    transaction_dbs(max_items=12, max_txns=20, max_size=6), st.sampled_from([0.1, 0.25, 0.5])
)
def test_prefix_classes_generate_the_levelwise_candidates_drawn(transactions, min_support):
    mined, generated = candidates_generated(transactions, min_support)
    assert generated == levelwise_candidates(mined)


def test_masks_held_stay_below_one_level():
    # Mined a level at a time, the widest level's masks are all held at once;
    # mined a prefix class at a time, at most two levels of one class are.
    # The input is the itemsets-rules benchmark's at seed 41, items by rank.
    transactions = generate_baskets(15_000, 41)
    tracemalloc.start()
    try:
        mined = mine_frequent_itemsets(transactions, 0.005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    widest = max(Counter(len(f.itemset) for f in mined).values())
    assert peak < widest * ((len(transactions) + 7) // 8)


class TestGenerateRules:
    def test_emits_at_two_thirds_confidence(self, tdb1):
        frequent = mine_frequent_itemsets(tdb1, 0.5)
        rules = generate_rules(frequent, 0.6)
        have = {(r.antecedent, r.consequent) for r in rules}
        assert ((A,), (B,)) in have
        rule = next(r for r in rules if (r.antecedent, r.consequent) == ((A,), (B,)))
        assert rule.confidence == pytest.approx(2 / 3)
        assert rule.support == 0.5

    def test_suppressed_above_confidence(self, tdb1):
        frequent = mine_frequent_itemsets(tdb1, 0.5)
        assert generate_rules(frequent, 0.7) == []

    def test_only_singletons_yield_nothing(self):
        frequent = [FrequentItemset((A,), 3, 0.75), FrequentItemset((B,), 2, 0.5)]
        assert generate_rules(frequent, 0.5) == []

    def test_missing_subset_support_rejected(self):
        frequent = [FrequentItemset((A, B), 2, 0.5)]
        with pytest.raises(MissingSubsetSupportError):
            generate_rules(frequent, 0.5)

    def test_exact_boundary_confidence_is_emitted(self, tdb1):
        frequent = mine_frequent_itemsets(tdb1, 0.5)
        rules = generate_rules(frequent, 2 / 3)
        assert rules, "confidence exactly at the threshold must be kept"

    @given(transaction_dbs(max_items=5, max_txns=8), st.sampled_from([0.3, 0.5, 0.9]))
    def test_rules_satisfy_their_contract(self, transactions, min_confidence):
        frequent = mine_frequent_itemsets(transactions, 0.25)
        count = {f.itemset: f.count for f in frequent}
        for rule in generate_rules(frequent, min_confidence):
            assert not set(rule.antecedent) & set(rule.consequent)
            z = tuple(sorted(rule.antecedent + rule.consequent))
            assert rule.confidence == count[z] / count[rule.antecedent]
            assert rule.confidence >= min_confidence or abs(
                rule.confidence - min_confidence
            ) < 1e-12


def brute_rules(frequent, min_confidence):
    """Every (Z, X) pair in output order, kept by an exact Fraction test."""
    threshold = exact_fraction(min_confidence)
    count = {f.itemset: f.count for f in frequent}
    rules = []
    for f in sorted(frequent, key=lambda f: (len(f.itemset), f.itemset)):
        z = f.itemset
        subsets = [
            tuple(i for k, i in enumerate(z) if bits >> k & 1) for bits in range(1, 2 ** len(z) - 1)
        ]
        for x in sorted(subsets, key=lambda s: (len(s), s)):
            if Fraction(f.count, count[x]) >= threshold:
                consequent = tuple(i for i in z if i not in x)
                rules.append((x, consequent, f.support, f.count / count[x]))
    return rules


@settings(max_examples=100)
@given(
    transaction_dbs(max_items=5, max_txns=12),
    st.sampled_from([0.2, 0.25, 0.5]),
    st.sampled_from([2 / 3, 1 / 2, 0.1, 0.75, 1.0]),
)
def test_rules_equal_brute_force(transactions, min_support, min_confidence):
    # 2/3 and 1/2 land exactly on common confidences; 0.1 is not dyadic
    frequent = mine_frequent_itemsets(transactions, min_support)
    got = [
        (r.antecedent, r.consequent, r.support, r.confidence)
        for r in generate_rules(frequent, min_confidence)
    ]
    assert got == brute_rules(frequent, min_confidence)
