"""Batched one-pass stream mining: bounds, guarantees, bookkeeping."""

import math
import random
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import A, B, C, delete_last_item, make_sequence
from synthetic import generate_db

from seqmine import sequences
from seqmine.errors import BadBatchSizeError, InvalidStreamConfigError
from seqmine.model import contains, exact_fraction
from seqmine.oracle import brute_stream, iter_canonical_patterns
from seqmine.stream import (
    PatternTree,
    StreamConfig,
    StreamState,
    flush,
    process_batch,
    query_output,
    replay,
)


def ab_sequence(seq_id):
    return make_sequence(seq_id, (1, (A,)), (2, (B,)))


def node_of(tree, pattern):
    """The tracked node of ``pattern``, or None."""
    return dict(tree.items()).get(pattern)


def assert_parent_bound(tree):
    """Prefix closure, and the bound that lets prune test each node alone:
    no node's count + delta exceeds its parent's (the pattern minus its
    last item)."""
    table = dict(tree.items())
    for pattern, node in table.items():
        parent = delete_last_item(pattern)
        if parent:
            parent_node = table.get(parent)
            assert parent_node is not None, f"{pattern} tracked without its parent"
            assert node.count + node.delta <= parent_node.count + parent_node.delta


def true_count(pattern, sequences):
    return sum(1 for s in sequences if contains(pattern, s))


def random_stream(rng, n, n_items=4, max_txns=4):
    out = []
    for i in range(n):
        t = 0
        txns = []
        for _ in range(rng.randint(1, max_txns)):
            t += rng.randint(1, 3)
            k = rng.randint(1, 2)
            txns.append((t, {rng.randrange(n_items) for _ in range(k)}))
        out.append(make_sequence(f"r{i}", *txns))
    return out


class TestConfig:
    def test_epsilon_must_be_below_sigma(self):
        with pytest.raises(InvalidStreamConfigError):
            StreamConfig(sigma=0.5, epsilon=0.6, batch_size=2)
        with pytest.raises(InvalidStreamConfigError):
            StreamConfig(sigma=0.5, epsilon=0.5, batch_size=2)

    def test_replace_checks_like_construction(self):
        with pytest.raises(
            InvalidStreamConfigError,
            match=r"^epsilon must be in \(0, sigma\), got epsilon=0.6 sigma=0.5$",
        ):
            StreamConfig(0.5, 0.1, 2)._replace(epsilon=0.6)

    @pytest.mark.parametrize("field", ["batch_size", "max_length"])
    @pytest.mark.parametrize("value", [1.5, 2.0, Fraction(2), "2", None], ids=repr)
    def test_batch_size_and_max_length_must_be_integers(self, field, value):
        message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidStreamConfigError, match=message):
            StreamConfig(0.5, 0.1, **{"batch_size": 2, field: value})
        with pytest.raises(InvalidStreamConfigError, match=message):
            StreamConfig(0.5, 0.1, 2)._replace(**{field: value})
        for whole in (True, 3):
            assert getattr(StreamConfig(0.5, 0.1, 2)._replace(**{field: whole}), field) is whole


class TestProcessBatch:
    def test_first_batch_inserts_with_zero_delta(self):
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=2)
        state = StreamState()
        process_batch(state, [ab_sequence("s0"), ab_sequence("s1")], config)
        node = node_of(state.tree, ((A,),))
        assert node is not None
        assert (node.count, node.delta, node.inserted_at_batch) == (2, 0, 1)

    def test_wrong_batch_size_rejected(self):
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=2)
        with pytest.raises(BadBatchSizeError):
            process_batch(StreamState(), [ab_sequence("s0")], config)

    def test_prune_after_second_batch(self):
        # batch_size 10, epsilon 0.1: after batch 2 the prune bar is
        # floor(0.1 * 20) = 2, so a batch-1-only pattern with count <= 2 goes
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=10)
        filler = [make_sequence(f"f{i}", (1, (C,))) for i in range(10)]

        state = StreamState()
        batch1 = [ab_sequence("a0"), ab_sequence("a1")] + [
            make_sequence(f"p{i}", (1, (C,))) for i in range(8)
        ]
        process_batch(state, batch1, config)
        assert node_of(state.tree, ((A,), (B,))).count == 2
        process_batch(state, [make_sequence(f"g{i}", (1, (C,))) for i in range(10)], config)
        assert node_of(state.tree, ((A,), (B,))) is None, "count 2 <= bar 2 is pruned"

        state = StreamState()
        batch1 = [ab_sequence("a0"), ab_sequence("a1"), ab_sequence("a2")] + [
            make_sequence(f"p{i}", (1, (C,))) for i in range(7)
        ]
        process_batch(state, batch1, config)
        process_batch(state, filler, config)
        assert node_of(state.tree, ((A,), (B,))).count == 3, "count 3 > bar 2 survives"

    def test_memory_bound_after_disappearance(self):
        # with epsilon 0.1 a vanished pattern outlives its last batch by at
        # most ~1/epsilon batches
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=10)
        state = StreamState()
        loud = [ab_sequence(f"l{i}") for i in range(10)]
        quiet = [make_sequence(f"q{b}_{i}", (1, (C,))) for b in range(99) for i in range(10)]
        process_batch(state, loud, config)
        batches_survived = 0
        for b in range(12):
            process_batch(state, quiet[b * 10 : (b + 1) * 10], config)
            if node_of(state.tree, ((A,), (B,))) is None:
                break
            batches_survived += 1
        assert batches_survived <= 10

    def test_unmined_resident_gets_delta_bump_when_threshold_above_one(self):
        # epsilon 0.2, batch_size 10 puts the local mining bar at 2, so a
        # resident pattern missing from a batch may have been missed once
        config = StreamConfig(sigma=0.5, epsilon=0.2, batch_size=10)
        state = StreamState()
        batch1 = [ab_sequence(f"a{i}") for i in range(5)] + [
            make_sequence(f"p{i}", (1, (C,))) for i in range(5)
        ]
        process_batch(state, batch1, config)
        node = node_of(state.tree, ((A,), (B,)))
        assert (node.count, node.delta) == (5, 0)
        batch2 = [ab_sequence("solo")] + [make_sequence(f"q{i}", (1, (C,))) for i in range(9)]
        process_batch(state, batch2, config)
        node = node_of(state.tree, ((A,), (B,)))
        assert node.count == 5, "a below-bar occurrence is not observed"
        assert node.delta == 1, "but the miss allowance grows"


def rebuilt_table(table, mined, bump, delta, bar, batch):
    """The batch merge built as a new table: the reference for
    :meth:`PatternTree.absorb`. ``table`` maps a pattern to (count, delta,
    inserted_at_batch); returns the merged table's (pattern, count, delta,
    inserted_at_batch) in order."""
    kept = {}
    for pattern, (count, d, at) in table.items():
        got = mined.get(pattern)
        if got is None:
            d += bump
        else:
            count += got
        if count + d > bar:
            kept[pattern] = (count, d, at)
    for pattern, count in mined.items():
        if count + delta > bar and pattern not in table:
            kept[pattern] = (count, delta, batch)
    return [(pattern, *node) for pattern, node in kept.items()]


PATTERNS = st.sampled_from(
    [((x,),) for x in range(4)] + [((x,), (y,)) for x in range(3) for y in range(3)]
)


@st.composite
def merges(draw):
    """A table, a batch's mined counts, bump, insert delta and bar. Small
    values make tracked patterns that the batch evicts although their mined
    count would clear the insert test."""
    tracked = draw(st.lists(PATTERNS, unique=True, max_size=10))
    table = {
        p: (draw(st.integers(1, 8)), draw(st.integers(0, 6)), draw(st.integers(1, 3)))
        for p in tracked
    }
    mined = draw(st.dictionaries(PATTERNS, st.integers(1, 6), max_size=10))
    return table, mined, draw(st.integers(0, 3)), draw(st.integers(0, 6)), draw(st.integers(0, 12))


class TestAbsorb:
    # item 0 is tracked at count 1, delta 0; mined twice it is evicted at
    # 3 <= 4, though as a new pattern it would clear the bar, 2 + 3 > 4
    @example(merge=({((0,),): (1, 0, 1)}, {((0,),): 2}, 0, 3, 4))
    @given(merge=merges())
    def test_in_place_merge_equals_the_rebuild(self, merge):
        table, mined, bump, delta, bar = merge
        tree = PatternTree()
        # bar -1 evicts nothing, and bump 0 leaves the nodes already in place
        for pattern, (count, d, at) in table.items():
            tree.absorb({pattern: count}, 0, d, -1, at)
        before = dict(tree.items())
        tree.absorb(dict(mined), bump, delta, bar, 4)
        got = [(p, node.count, node.delta, node.inserted_at_batch) for p, node in tree.items()]
        assert got == rebuilt_table(table, mined, bump, delta, bar, 4)
        # a kept node is the same object
        assert all(node is before[p] for p, node in tree.items() if p in before)


class TestQueryOutput:
    def test_identical_sequences_all_subpatterns_output(self):
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=2, max_length=5)
        stream = [ab_sequence(f"s{i}") for i in range(4)]
        state = StreamState()
        process_batch(state, stream[:2], config)
        process_batch(state, stream[2:], config)
        got = {(sp.pattern, sp.count) for sp in query_output(state, config)}
        expected = {(sp.pattern, sp.count) for sp in brute_stream(stream, 0.5, max_length=4)}
        assert expected <= got
        assert got == {(((A,),), 4), (((B,),), 4), (((A,), (B,)), 4)}

    def test_empty_stream(self):
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=2)
        assert query_output(StreamState(), config) == []

    def test_clearly_frequent_pattern_always_present(self):
        rng = random.Random(5)
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=5, max_length=3)
        state = StreamState()
        seqs = []
        for b in range(8):
            batch = []
            for i in range(5):
                sid = f"{b}_{i}"
                if rng.random() < 0.7:
                    batch.append(ab_sequence(sid))
                else:
                    batch.append(make_sequence(sid, (1, (C,))))
            seqs.extend(batch)
            process_batch(state, batch, config)
            n = state.sequences_seen
            out = {sp.pattern for sp in query_output(state, config)}
            if true_count(((A,), (B,)), seqs) >= 0.55 * n:
                assert ((A,), (B,)) in out


class TestFlush:
    def test_empty_residual_is_plain_query(self):
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=2)
        state = StreamState()
        process_batch(state, [ab_sequence("s0"), ab_sequence("s1")], config)
        assert flush(state, [], config) == query_output(state, config)

    def test_residual_too_large_rejected(self):
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=2)
        with pytest.raises(BadBatchSizeError):
            flush(StreamState(), [ab_sequence("x"), ab_sequence("y")], config)

    def test_five_sequences_guarantees_hold(self):
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=2, max_length=3)
        stream = [ab_sequence(f"s{i}") for i in range(4)] + [make_sequence("odd", (1, (C,)))]
        state = StreamState()
        process_batch(state, stream[:2], config)
        process_batch(state, stream[2:4], config)
        out = flush(state, stream[4:], config)
        n = len(stream)
        sigma, epsilon = exact_fraction(0.5), exact_fraction(0.1)
        truth = {
            sp.pattern: sp.count for sp in brute_stream(stream, 1 / n, max_length=3)
        }
        out_patterns = {sp.pattern for sp in out}
        for pattern, count in truth.items():
            if count >= sigma * n:
                assert pattern in out_patterns
        for sp in out:
            assert truth.get(sp.pattern, 0) >= (sigma - epsilon) * n

    def test_new_pattern_in_residual_gets_n_before_delta(self):
        config = StreamConfig(sigma=0.5, epsilon=0.3, batch_size=4)
        state = StreamState()
        filler = [make_sequence(f"f{i}", (1, (C,))) for i in range(8)]
        process_batch(state, filler[:4], config)
        process_batch(state, filler[4:], config)
        flush(state, [ab_sequence("new1"), ab_sequence("new2")], config)
        node = node_of(state.tree, ((A,), (B,)))
        assert node is not None
        assert node.delta == math.floor(0.3 * 8)


class TestTreeInvariants:
    @settings(max_examples=25)
    @given(st.integers(0, 10_000), st.sampled_from([(0.4, 0.1, 4), (0.5, 0.2, 5), (0.3, 0.05, 3)]))
    def test_sandwich_and_guarantees_on_random_streams(self, seed, params):
        sigma, epsilon, batch_size = params
        rng = random.Random(seed)
        config = StreamConfig(sigma=sigma, epsilon=epsilon, batch_size=batch_size, max_length=3)
        stream = random_stream(rng, rng.randint(batch_size, 40))
        state = StreamState()
        seen = []
        sigma_f, eps_f = exact_fraction(sigma), exact_fraction(epsilon)
        full = len(stream) // batch_size * batch_size
        boundaries = [
            stream[lo : lo + batch_size] for lo in range(0, full, batch_size)
        ]
        for batch in boundaries:
            process_batch(state, batch, config)
            seen.extend(batch)
            n = state.sequences_seen
            # count sandwich for every live node
            for pattern, node in state.tree.items():
                t = true_count(pattern, seen)
                assert node.count <= t <= node.count + node.delta
            assert_parent_bound(state.tree)
            out = query_output(state, config)
            out_patterns = {sp.pattern for sp in out}
            items = sorted({i for s in seen for itemset in s.itemsets for i in itemset})
            for pattern in iter_canonical_patterns(items, 3):
                if true_count(pattern, seen) >= sigma_f * n:
                    assert pattern in out_patterns
            for sp in out:
                assert true_count(sp.pattern, seen) >= (sigma_f - eps_f) * n

    @pytest.mark.parametrize("seed", range(5))
    def test_parent_bound_under_delta_bumps(self, seed):
        # T = floor(0.1 * 20) = 2: unmined patterns get bumped, new ones get
        # the epsilon * N delta, and nodes are evicted along the way
        db = generate_db(300, alphabet_size=5, seed=seed)
        config = StreamConfig(sigma=0.2, epsilon=0.1, batch_size=20, max_length=3)
        state = StreamState()
        for lo in range(0, len(db.sequences), config.batch_size):
            process_batch(state, db.sequences[lo : lo + config.batch_size], config)
            assert_parent_bound(state.tree)


@pytest.mark.parametrize("side", ["pairs", "successors"])
def test_guarantees_on_each_side_of_the_level2_rule(side, monkeypatch):
    # a batch over four items tests every pair of its frequent items at
    # level 2; pricing a Python visit at 0 bits forces the successor lists
    calls = []
    successors = sequences._successors

    def counted(*args):
        calls.append(args)
        return successors(*args)

    monkeypatch.setattr(sequences, "_successors", counted)
    if side == "successors":
        monkeypatch.setattr(sequences, "_BITS_PER_VISIT", 0)
    db = generate_db(60, alphabet_size=4, seed=1, geometric_p=0.8)
    config = StreamConfig(sigma=0.3, epsilon=0.1, batch_size=10, max_length=3)
    sigma, epsilon = exact_fraction(config.sigma), exact_fraction(config.epsilon)
    state = StreamState()
    seen = []
    for lo in range(0, len(db.sequences), config.batch_size):
        batch = db.sequences[lo : lo + config.batch_size]
        process_batch(state, batch, config)
        seen.extend(batch)
        n = len(seen)
        out = {sp.pattern for sp in query_output(state, config)}
        for pattern in iter_canonical_patterns(range(4), 3):
            count = true_count(pattern, seen)
            assert pattern in out or count < sigma * n
            assert pattern not in out or count >= (sigma - epsilon) * n
    assert len(calls) == (state.batches_seen if side == "successors" else 0)


class OneShot:
    """An iterable that fails the test if iterated more than once."""

    def __init__(self, items):
        self.items = list(items)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        assert self.iterations == 1, "stream was read twice"
        return iter(self.items)


class TestReplay:
    def test_consumes_stream_exactly_once(self):
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=2, max_length=3)
        stream = OneShot([ab_sequence(f"s{i}") for i in range(7)])
        reports = list(replay(stream, config))
        assert stream.iterations == 1
        assert reports[-1].final
        assert reports[-1].sequences == 7

    def test_report_cadence(self):
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=2, max_length=3)
        stream = [ab_sequence(f"s{i}") for i in range(10)]
        reports = list(replay(stream, config, report_every=1))
        # 5 full batches: four periodic plus the final one at the last boundary
        assert len(reports) == 5
        assert [r.final for r in reports] == [False] * 4 + [True]

    def test_empty_stream_single_final_report(self):
        config = StreamConfig(sigma=0.5, epsilon=0.1, batch_size=2)
        reports = list(replay([], config))
        assert len(reports) == 1
        assert reports[0].final and reports[0].patterns == []
