"""Core model: canonicalization, containment, support counting."""

import math
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import A, B, C, make_sequence
from strategies import CONSTRAINT_GRID, constraint_grid, sequence_dbs, transaction_dbs
from synthetic import generate_db

from seqmine import model
from seqmine.dataset import load_sequence_db, read_lines, serialize_sequence_db

from seqmine.errors import (
    EmptyDatabaseError,
    EmptyElementError,
    EmptyPatternError,
    InvalidConstraintsError,
    InvalidStreamConfigError,
    InvalidThresholdError,
)
from seqmine.itemsets import frequent_items, generate_rules, mine_frequent_itemsets
from seqmine.model import (
    Alphabet,
    Baskets,
    Columns,
    Constraints,
    DataSequence,
    SequenceDatabase,
    SupportedPattern,
    bit_layout,
    canonicalize,
    contains,
    count_sequences,
    extend,
    fill,
    first_allowed,
    frequent_layout,
    itemset_support,
    min_count,
    pattern_length,
    support,
    unit_fraction,
)
from seqmine.oracle import brute_itemsets, brute_sequences, contains_by_enumeration
from seqmine.sequences import MiningStats, _children, gsp_mine, prefixspan_mine
from seqmine.stream import StreamConfig, replay


class TestCanonicalize:
    def test_sorts_elements(self):
        assert canonicalize([[B, A]]) == ((A, B),)

    def test_dedupes_and_sorts(self):
        assert canonicalize([[A], [C, C, B]]) == ((A,), (B, C))

    def test_empty_element_rejected(self):
        with pytest.raises(EmptyElementError):
            canonicalize([[], [A]])

    def test_empty_pattern_rejected(self):
        with pytest.raises(EmptyPatternError):
            canonicalize([])

    def test_preserves_element_order(self):
        assert canonicalize([[C], [A]]) == ((C,), (A,))


class TestContains:
    def test_plain_subsequence(self, db1):
        assert contains(((A,), (B,)), db1.sequences[0])

    def test_no_b_after_a(self, db1):
        assert not contains(((A,), (B,)), db1.sequences[2])

    def test_max_gap_excludes_wide_pair(self, db1):
        s4 = db1.sequences[3]
        assert contains(((A,), (B,)), s4)
        assert not contains(((A,), (B,)), s4, Constraints(max_gap=2))

    def test_max_index_gap_excludes_intervening(self, db1):
        s2 = db1.sequences[1]
        assert contains(((A,), (B,)), s2)
        assert not contains(((A,), (B,)), s2, Constraints(max_index_gap=0))

    def test_single_element(self, db1):
        assert contains(((A,),), db1.sequences[0])

    def test_min_gap_is_exclusive(self):
        seq = make_sequence("s", (1, (A,)), (3, (B,)))
        assert contains(((A,), (B,)), seq, Constraints(min_gap=1))
        assert not contains(((A,), (B,)), seq, Constraints(min_gap=2))

    def test_max_gap_needs_backtracking(self):
        # the earliest match for the first element is too far from the only
        # match for the second; a later first match works
        seq = make_sequence("s", (1, (A,)), (5, (A,)), (6, (B,)))
        assert contains(((A,), (B,)), seq, Constraints(max_gap=2))

    @settings(max_examples=120)
    @given(sequence_dbs(), constraint_grid(), st.data())
    def test_matches_enumeration_oracle(self, db, constraints, data):
        n_items = len(db.alphabet)
        raw = data.draw(
            st.lists(
                st.lists(st.integers(0, n_items - 1), min_size=1, max_size=2),
                min_size=1,
                max_size=3,
            )
        )
        pattern = canonicalize(raw)
        for seq in db.sequences:
            assert contains(pattern, seq, constraints) == contains_by_enumeration(
                pattern, seq, constraints
            )

    @settings(max_examples=150)
    @given(
        sequence_dbs(max_items=3, max_seqs=2, max_txns=10),
        st.integers(0, 3),
        st.one_of(st.none(), st.integers(1, 5)),
        st.one_of(st.none(), st.integers(0, 3)),
        st.data(),
    )
    def test_gap_kernel_matches_enumeration_on_long_sequences(
        self, db, min_gap, max_gap_span, max_index_gap, data
    ):
        max_gap = None if max_gap_span is None else min_gap + max_gap_span
        constraints = Constraints(min_gap=min_gap, max_gap=max_gap, max_index_gap=max_index_gap)
        n_items = len(db.alphabet)
        raw = data.draw(
            st.lists(
                st.lists(st.integers(0, n_items - 1), min_size=1, max_size=2),
                min_size=1,
                max_size=4,
            )
        )
        pattern = canonicalize(raw)
        for seq in db.sequences:
            assert contains(pattern, seq, constraints) == contains_by_enumeration(
                pattern, seq, constraints
            )


class TestSupport:
    def test_unconstrained_count(self, db1):
        sp = support(((A,), (B,)), db1)
        assert (sp.count, sp.support) == (3, 0.75)

    def test_max_gap_count(self, db1):
        sp = support(((A,), (B,)), db1, Constraints(max_gap=2))
        assert (sp.count, sp.support) == (2, 0.5)

    def test_absent_item(self, db1):
        assert support(((9,),), db1).count == 0

    def test_empty_database_rejected(self):
        db = SequenceDatabase((), Alphabet())
        with pytest.raises(EmptyDatabaseError):
            support(((A,),), db)

    @given(sequence_dbs(), constraint_grid())
    def test_count_support_consistent(self, db, constraints):
        sp = support(((0,), (0,)), db, constraints)
        assert sp.count <= len(db.sequences)
        assert sp.support == sp.count / len(db.sequences)
        assert round(sp.support * len(db.sequences)) == sp.count


    @settings(max_examples=120)
    @given(sequence_dbs(max_seqs=8, max_txns=6), constraint_grid(), st.data())
    def test_equals_contains_sum_and_oracle_count(self, db, constraints, data):
        pattern = canonicalize(data.draw(patterns(len(db.alphabet))))
        count = support(pattern, db, constraints).count
        assert count == sum(contains(pattern, seq, constraints) for seq in db.sequences)
        assert count == sum(
            contains_by_enumeration(pattern, seq, constraints) for seq in db.sequences
        )

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_never_counts_on_a_stale_layout(self, loaded):
        # a database keeps the layout of its last support() call; each gap
        # rule set in turn, then back, must count on its own layout
        db = generate_db(60, alphabet_size=5, seed=1)
        if loaded:
            db = load_sequence_db(serialize_sequence_db(db))
        checked = [((0,), (1,)), ((1,), (0,)), ((0, 1),), ((0,), (1,), (2,))]
        for constraints in CONSTRAINT_GRID + CONSTRAINT_GRID[::-1]:
            for pattern in checked:
                assert support(pattern, db, constraints).count == sum(
                    contains_by_enumeration(pattern, seq, constraints) for seq in db.sequences
                ), (pattern, constraints)

    def test_builds_one_layout_per_gap_rule_set(self, db1, monkeypatch):
        built = []

        def counted(columns, constraints):
            built.append(constraints)
            return bit_layout(columns, constraints)

        monkeypatch.setattr(model, "bit_layout", counted)
        unbounded, gapped = Constraints(), Constraints(max_gap=2)
        for constraints in (unbounded, unbounded._replace(min_support=0.5, max_length=2),
                            gapped, gapped, unbounded):
            support(((A,), (B,)), db1, constraints)
        assert built == [unbounded, gapped, unbounded]


def patterns(n_items, max_elements=3):
    return st.lists(
        st.lists(st.integers(0, n_items - 1), min_size=1, max_size=2),
        min_size=1,
        max_size=max_elements,
    )


def one_by_one(db, constraints):
    """The layout of each sequence on its own, with its first bit in the
    layout of the whole database."""
    first = 0
    for seq in db.sequences:
        yield first, bit_layout(Columns.from_runs((seq,)), constraints)
        first += len(seq.itemsets) + 1


# beside the grid, rules whose reach exceeds most drawn sequences
STEP_RULES = CONSTRAINT_GRID + [
    Constraints(max_gap=10),
    Constraints(min_gap=4),
    Constraints(max_index_gap=6),
]


def reference_steps(runs, constraints):
    """The ``(k, mask)`` steps of ``runs`` under ``constraints``, read off
    each sequence's times with no use of the kernel: bit j of step k is set
    when j - k lies in j's sequence and the gap rule allows the step."""
    c = constraints
    bounded = c.max_gap is not None or c.max_index_gap is not None
    high = math.inf if c.max_gap is None else c.max_gap
    most_steps = math.inf if c.max_index_gap is None else c.max_index_gap + 1
    masks = {}
    first = 0
    for _, times, _ in runs:
        for j in range(len(times)):
            for k in range(1, j + 1):
                gap = times[j] - times[j - k]
                if bounded:
                    allowed = c.min_gap < gap <= high and k <= most_steps
                else:
                    # the first transaction allowed after one at j - k
                    allowed = gap > c.min_gap >= times[j - 1] - times[j - k]
                if allowed:
                    masks[k] = masks.get(k, 0) | 1 << (first + j)
        first += len(times) + 1
    return tuple(sorted(masks.items()))


class TestBitLayout:
    """The whole database as one bit string: each sequence's transactions,
    then a sentinel bit that no item sets."""

    def test_bits_of_two_sequences(self):
        db = SequenceDatabase(
            (
                make_sequence("s0", (1, (A,)), (2, (B,)), (4, (A, C))),
                make_sequence("s1", (1, (B,)), (3, (A,))),
            ),
            Alphabet(["a", "b", "c"]),
        )
        layout = bit_layout(db.columns, Constraints())
        assert layout.starts == 0b0010001
        assert layout.sentinels == 0b1001000
        assert layout.real == 0b0110111
        assert layout.items == {A: 0b0100101, B: 0b0010010, C: 0b0000100}
        assert count_sequences(layout.items[A], layout) == 2
        assert count_sequences(layout.items[C], layout) == 1
        assert count_sequences(0, layout) == 0
        # a's lowest end in s0 is its first bit; in s1 its last, so nothing
        # may follow it there
        assert extend(layout.items[A], layout) == 0b0000110

    @pytest.mark.parametrize(
        "constraints, allowed",
        [
            (Constraints(), 0b11110),
            (Constraints(min_gap=2), 0b11000),
            (Constraints(max_gap=2), 0b00110),
            (Constraints(max_index_gap=0), 0b00010),
            (Constraints(min_gap=1, max_gap=4), 0b01100),
        ],
        ids=["unbounded", "min-gap", "max-gap", "max-index-gap", "window"],
    )
    def test_extend_applies_each_rule(self, constraints, allowed):
        seq = make_sequence("s0", (1, (A,)), (2, (B,)), (3, (B,)), (4, (B,)), (6, (B,)))
        layout = bit_layout(Columns.from_runs((seq,)), constraints)
        assert extend(0b00001, layout) == allowed

    @pytest.mark.parametrize("constraints", CONSTRAINT_GRID)
    def test_single_transaction_sequences_extend_to_nothing(self, constraints):
        seqs = tuple(make_sequence(f"s{k}", (k + 1, (A, B))) for k in range(5))
        layout = bit_layout(Columns.from_runs(seqs), constraints)
        assert layout.real == 0b0101010101
        assert count_sequences(layout.real, layout) == 5
        assert extend(layout.real, layout) == 0

    @settings(max_examples=100)
    @given(sequence_dbs(max_seqs=5, max_txns=8), st.data())
    def test_steps_equal_a_reference_built_from_times_alone(self, db, data):
        # a one-transaction sequence among them, at a drawn place
        runs = list(db.columns.runs())
        runs.insert(data.draw(st.integers(0, len(runs))), ("one", (2,), ((0,),)))
        columns = Columns.from_runs(runs)
        for constraints in STEP_RULES:
            assert bit_layout(columns, constraints).steps == reference_steps(runs, constraints)

    @settings(max_examples=80)
    @given(sequence_dbs(max_seqs=5, max_txns=6), constraint_grid(), st.data())
    def test_sequences_never_reach_each_other(self, db, constraints, data):
        # each sequence's segment of extend() depends on that segment alone
        whole = bit_layout(db.columns, constraints)
        ends = data.draw(st.integers(0, whole.real)) & whole.real
        allowed = extend(ends, whole)
        count = 0
        for first, alone in one_by_one(db, constraints):
            segment = (ends >> first) & alone.real
            assert (allowed >> first) & (alone.real | alone.sentinels) == extend(segment, alone)
            count += segment != 0
        assert count_sequences(ends, whole) == count
        assert allowed & ~whole.real == 0
        # every item met has bit j exactly where position j holds it
        flat = db.columns.itemsets
        assert set(whole.items) == set().union(*flat)
        for item, bits in whole.items.items():
            assert [bits >> j & 1 for j in range(len(flat))] == [item in txn for txn in flat]


class TestItemInts:
    def test_a_generator_gives_the_ints_of_a_tuple(self):
        # a generator gives no length, so 3,000 rows grow the byte rows from
        # 8 to 512 bytes; item 0 is in nearly every row, so each growth must
        # keep every byte, and items 9 to 14 are first met between growths
        rows = tuple(
            () if j % 11 == 5 else (0, j % 7, j % 7, 9 + j // 500) for j in range(3000)
        )
        want = {
            item: sum(1 << j for j, row in enumerate(rows) if item in row)
            for item in set().union(*rows)
        }
        assert model.item_ints(rows) == want
        assert model.item_ints(row for row in rows) == want

    @pytest.mark.parametrize("rows", [(), ((3,),), ((), (2, 2))])
    def test_few_rows(self, rows):
        assert model.item_ints(iter(rows)) == model.item_ints(rows)


class TestFirstAllowedAndUpto:
    """An s-candidate by item x is tested against ``first_allowed(ends)``
    and x's ``upto`` int. Under max_gap or max_index_gap ``first`` holds
    every position the next element may take, and ``upto[x]`` is x's int.
    Otherwise the next element may take a suffix of each sequence, from the
    one position ``first`` gives; x extends a pattern there exactly when its
    last occurrence lies at or after that position, which is one AND with
    ``upto[x]``."""

    @settings(max_examples=100)
    @given(sequence_dbs(max_seqs=5, max_txns=20), st.data())
    def test_one_and_counts_each_s_extension(self, db, data):
        # every gap rule on each database drawn
        for constraints in CONSTRAINT_GRID:
            whole = bit_layout(db.columns, constraints)
            assert whole.upto is None
            layout = frequent_layout(whole, whole.items)
            assert layout.items == whole.items
            ends = data.draw(st.integers(0, layout.real)) & layout.real
            first = first_allowed(ends, layout)
            allowed = extend(ends, layout)
            if layout.bounded:
                assert first == allowed
            else:
                assert count_sequences(first, layout) == first.bit_count()
                assert fill(first, layout) == allowed
            # the s-step gives every child the count and projection of the kernel
            found = {}
            s_items = list(layout.upto.items())
            grown, _, _ = _children((), ends, s_items, [], layout, 1, MiningStats(), found)
            want = {}
            for item, bits in layout.items.items():
                if count := count_sequences(allowed & bits, layout):
                    want[((item,),)] = (count, allowed & bits)
            assert {child: (found[child], c_ends) for child, c_ends in grown} == want
            if layout.bounded:
                continue
            # each sequence's positions up to the item's last occurrence in it
            columns = db.columns
            for item, upto in layout.upto.items():
                want = 0
                for start, sentinel in zip(columns.firsts, columns.sentinels()):
                    held = [j for j in range(start, sentinel) if item in columns.itemsets[j]]
                    if held:
                        want |= (1 << (held[-1] + 1)) - (1 << start)
                assert upto == want

    @pytest.mark.parametrize("constraints", CONSTRAINT_GRID)
    def test_only_unbounded_layouts_get_upto(self, db1, constraints):
        # a bounded layout tests s-candidates against the item ints, so only
        # an unbounded one builds new ints; the whole layout builds none
        whole = bit_layout(db1.columns, constraints)
        assert whole.upto is None
        layout = frequent_layout(whole, [A, B])
        assert set(layout.items) == set(layout.upto) == {A, B}
        bounded = constraints.max_gap is not None or constraints.max_index_gap is not None
        assert (layout.upto is layout.items) == bounded
        if not bounded:
            assert all(layout.upto[i] != layout.items[i] for i in (A, B))


class TestItemsetSupport:
    def test_pair(self, tdb1):
        assert itemset_support((A, B), tdb1) == (2, 0.5)

    def test_triple(self, tdb1):
        assert itemset_support((A, B, C), tdb1) == (1, 0.25)

    def test_singleton_db(self):
        assert itemset_support((A,), [(A,)]) == (1, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatabaseError):
            itemset_support((A,), [])

    @given(transaction_dbs(), st.data())
    def test_itemset_anti_monotone(self, transactions, data):
        items = sorted({i for t in transactions for i in t})
        superset = tuple(
            sorted(data.draw(st.sets(st.sampled_from(items), min_size=1, max_size=len(items))))
        )
        subset = tuple(
            sorted(data.draw(st.sets(st.sampled_from(superset), min_size=1, max_size=len(superset))))
        )
        assert itemset_support(subset, transactions)[0] >= itemset_support(superset, transactions)[0]


class TestConstraints:
    def test_min_gap_must_be_below_max_gap(self):
        with pytest.raises(InvalidConstraintsError):
            Constraints(min_gap=3, max_gap=2)
        with pytest.raises(InvalidConstraintsError):
            Constraints(min_gap=2, max_gap=2)

    def test_bad_min_support(self):
        with pytest.raises(InvalidConstraintsError):
            Constraints(min_support=0.0)
        with pytest.raises(InvalidConstraintsError):
            Constraints(min_support=1.5)

    def test_defaults_are_valid_and_unbounded(self):
        c = Constraints(min_support=0.5)
        assert (c.min_gap, c.max_gap, c.max_index_gap) == (0, None, None)

    @pytest.mark.parametrize("field", ["min_gap", "max_gap", "max_index_gap", "max_length"])
    @pytest.mark.parametrize("value", [2.5, 2.0, Fraction(2), "2"], ids=repr)
    def test_gap_and_length_fields_must_be_integers(self, field, value):
        message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidConstraintsError, match=message):
            Constraints(0.5, **{field: value})
        with pytest.raises(InvalidConstraintsError, match=message):
            Constraints(0.5)._replace(**{field: value})
        for whole in (True, 3):
            assert getattr(Constraints(0.5, **{field: whole}), field) is whole

    def test_only_min_gap_may_not_be_none(self):
        with pytest.raises(InvalidConstraintsError, match=r"^min_gap must be an integer, got None$"):
            Constraints(0.5, min_gap=None)
        assert Constraints(0.5, max_gap=None, max_index_gap=None, max_length=None)

    def test_fractional_max_length_is_rejected(self):
        # it let the miners return 3-item patterns where the oracle stops at 2
        with pytest.raises(InvalidConstraintsError, match=r"^max_length must be an integer, got 2.5$"):
            Constraints(0.5, max_length=2.5)

    def test_replace_checks_like_construction(self):
        valid = Constraints(0.5, max_gap=3)
        with pytest.raises(InvalidConstraintsError, match=r"^min_gap \(3\) must be < max_gap \(3\)$"):
            valid._replace(min_gap=3)
        with pytest.raises(
            InvalidThresholdError, match="^threshold must be a finite number, got nan for min_support$"
        ):
            valid._replace(min_support=float("nan"))

    @given(sequence_dbs())
    def test_tightening_never_increases_support(self, db):
        pattern = ((0,), (0,))
        loose = support(pattern, db, Constraints(max_gap=4, max_index_gap=2)).count
        tighter_gap = support(pattern, db, Constraints(max_gap=2, max_index_gap=2)).count
        tighter_idx = support(pattern, db, Constraints(max_gap=4, max_index_gap=0)).count
        more_min = support(pattern, db, Constraints(min_gap=1, max_gap=4, max_index_gap=2)).count
        assert tighter_gap <= loose
        assert tighter_idx <= loose
        assert more_min <= loose


# every entry point that takes a threshold: its field's name, the class it
# raises for a finite value outside (0, 1], and a call that passes it the value
THRESHOLD_ENTRY_POINTS = {
    "Constraints": ("min_support", InvalidConstraintsError, lambda v: Constraints(v)),
    "Constraints._replace": (
        "min_support", InvalidConstraintsError, lambda v: Constraints(0.5)._replace(min_support=v)
    ),
    "StreamConfig-sigma": ("sigma", InvalidStreamConfigError, lambda v: StreamConfig(v, 1e-13, 2)),
    "StreamConfig-epsilon": ("epsilon", InvalidStreamConfigError, lambda v: StreamConfig(1, v, 2)),
    "frequent_items": (
        "min_support", InvalidThresholdError, lambda v: frequent_items(Baskets(1, {A: 1}), v)
    ),
    "mine_frequent_itemsets": (
        "min_support", InvalidThresholdError, lambda v: mine_frequent_itemsets([(A,)], v)
    ),
    "generate_rules": ("min_confidence", InvalidThresholdError, lambda v: generate_rules([], v)),
    "brute_itemsets": ("min_support", InvalidThresholdError, lambda v: brute_itemsets([(A,)], v)),
}


class TestThresholds:
    @pytest.mark.parametrize("entry", THRESHOLD_ENTRY_POINTS)
    # exact_fraction rounds 1.0000000001 to 1, so the range must be tested
    # on the value as given
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 0, -0.5, 1.5, 1.0000000001], ids=repr
    )
    def test_bad_value_raises_naming_its_field(self, entry, value):
        name, error, call = THRESHOLD_ENTRY_POINTS[entry]
        message = f"{name} must be in (0, 1], got {value}"
        if not math.isfinite(value):
            error = InvalidThresholdError
            message = f"threshold must be a finite number, got {value} for {name}"
        with pytest.raises(Exception) as info:
            call(value)
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize("entry", THRESHOLD_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [1, 1.0, 1e-12, Fraction(1, 3)], ids=repr)
    def test_value_in_range_is_accepted(self, entry, value):
        name, _, call = THRESHOLD_ENTRY_POINTS[entry]
        if name == "epsilon" and value == 1:
            # 1 is a threshold, but no sigma lies above it
            with pytest.raises(InvalidStreamConfigError, match=r"^epsilon must be in \(0, sigma\)"):
                call(value)
        else:
            call(value)

    def test_value_is_made_exact(self):
        assert unit_fraction(0.07, "x") == Fraction(7, 100)
        assert unit_fraction(Fraction(1, 3), "x") == Fraction(1, 3)
        # too small to round: kept as its exact binary value, never 0
        assert unit_fraction(1e-12, "x") == Fraction(1e-12)


def _first_line(idle_timeout):
    lines = read_lines(__file__, idle_timeout)  # a generator: it checks at the first next()
    return next(lines)


# every entry point that checks a floor: its field's name, the floor, the
# class it raises for a value below it, whether None (unbounded or
# unwatched) passes, and a call that passes it the value
FLOOR_ENTRY_POINTS = {
    "Constraints-min_gap": (
        "min_gap", 0, InvalidConstraintsError, False, lambda v: Constraints(0.5, min_gap=v)
    ),
    "Constraints._replace-min_gap": (
        "min_gap", 0, InvalidConstraintsError, False,
        lambda v: Constraints(0.5)._replace(min_gap=v),
    ),
    "Constraints-max_index_gap": (
        "max_index_gap", 0, InvalidConstraintsError, True,
        lambda v: Constraints(0.5, max_index_gap=v),
    ),
    "Constraints._replace-max_index_gap": (
        "max_index_gap", 0, InvalidConstraintsError, True,
        lambda v: Constraints(0.5)._replace(max_index_gap=v),
    ),
    "Constraints-max_length": (
        "max_length", 1, InvalidConstraintsError, True, lambda v: Constraints(0.5, max_length=v)
    ),
    "Constraints._replace-max_length": (
        "max_length", 1, InvalidConstraintsError, True,
        lambda v: Constraints(0.5)._replace(max_length=v),
    ),
    "StreamConfig-batch_size": (
        "batch_size", 1, InvalidStreamConfigError, False, lambda v: StreamConfig(0.5, 0.1, v)
    ),
    "StreamConfig-max_length": (
        "max_length", 1, InvalidStreamConfigError, False, lambda v: StreamConfig(0.5, 0.1, 2, v)
    ),
    "read_lines": ("idle_timeout", 0, ValueError, True, _first_line),
    # a generator: it checks at the first next()
    "replay": (
        "report_every", 1, ValueError, False,
        lambda v: next(replay([], StreamConfig(0.5, 0.1, 2), report_every=v)),
    ),
}
# one below each floor, and the timeouts that are no number of seconds
BELOW_THE_FLOOR = [(entry, row[1] - 1) for entry, row in FLOOR_ENTRY_POINTS.items()] + [
    ("read_lines", -math.inf),
    ("read_lines", math.nan),
    ("replay", -1),
]

_NO_SEQUENCES = SequenceDatabase((), Alphabet())
# every entry point that counts over a database, each called on an empty one
EMPTY_DATABASE_ENTRY_POINTS = {
    "min_count": lambda: min_count(0.5, 0),
    "gsp_mine": lambda: gsp_mine(_NO_SEQUENCES, Constraints(0.5)),
    "prefixspan_mine": lambda: prefixspan_mine(_NO_SEQUENCES, Constraints(0.5)),
    "support": lambda: support(((A,),), _NO_SEQUENCES),
    "itemset_support": lambda: itemset_support((A,), []),
    "frequent_items": lambda: frequent_items(Baskets(0, {}), 0.5),
    "mine_frequent_itemsets": lambda: mine_frequent_itemsets([], 0.5),
    "brute_itemsets": lambda: brute_itemsets([], 0.5),
    "brute_sequences": lambda: brute_sequences(_NO_SEQUENCES, Constraints(0.5, max_length=2)),
    # empty, not past the caps: 7 tokens exceed the alphabet cap, and
    # max_length None the pattern-length cap
    "brute_sequences-7-tokens": lambda: brute_sequences(
        SequenceDatabase((), Alphabet("abcdefg")), Constraints(0.5)
    ),
}


class TestFloors:
    @pytest.mark.parametrize(
        "entry, value", BELOW_THE_FLOOR, ids=[f"{e}-{v}" for e, v in BELOW_THE_FLOOR]
    )
    def test_value_below_the_floor_raises_naming_its_field(self, entry, value):
        name, low, error, _, call = FLOOR_ENTRY_POINTS[entry]
        with pytest.raises(Exception) as info:
            call(value)
        assert (type(info.value), str(info.value)) == (error, f"{name} must be >= {low}, got {value}")

    @pytest.mark.parametrize("entry", FLOOR_ENTRY_POINTS)
    def test_the_floor_and_none_where_allowed_are_accepted(self, entry):
        _, low, _, none_passes, call = FLOOR_ENTRY_POINTS[entry]
        call(low)
        if none_passes:
            call(None)

    def test_each_floor_is_checked_in_field_order(self):
        # min_gap before min_gap < max_gap, which comes before max_length
        with pytest.raises(InvalidConstraintsError, match=r"^min_gap must be >= 0, got -1$"):
            Constraints(0.5, min_gap=-1, max_index_gap=-1, max_length=0)
        with pytest.raises(InvalidConstraintsError, match=r"^min_gap \(3\) must be < max_gap"):
            Constraints(0.5, min_gap=3, max_gap=3, max_length=0)
        with pytest.raises(InvalidConstraintsError, match=r"^max_index_gap must be >= 0"):
            Constraints(0.5, max_index_gap=-1, max_length=0)
        with pytest.raises(InvalidStreamConfigError, match=r"^batch_size must be >= 1, got 0$"):
            StreamConfig(0.5, 0.1, 0, 0)


@pytest.mark.parametrize("entry", EMPTY_DATABASE_ENTRY_POINTS)
def test_an_empty_database_is_refused_by_one_floor(entry):
    with pytest.raises(Exception) as info:
        EMPTY_DATABASE_ENTRY_POINTS[entry]()
    assert (type(info.value), str(info.value)) == (
        EmptyDatabaseError, "database size must be >= 1, got 0"
    )


class TestDeletionAntiMonotonicity:
    @given(sequence_dbs(), st.data())
    def test_deleting_any_item_never_decreases_unconstrained_support(self, db, data):
        n_items = len(db.alphabet)
        raw = data.draw(
            st.lists(
                st.lists(st.integers(0, n_items - 1), min_size=1, max_size=2),
                min_size=1,
                max_size=3,
            )
        )
        pattern = canonicalize(raw)
        flat = [(ei, ii) for ei, e in enumerate(pattern) for ii in range(len(e))]
        ei, ii = data.draw(st.sampled_from(flat))
        shrunk = [list(e) for e in pattern]
        del shrunk[ei][ii]
        if not shrunk[ei]:
            del shrunk[ei]
        if not shrunk:
            return
        smaller = canonicalize(shrunk)
        assert support(smaller, db).count >= support(pattern, db).count


class TestRelabeling:
    @given(sequence_dbs(max_items=4), st.permutations(range(4)), st.data())
    def test_contains_invariant_under_bijection(self, db, perm, data):
        n_items = len(db.alphabet)
        raw = data.draw(
            st.lists(
                st.lists(st.integers(0, n_items - 1), min_size=1, max_size=2),
                min_size=1,
                max_size=2,
            )
        )
        pattern = canonicalize(raw)
        relabeled_pattern = canonicalize([[perm[i] for i in e] for e in pattern])
        constraints = data.draw(constraint_grid())
        for seq in db.sequences:
            relabeled_seq = make_sequence(
                seq.seq_id + "_r",
                *((t, [perm[i] for i in items]) for t, items in zip(seq.times, seq.itemsets)),
            )
            assert contains(pattern, seq, constraints) == contains(
                relabeled_pattern, relabeled_seq, constraints
            )


class TestMinCount:
    def test_ceiling_rule(self):
        assert min_count(0.5, 4) == 2
        assert min_count(0.75, 4) == 3
        assert min_count(0.5, 5) == 3
        assert min_count(1.0, 7) == 7

    def test_decimal_thresholds_are_exact(self):
        # 0.07 * 100 is 7.000000000000001 in binary floating point
        assert min_count(0.07, 100) == 7
        assert min_count(0.1, 30) == 3
        assert min_count(Fraction(1, 3), 6) == 2

    @given(st.integers(1, 500), st.integers(1, 100))
    def test_always_at_least_one(self, n, pct):
        assert 1 <= min_count(pct / 100, n) <= n


def test_pattern_length():
    assert pattern_length(((A,), (B, C))) == 3


SEQUENCE_FAULTS = [
    pytest.param((), (), EmptyElementError, id="no-transactions"),
    pytest.param((1, 2), ((A,), ()), EmptyElementError, id="empty-itemset"),
    pytest.param((1, 2), ((A,), (B, A)), ValueError, id="itemset-not-ascending"),
    pytest.param((1, 1), ((A,), (B,)), ValueError, id="equal-times"),
    pytest.param((2, 1), ((A,), (B,)), ValueError, id="falling-times"),
    pytest.param((1, 2), ((A,),), ValueError, id="length-mismatch"),
]


@pytest.mark.parametrize("times, itemsets, error", SEQUENCE_FAULTS)
def test_data_sequence_validation(times, itemsets, error):
    with pytest.raises(error):
        DataSequence("s", times, itemsets)
    valid = DataSequence("s", (1, 2, 3), ((A,), (A, B), (C,)))
    with pytest.raises(error):
        valid._replace(times=times, itemsets=itemsets)


def test_sequence_database_rejects_duplicate_seq_id():
    twins = (make_sequence("s1", (1, (A,))), make_sequence("s1", (2, (B,))))
    with pytest.raises(ValueError, match="duplicate seq_id"):
        SequenceDatabase(twins, Alphabet(["a", "b"]))


def test_records_are_named_tuples():
    sp = SupportedPattern(((A,),), 2, 0.5)
    assert repr(sp) == "SupportedPattern(pattern=((0,),), count=2, support=0.5)"
    # a record is a tuple of its fields, and ``count`` is the field, not tuple.count
    assert sp == (((A,),), 2, 0.5)
    pattern, count, fraction = sp
    assert (pattern, count, fraction) == (sp.pattern, sp.count, sp.support)
    assert sp._replace(count=3) == (((A,),), 3, 0.5)
    with pytest.raises(ValueError, match=r"unexpected field names: \['size'\]"):
        sp._replace(size=3)
    with pytest.raises(ValueError, match="unexpected field names"):
        Constraints(0.5)._replace(max_gaps=3)
