"""GSP-style and pattern-growth miners, plus the closed-pattern filter."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import A, B, C, delete_last_item, make_sequence
from strategies import CONSTRAINT_GRID, constraint_grid, sequence_dbs
from synthetic import generate_db

from seqmine import sequences
from seqmine.errors import EmptyDatabaseError, InvalidConstraintsError
from seqmine.model import (
    Alphabet,
    Columns,
    Constraints,
    SequenceDatabase,
    bit_layout,
    count_sequences,
    extend,
    min_count,
    pattern_length,
    support,
)
from seqmine.oracle import brute_closed, brute_sequences
from seqmine.sequences import (
    MiningResult,
    MiningStats,
    SupportedPattern,
    _children,
    _frequent_items,
    _level2_candidates,
    _prefixspan,
    filter_closed,
    gsp_mine,
    pattern_in_pattern,
    prefixspan_mine,
)

HALF = Constraints(min_support=0.5, max_length=3)

# Frozen from exhaustive enumeration over the four-sequence fixture.
DB1_HALF_EXPECTED = [
    (((A,),), 4),
    (((B,),), 4),
    (((C,),), 3),
    (((A,), (B,)), 3),
    (((A,), (C,)), 3),
    (((A, B),), 2),
    (((B,), (C,)), 2),
    (((A, B), (C,)), 2),
]

DB1_HALF_CLOSED = [
    (((A,),), 4),
    (((B,),), 4),
    (((A,), (B,)), 3),
    (((A,), (C,)), 3),
    (((A, B), (C,)), 2),
]


def pairs(result):
    return [(sp.pattern, sp.count) for sp in result.patterns]


class TestGspMine:
    def test_half_support_frozen_set(self, db1):
        assert pairs(gsp_mine(db1, HALF)) == DB1_HALF_EXPECTED

    def test_max_gap_two(self, db1):
        got = dict(pairs(gsp_mine(db1, Constraints(min_support=0.5, max_gap=2, max_length=3))))
        assert got[((A,), (B,))] == 2

    def test_universal_item_always_emitted(self, db1):
        got = dict(pairs(gsp_mine(db1, Constraints(min_support=1.0, max_length=3))))
        assert got[((A,),)] == 4

    def test_empty_database_rejected(self):
        with pytest.raises(EmptyDatabaseError):
            gsp_mine(SequenceDatabase((), Alphabet()), HALF)

    def test_invalid_constraints_rejected(self, db1):
        with pytest.raises(InvalidConstraintsError):
            gsp_mine(db1, Constraints(min_support=0.5, min_gap=3, max_gap=2))

    def test_database_passes_formula(self, db1):
        # one counting sweep per level attempted: the largest frequent
        # pattern has 3 items, so the level-4 attempt comes up empty
        result = gsp_mine(db1, Constraints(min_support=0.5, max_length=4))
        assert result.stats.database_passes == 4
        # a max_length cut stops the loop before the empty attempt
        capped = gsp_mine(db1, Constraints(min_support=0.5, max_length=3))
        assert capped.stats.database_passes == 3

    @pytest.mark.parametrize(
        "constraints, candidates, passes",
        [
            (HALF, 17, 3),
            (Constraints(min_support=0.5, max_gap=1, max_length=3), 16, 3),
            (Constraints(min_support=0.25, max_length=4), 41, 4),
        ],
        ids=["unbounded", "max-gap-1", "quarter-len-4"],
    )
    def test_candidates_generated_pinned(self, db1, constraints, candidates, passes):
        # the three items, then each level's join: the children of each
        # pattern's first-item deletion, i-extensions above the last item
        stats = gsp_mine(db1, constraints).stats
        assert (stats.candidates_generated, stats.database_passes) == (candidates, passes)

    def test_max_length_caps_output(self, db1):
        result = gsp_mine(db1, Constraints(min_support=0.5, max_length=1))
        assert all(len(sp.pattern) == 1 and len(sp.pattern[0]) == 1 for sp in result.patterns)

    def test_later_prefix_embedding_extends_under_max_gap(self):
        # <a,b> first ends at time 2, but c (time 7) is only within max_gap
        # of the later embedding a@5, b@6: counting must keep every end
        # position of a prefix, not just the earliest
        seq = make_sequence("s0", (1, (A,)), (2, (B,)), (5, (A,)), (6, (B,)), (7, (C,)))
        db = SequenceDatabase((seq,), Alphabet(["a", "b", "c"]))
        constraints = Constraints(min_support=1.0, max_gap=2, max_length=3)
        expected = [(sp.pattern, sp.count) for sp in brute_sequences(db, constraints)]
        assert (((A,), (B,), (C,)), 1) in expected
        assert pairs(gsp_mine(db, constraints)) == expected
        assert pairs(prefixspan_mine(db, constraints)) == expected

    @pytest.mark.parametrize("max_gap", [None, 2])
    def test_item_extension_needs_later_end_positions(self, max_gap):
        # <a,b> ends at t2 and t3, but c only sits with b at t3: an
        # i-extension must keep every end position, not just the lowest
        seq = make_sequence("s0", (1, (A,)), (2, (B,)), (3, (B, C)))
        db = SequenceDatabase((seq,), Alphabet(["a", "b", "c"]))
        constraints = Constraints(min_support=1.0, max_gap=max_gap, max_length=3)
        expected = [(sp.pattern, sp.count) for sp in brute_sequences(db, constraints)]
        assert (((A,), (B, C)), 1) in expected
        assert pairs(gsp_mine(db, constraints)) == expected
        assert pairs(prefixspan_mine(db, constraints)) == expected


class TestPrefixspanMine:
    def test_matches_gsp_on_fixture(self, db1):
        assert pairs(prefixspan_mine(db1, HALF)) == DB1_HALF_EXPECTED

    def test_disjoint_alphabets_full_support_empty(self):
        db = SequenceDatabase(
            (
                make_sequence("s0", (1, (A,)), (2, (A,))),
                make_sequence("s1", (1, (B,)), (2, (B,))),
            ),
            Alphabet(["a", "b"]),
        )
        assert prefixspan_mine(db, Constraints(min_support=1.0, max_length=3)).patterns == []

    def test_max_index_gap_zero(self, db1):
        got = dict(
            pairs(prefixspan_mine(db1, Constraints(min_support=0.5, max_index_gap=0, max_length=3)))
        )
        assert got[((A,), (B,))] == 2

    @settings(max_examples=100)
    @given(sequence_dbs(), constraint_grid())
    def test_miners_and_oracle_agree(self, db, constraints):
        expected = [(sp.pattern, sp.count) for sp in brute_sequences(db, constraints)]
        assert pairs(gsp_mine(db, constraints)) == expected
        assert pairs(prefixspan_mine(db, constraints)) == expected

    @given(sequence_dbs(), constraint_grid())
    def test_reported_counts_recompute(self, db, constraints):
        for sp in prefixspan_mine(db, constraints).patterns:
            assert support(sp.pattern, db, constraints).count == sp.count

    @given(sequence_dbs(), constraint_grid())
    def test_result_is_parents_first(self, db, constraints):
        found = list(_prefixspan(db.columns, 1, constraints))
        seen = set()
        for pattern in found:
            parent = delete_last_item(pattern)
            assert not parent or parent in seen
            seen.add(pattern)

    @given(sequence_dbs())
    def test_tighter_threshold_shrinks_output(self, db):
        loose = {sp.pattern for sp in prefixspan_mine(db, Constraints(0.25, max_length=3)).patterns}
        tight = {sp.pattern for sp in prefixspan_mine(db, Constraints(0.5, max_length=3)).patterns}
        assert tight <= loose

    @pytest.mark.parametrize(
        "constraints, candidates",
        [
            (HALF, 17),
            (Constraints(min_support=0.5, max_gap=1, max_length=3), 16),
            (Constraints(min_support=0.25, max_length=4), 38),
        ],
        ids=["unbounded", "max-gap-1", "quarter-len-4"],
    )
    def test_candidates_generated_pinned(self, db1, constraints, candidates):
        # the three items, then every pair of frequent items (three items
        # are a narrow alphabet), then for each deeper pattern the frequent
        # level-2 children of its last item that its parent's frequent
        # children allow: s-candidates count even when the pattern ends at
        # the last transaction of every sequence it occurs in
        assert prefixspan_mine(db1, constraints).stats.candidates_generated == candidates


# The level-2 step tests every pair of frequent items on narrow alphabets
# and takes the successor lists on wide ones. Brute force allows at most 6
# items, where every pair is always the cheaper side, so the successor side
# is forced there by pricing a Python visit at 0 bits.
FOUR_ITEMS = generate_db(40, alphabet_size=4, seed=0, geometric_p=0.8)
SIX_ITEMS = generate_db(6, alphabet_size=6, seed=0, geometric_p=0.8)
# 400 sequences over 300 items: the 159 items in at least 2 sequences are a
# wide alphabet, the 113 in at least 3 are not
WIDE_ALPHABET = generate_db(400, alphabet_size=300, seed=0)


@pytest.fixture(params=["pairs", "successors"])
def side(request, monkeypatch):
    if request.param == "successors":
        monkeypatch.setattr(sequences, "_BITS_PER_VISIT", 0)
    return request.param


def level2(db, constraints):
    """How many level-2 candidates the step hands out, and what the
    frequent ones count."""
    minc = min_count(constraints.min_support, len(db.sequences))
    layout = bit_layout(db.columns, constraints)
    frequent, _ = _frequent_items(layout, minc, MiningStats())
    candidates = _level2_candidates(db.columns, frequent, layout, minc)
    found = {}
    for a in frequent:
        _children(((a,),), layout.items[a], *candidates[a], layout, minc, MiningStats(), found)
    f = len(frequent)
    tested = sum(len(s_items) + len(i_items) for s_items, i_items in candidates.values())
    # every pair: each item as a new element, and each one above it in its element
    return tested == f * f + f * (f - 1) // 2, found


@pytest.mark.parametrize("miner", [gsp_mine, prefixspan_mine], ids=["gsp", "prefixspan"])
def test_past_level_1_the_layout_holds_only_frequent_items(miner, side, monkeypatch):
    seen = []
    children = sequences._children

    def recording(pattern, ends, s_items, i_items, layout, *rest):
        seen.append(set(layout.items))
        return children(pattern, ends, s_items, i_items, layout, *rest)

    monkeypatch.setattr(sequences, "_children", recording)
    constraints = Constraints(min_support=0.005, max_length=3)
    result = miner(WIDE_ALPHABET, constraints)
    frequent = {sp.pattern[0][0] for sp in result.patterns if pattern_length(sp.pattern) == 1}
    assert len(frequent) < len(bit_layout(WIDE_ALPHABET.columns, constraints).items)
    assert seen and all(items == frequent for items in seen)


class TestLevel2Candidates:
    @pytest.mark.parametrize("db", [FOUR_ITEMS, SIX_ITEMS], ids=["four-items", "six-items"])
    @pytest.mark.parametrize("constraints", CONSTRAINT_GRID)
    def test_both_sides_agree_with_brute(self, db, constraints, side):
        expected = [(sp.pattern, sp.count) for sp in brute_sequences(db, constraints)]
        assert pairs(gsp_mine(db, constraints)) == expected
        assert pairs(prefixspan_mine(db, constraints)) == expected
        # each item's candidates, counted, give exactly the frequent 2-patterns
        every_pair, found = level2(db, constraints)
        assert every_pair == (side == "pairs")
        assert found == {p: c for p, c in expected if pattern_length(p) == 2}

    @pytest.mark.parametrize(
        "db, constraints, gsp, prefixspan",
        [
            (
                FOUR_ITEMS,
                CONSTRAINT_GRID[0],
                {"pairs": 64, "successors": 53},
                {"pairs": 57, "successors": 46},
            ),
            (
                FOUR_ITEMS,
                CONSTRAINT_GRID[1],
                {"pairs": 26, "successors": 15},
                {"pairs": 26, "successors": 15},
            ),
            (
                SIX_ITEMS,
                CONSTRAINT_GRID[0],
                {"pairs": 108, "successors": 90},
                {"pairs": 94, "successors": 76},
            ),
            (
                SIX_ITEMS,
                CONSTRAINT_GRID[1],
                {"pairs": 41, "successors": 23},
                {"pairs": 41, "successors": 23},
            ),
        ],
        ids=[
            "four-items-unbounded",
            "four-items-max-gap-1",
            "six-items-unbounded",
            "six-items-max-gap-1",
        ],
    )
    def test_candidates_generated_pinned(self, db, constraints, gsp, prefixspan, side):
        # both miners count the same level 2. From level 3 on GSP tests its
        # join and PrefixSpan the level-2 children of the last item that the
        # parent's frequent children allow; under max_gap an s-step child's
        # s-steps keep the whole level-2 bound, and the two test the same
        # candidates here
        assert gsp_mine(db, constraints).stats.candidates_generated == gsp[side]
        assert prefixspan_mine(db, constraints).stats.candidates_generated == prefixspan[side]

    @pytest.mark.parametrize(
        "min_support, every_pair, gsp_candidates, prefixspan_candidates",
        [(0.005, False, 5976, 1703), (0.0075, True, 20835, 19737)],
        ids=["wide", "narrow"],
    )
    def test_side_follows_the_alphabet_width(
        self, min_support, every_pair, gsp_candidates, prefixspan_candidates
    ):
        constraints = Constraints(min_support=min_support, max_length=3)
        gsp = gsp_mine(WIDE_ALPHABET, constraints)
        prefixspan = prefixspan_mine(WIDE_ALPHABET, constraints)
        assert pairs(gsp) == pairs(prefixspan)
        assert gsp.stats.candidates_generated == gsp_candidates
        assert prefixspan.stats.candidates_generated == prefixspan_candidates
        got, found = level2(WIDE_ALPHABET, constraints)
        assert got == every_pair
        mined = {sp.pattern: sp.count for sp in gsp.patterns if pattern_length(sp.pattern) == 2}
        assert found == mined


class TestParentBound:
    """From level 3 on, PrefixSpan tests only the candidates its parent's
    frequent children allow. A pattern whose parent was itself bounded that
    way first appears at four items, the oracle's cap."""

    @settings(max_examples=300)
    @given(sequence_dbs(), constraint_grid(), st.sampled_from([0.25, 0.5]), st.booleans())
    def test_depth_four_agrees_with_brute(self, db, constraints, min_support, successors):
        constraints = constraints._replace(min_support=min_support, max_length=4)
        expected = [(sp.pattern, sp.count) for sp in brute_sequences(db, constraints)]
        with pytest.MonkeyPatch.context() as patch:
            if successors:
                patch.setattr(sequences, "_BITS_PER_VISIT", 0)
            assert pairs(gsp_mine(db, constraints)) == expected
            assert pairs(prefixspan_mine(db, constraints)) == expected

    @pytest.mark.parametrize(
        "constraints",
        [Constraints(min_support=1.0, max_gap=1), Constraints(min_support=1.0, max_index_gap=0)],
        ids=["max-gap-1", "max-index-gap-0"],
    )
    def test_s_step_child_keeps_its_level2_s_bound_under_bounded_gaps(self, constraints):
        # <(a)(b)(c)> is frequent but <(a)(c)> is not: deleting the middle
        # element fuses two gaps of 1 into one of 2. So <(a)(b)>'s s-steps
        # are not bounded by <(a)>'s frequent s-children, which hold only b
        seq = make_sequence("s0", (1, (A,)), (2, (B,)), (3, (C,)))
        db = SequenceDatabase((seq,), Alphabet(["a", "b", "c"]))
        got = agrees_with_brute(db, constraints._replace(max_length=3))
        assert got[((A,), (B,), (C,))] == 1
        assert ((A,), (C,)) not in got
        assert pairs(gsp_mine(db, constraints)) == pairs(prefixspan_mine(db, constraints))


class TestPastTheBruteCaps:
    """Brute force stops at six items; on 10 to 30 items the miners are held
    to each other, to a recount, and to what each counting step says."""

    @settings(max_examples=100, deadline=None)
    @given(
        sequence_dbs(min_items=10, max_items=30, max_seqs=12, max_txns=6, max_items_per_txn=4),
        constraint_grid(),
        st.sampled_from([0.25, 0.5]),
        st.booleans(),
    )
    def test_miners_recount_and_step_masks_agree(self, db, constraints, min_support, successors):
        constraints = constraints._replace(min_support=min_support, max_length=4)
        calls = 0

        def checked(pattern, ends, s_items, i_items, layout, minc, stats, found):
            nonlocal calls
            calls += 1
            before = set(found)
            grown, s_found, i_found = children(
                pattern, ends, s_items, i_items, layout, minc, stats, found
            )
            s_added = [c[-1][0] for c, _ in grown if len(c) > len(pattern)]
            i_added = [c[-1][-1] for c, _ in grown if len(c) == len(pattern)]
            assert [c for c, _ in grown] == [pattern + ((x,),) for x in s_added] + [
                pattern[:-1] + (pattern[-1] + (y,),) for y in i_added
            ]
            assert s_found == sum(1 << x for x in s_added)
            assert i_found == sum(1 << y for y in i_added)
            assert set(found) - before == {c for c, _ in grown}
            return grown, s_found, i_found

        children = sequences._children
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sequences, "_children", checked)
            if successors:
                patch.setattr(sequences, "_BITS_PER_VISIT", 0)
            gsp = gsp_mine(db, constraints)
            gsp_calls = calls
            prefixspan = prefixspan_mine(db, constraints)
        assert pairs(gsp) == pairs(prefixspan)
        # both miners counted through the wrapper
        assert calls > gsp_calls > 0 or not gsp.patterns
        for sp in gsp.patterns:
            assert support(sp.pattern, db, constraints).count == sp.count


def agrees_with_brute(db, constraints):
    expected = [(sp.pattern, sp.count) for sp in brute_sequences(db, constraints)]
    assert pairs(prefixspan_mine(db, constraints)) == expected
    return dict(expected)


def layout_of(*seqs, constraints=Constraints()):
    return bit_layout(Columns.from_runs(seqs), constraints)


class TestItemRows:
    """Each item's row of the vertical bitmap: one int over the whole
    database. A projection grows by AND-ing rows: an s-extension lands in
    ``extend(ends)``, strictly after the lowest end in each sequence, and an
    i-extension in ``ends`` itself."""

    def test_rows_span_the_database(self):
        # a occurs first and last in s0, and alone in s1
        seqs = (
            make_sequence("s0", (1, (A,)), (2, (B, C)), (3, (A,))),
            make_sequence("s1", (4, (A,))),
        )
        layout = layout_of(*seqs)
        assert layout.items == {A: 0b010101, B: 0b000010, C: 0b000010}
        assert layout.sentinels == 0b101000
        assert [count_sequences(layout.items[i], layout) for i in (A, B, C)] == [2, 1, 1]

    @pytest.mark.parametrize("max_gap", [None, 1])
    def test_lowest_end_at_last_transaction_grows_only_item_extensions(self, max_gap):
        # <a,b> ends only at the last transaction: nothing can follow it,
        # but c sits at that end
        seq = make_sequence("s0", (1, (A,)), (2, (B, C)))
        layout = layout_of(seq, constraints=Constraints(max_gap=max_gap))
        ends = extend(layout.items[A], layout) & layout.items[B]
        assert ends == 0b10
        assert extend(ends, layout) == 0
        assert ends & layout.items[C] == 0b10
        db = SequenceDatabase((seq,), Alphabet(["a", "b", "c"]))
        got = agrees_with_brute(db, Constraints(min_support=1.0, max_gap=max_gap, max_length=3))
        assert got[((A,), (B, C))] == 1
        assert not any(len(p) == 3 for p in got)

    def test_gap_leaving_no_s_extension_keeps_item_extensions(self):
        # under max_gap 1, <a> (ends at t1 and t6) can be followed by nothing:
        # extend() gives 0, yet the i-extension {a c} at t6 remains
        seq = make_sequence("s0", (1, (A,)), (5, (B,)), (6, (A, C)))
        constraints = Constraints(min_support=1.0, max_gap=1, max_length=3)
        layout = layout_of(seq, constraints=constraints)
        assert extend(layout.items[A], layout) == 0
        assert layout.items[A] & layout.items[C] == 0b100
        db = SequenceDatabase((seq,), Alphabet(["a", "b", "c"]))
        got = agrees_with_brute(db, constraints)
        assert got[((A, C),)] == 1
        assert ((A,), (C,)) not in got and ((A,), (A,)) not in got
        assert got[((B,), (A, C))] == 1

    @pytest.mark.parametrize("max_gap", [None, 2])
    def test_item_only_before_lowest_end_is_skipped(self, max_gap):
        # c occurs only before <a>'s lowest end; b, at a higher end bit of
        # <a>, still gives both the s- and the i-extension
        seq = make_sequence("s0", (1, (C,)), (2, (A,)), (3, (A, B)))
        layout = layout_of(seq, constraints=Constraints(max_gap=max_gap))
        ends = layout.items[A]
        assert extend(ends, layout) & layout.items[C] == 0
        assert ends & layout.items[C] == 0
        db = SequenceDatabase((seq,), Alphabet(["a", "b", "c"]))
        got = agrees_with_brute(db, Constraints(min_support=1.0, max_gap=max_gap, max_length=3))
        assert got[((A, B),)] == 1
        assert got[((A,), (B,))] == 1
        assert got[((C,), (A, B))] == 1
        assert ((A,), (C,)) not in got

    @pytest.mark.parametrize("max_gap", [None, 2])
    def test_item_only_at_lowest_end_is_kept(self, max_gap):
        # d sits only at <a>'s lowest end, so the i-extension {a d} is found
        # at that end, not at a higher one
        d = 3
        seq = make_sequence("s0", (1, (A, d)), (2, (B,)), (3, (A, B)))
        db = SequenceDatabase((seq,), Alphabet(["a", "b", "c", "d"]))
        got = agrees_with_brute(db, Constraints(min_support=1.0, max_gap=max_gap, max_length=3))
        assert got[((A, d),)] == 1
        assert got[((A, d), (B,))] == 1

    @pytest.mark.parametrize("constraints", CONSTRAINT_GRID)
    def test_no_pattern_spans_two_sequences(self, constraints):
        # a ends every sequence and b starts the next one, one time step
        # later; the middle sequences hold one transaction each, so every
        # shift out of them lands on a sentinel or past it
        seqs = (
            make_sequence("s0", (1, (C,)), (2, (A,))),
            make_sequence("s1", (3, (B,))),
            make_sequence("s2", (1, (A,))),
            make_sequence("s3", (2, (B,)), (3, (C,)), (4, (A,))),
            make_sequence("s4", (5, (B, C))),
        )
        db = SequenceDatabase(seqs, Alphabet(["a", "b", "c"]))
        assert support(((A,), (B,)), db, constraints).count == 0
        assert support(((A,), (B, C)), db, constraints).count == 0
        everything = constraints._replace(min_support=1 / len(seqs))
        for mine in (gsp_mine, prefixspan_mine):
            got = dict(pairs(mine(db, everything)))
            assert not any(p[0] == (A,) and len(p) > 1 for p in got)
        assert pairs(gsp_mine(db, everything)) == pairs(prefixspan_mine(db, everything))
        agrees_with_brute(db, everything)

    @settings(max_examples=40)
    @given(sequence_dbs(max_txns=8), constraint_grid())
    def test_longer_sequences_agree_with_oracle(self, db, constraints):
        agrees_with_brute(db, constraints)


class TestFilterClosed:
    def _result(self, entries):
        patterns = [SupportedPattern(p, c, 0.0) for p, c in entries]
        return MiningResult(patterns, MiningStats())

    def test_equal_support_superpattern_absorbs(self):
        result = self._result([(((A,),), 4), (((A,), (B,)), 4)])
        assert [sp.pattern for sp in filter_closed(result).patterns] == [((A,), (B,))]

    def test_equal_count_chain_keeps_only_longest(self):
        p, q, r = ((A,),), ((A,), (B,)), ((A,), (B, C))
        result = self._result([(p, 3), (((B,),), 4), (q, 3), (r, 3)])
        closed = filter_closed(result)
        assert pairs(closed) == [(((B,),), 4), (r, 3)]
        assert closed.patterns == brute_closed(result.patterns)

    def test_differing_support_keeps_both(self):
        result = self._result([(((A,),), 4), (((A,), (B,)), 3)])
        assert len(filter_closed(result).patterns) == 2

    def test_db1_closed_set(self, db1):
        closed = filter_closed(gsp_mine(db1, HALF))
        assert pairs(closed) == DB1_HALF_CLOSED
        got = dict(pairs(closed))
        assert got[((B,),)] == 4

    def test_stats_carried_through(self, db1):
        result = gsp_mine(db1, HALF)
        assert filter_closed(result).stats is result.stats

    @given(sequence_dbs(), constraint_grid())
    def test_equals_brute_closed(self, db, constraints):
        result = prefixspan_mine(db, constraints)
        expected = [(sp.pattern, sp.count) for sp in brute_closed(result.patterns)]
        assert pairs(filter_closed(result)) == expected

    @given(sequence_dbs())
    def test_every_pattern_has_closed_witness(self, db):
        result = prefixspan_mine(db, Constraints(0.25, max_length=3))
        closed = filter_closed(result)
        kept = [(sp.pattern, sp.count) for sp in closed.patterns]
        kept_patterns = {sp.pattern for sp in closed.patterns}
        assert kept_patterns <= {sp.pattern for sp in result.patterns}
        for sp in result.patterns:
            assert any(
                count == sp.count and pattern_in_pattern(sp.pattern, pattern)
                for pattern, count in kept
            )


class TestPatternInPattern:
    def test_subset_element_match(self):
        assert pattern_in_pattern(((A,), (B,)), ((A, C), (A,), (B, C)))

    def test_order_matters(self):
        assert not pattern_in_pattern(((B,), (A,)), ((A,), (B,)))

    def test_equal_patterns_contain_each_other(self):
        p = ((A,), (B, C))
        assert pattern_in_pattern(p, p)
