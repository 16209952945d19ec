"""The exhaustive reference miners validate themselves here."""

import ast
from pathlib import Path

import pytest
from hypothesis import given

from conftest import A, B, C, make_sequence
from strategies import sequence_dbs, transaction_dbs

from seqmine.errors import AlphabetTooLargeError, InstanceTooLargeError
from seqmine.model import (
    Alphabet,
    Constraints,
    SequenceDatabase,
    itemset_support,
    support,
)
from seqmine.oracle import (
    brute_closed,
    brute_itemsets,
    brute_sequences,
    brute_stream,
    iter_canonical_patterns,
)


class TestBruteItemsets:
    def test_tdb1_half(self, tdb1):
        got = [(f.itemset, f.count) for f in brute_itemsets(tdb1, 0.5)]
        assert got == [
            ((A,), 3),
            ((B,), 3),
            ((C,), 3),
            ((A, B), 2),
            ((A, C), 2),
            ((B, C), 2),
        ]

    def test_tdb1_quarter_includes_triple(self, tdb1):
        got = dict((f.itemset, f.count) for f in brute_itemsets(tdb1, 0.25))
        assert got[(A, B, C)] == 1
        assert len(got) == 7

    def test_single_transaction_full_support(self):
        got = [f.itemset for f in brute_itemsets([(A, B)], 1.0)]
        assert got == [(A,), (B,), (A, B)]

    def test_alphabet_cap(self):
        wide = [tuple(range(17))]
        with pytest.raises(AlphabetTooLargeError):
            brute_itemsets(wide, 0.5)

    @given(transaction_dbs(max_items=5, max_txns=8))
    def test_self_validation(self, transactions):
        out = brute_itemsets(transactions, 0.25)
        emitted = {f.itemset for f in out}
        for f in out:
            assert itemset_support(f.itemset, transactions)[0] == f.count
            for drop in range(len(f.itemset)):
                sub = f.itemset[:drop] + f.itemset[drop + 1 :]
                if sub:
                    assert sub in emitted


class TestIterCanonicalPatterns:
    def test_counts_for_two_items(self):
        pats = list(iter_canonical_patterns([A, B], 2))
        # size 1: <{a}>, <{b}>; size 2: four two-element patterns plus <{a b}>
        assert len(pats) == 2 + 5
        assert len(set(pats)) == len(pats)

    def test_every_pattern_canonical(self):
        for p in iter_canonical_patterns([A, B, C], 3):
            for element in p:
                assert list(element) == sorted(set(element))


class TestBruteSequences:
    def test_db1_half_frozen(self, db1):
        got = [(sp.pattern, sp.count) for sp in brute_sequences(db1, Constraints(0.5, max_length=3))]
        assert got == [
            (((A,),), 4),
            (((B,),), 4),
            (((C,),), 3),
            (((A,), (B,)), 3),
            (((A,), (C,)), 3),
            (((A, B),), 2),
            (((B,), (C,)), 2),
            (((A, B), (C,)), 2),
        ]

    def test_db1_three_quarters(self, db1):
        got = [(sp.pattern, sp.count) for sp in brute_sequences(db1, Constraints(0.75, max_length=3))]
        assert got == [
            (((A,),), 4),
            (((B,),), 4),
            (((C,),), 3),
            (((A,), (B,)), 3),
            (((A,), (C,)), 3),
        ]

    def test_pattern_alphabet_disjoint(self):
        db = SequenceDatabase(
            (make_sequence("s", (1, (A,))),), Alphabet(["a"])
        )
        out = brute_sequences(db, Constraints(1.0, max_length=2))
        assert [(sp.pattern, sp.count) for sp in out] == [(((A,),), 1)]

    def test_caps(self, db1):
        with pytest.raises(InstanceTooLargeError):
            brute_sequences(db1, Constraints(0.5))  # unbounded max_length
        with pytest.raises(InstanceTooLargeError):
            brute_sequences(db1, Constraints(0.5, max_length=5))
        wide = SequenceDatabase(
            (make_sequence("s", (1, tuple(range(7)))),), Alphabet([f"x{i}" for i in range(7)])
        )
        with pytest.raises(InstanceTooLargeError):
            brute_sequences(wide, Constraints(0.5, max_length=2))

    @given(sequence_dbs(max_items=4, max_seqs=5, max_txns=3))
    def test_self_validation(self, db):
        out = brute_sequences(db, Constraints(0.25, max_length=3))
        for sp in out:
            assert support(sp.pattern, db, Constraints(0.25, max_length=3)).count == sp.count


class TestBruteStream:
    def test_identical_sequences(self):
        stream = [make_sequence(f"s{i}", (1, (A,)), (2, (B,))) for i in range(4)]
        got = {(sp.pattern, sp.count) for sp in brute_stream(stream, 0.5, max_length=3)}
        assert got == {(((A,),), 4), (((B,),), 4), (((A,), (B,)), 4)}

    def test_empty_stream(self):
        assert brute_stream([], 0.5) == []


class TestBruteClosed:
    def test_db1_closed(self, db1):
        frequent = brute_sequences(db1, Constraints(0.5, max_length=3))
        got = [(sp.pattern, sp.count) for sp in brute_closed(frequent)]
        assert got == [
            (((A,),), 4),
            (((B,),), 4),
            (((A,), (B,)), 3),
            (((A,), (C,)), 3),
            (((A, B), (C,)), 2),
        ]


MINER_MODULES = {"seqmine.sequences", "seqmine.stream"}
MINER_KERNEL_NAMES = {
    "bit_layout", "BitLayout", "item_ints", "count_sequences", "extend", "contains", "support"
}


def test_oracle_shares_no_code_with_the_miners():
    """The oracle is ground truth only while it reads the raw ``times`` and
    ``itemsets`` itself; importing a miner or the shared kernel would let a
    kernel bug agree with itself."""
    source = Path(__file__).resolve().parents[1] / "src" / "seqmine" / "oracle.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    imported, named = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        if isinstance(node, ast.alias):
            named.update((node.name, node.asname))
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not imported & MINER_MODULES
    assert not named & MINER_KERNEL_NAMES
