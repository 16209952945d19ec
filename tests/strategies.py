"""Hypothesis strategies for small random mining instances."""

import hypothesis.strategies as st

from seqmine.model import Alphabet, Constraints, DataSequence, SequenceDatabase


@st.composite
def itemsets(draw, n_items=5, max_size=3):
    items = draw(st.sets(st.integers(0, n_items - 1), min_size=1, max_size=max_size))
    return tuple(sorted(items))


@st.composite
def transaction_dbs(draw, max_items=6, max_txns=10, min_items=1, max_size=4):
    n_items = draw(st.integers(min_items, max_items))
    return draw(
        st.lists(
            itemsets(n_items=n_items, max_size=min(max_size, n_items)),
            min_size=1,
            max_size=max_txns,
        )
    )


@st.composite
def messy_transaction_dbs(draw, max_items=6, max_txns=10):
    """Transaction lists whose items come in any order, some repeated."""
    out = []
    for t in draw(transaction_dbs(max_items=max_items, max_txns=max_txns)):
        repeats = draw(st.lists(st.sampled_from(t), max_size=3))
        out.append(tuple(draw(st.permutations(t + tuple(repeats)))))
    return out


@st.composite
def sequence_dbs(draw, max_items=5, max_seqs=6, max_txns=4, max_items_per_txn=3):
    n_items = draw(st.integers(1, max_items))
    n_seqs = draw(st.integers(1, max_seqs))
    sequences = []
    for s in range(n_seqs):
        n_txns = draw(st.integers(1, max_txns))
        t = 0
        times, itemsets = [], []
        for _ in range(n_txns):
            t += draw(st.integers(1, 3))
            items = draw(
                st.sets(
                    st.integers(0, n_items - 1),
                    min_size=1,
                    max_size=min(max_items_per_txn, n_items),
                )
            )
            times.append(t)
            itemsets.append(tuple(sorted(items)))
        sequences.append(DataSequence(f"s{s}", tuple(times), tuple(itemsets)))
    alphabet = Alphabet(f"x{i}" for i in range(n_items))
    return SequenceDatabase(tuple(sequences), alphabet)


CONSTRAINT_GRID = [
    Constraints(min_support=0.5, max_length=3),
    Constraints(min_support=0.5, max_gap=1, max_length=3),
    Constraints(min_support=0.5, max_gap=2, max_length=3),
    Constraints(min_support=0.5, max_index_gap=0, max_length=3),
    Constraints(min_support=0.5, max_index_gap=1, max_length=3),
    Constraints(min_support=0.5, min_gap=1, max_length=3),
    Constraints(min_support=0.25, max_gap=2, max_index_gap=1, min_gap=1, max_length=3),
]


def constraint_grid():
    return st.sampled_from(CONSTRAINT_GRID)
