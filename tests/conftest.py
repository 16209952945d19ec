import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "seqmine",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("seqmine")

from seqmine.model import Alphabet, DataSequence, SequenceDatabase


def make_sequence(seq_id, *txns):
    """txns are (time, items) pairs; items may be any iterable of ids."""
    return DataSequence(
        seq_id, tuple(t for t, _ in txns), tuple(tuple(sorted(set(items))) for _, items in txns)
    )


def delete_last_item(pattern):
    """The pattern's parent: the pattern minus its last item."""
    tail = pattern[-1]
    if len(tail) == 1:
        return pattern[:-1]
    return pattern[:-1] + (tail[:-1],)


A, B, C = 0, 1, 2


@pytest.fixture
def db1():
    """Four small data-sequences over items a, b, c used across the suite."""
    alphabet = Alphabet(["a", "b", "c"])
    return SequenceDatabase(
        (
            make_sequence("s1", (1, (A,)), (2, (A, B)), (3, (C,))),
            make_sequence("s2", (1, (A,)), (2, (C,)), (3, (B,))),
            make_sequence("s3", (1, (B,)), (2, (A, B)), (3, (C,))),
            make_sequence("s4", (1, (A,)), (5, (B,))),
        ),
        alphabet,
    )


@pytest.fixture
def tdb1():
    """Four unordered transactions over items a, b, c."""
    return [(A, B, C), (A, B), (A, C), (B, C)]
