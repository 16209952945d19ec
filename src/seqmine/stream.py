"""One-pass batched sequential-pattern mining over a stream of data-sequences.

Bookkeeping is lossy counting (Manku & Motwani, VLDB 2002) over a table of
tracked patterns, keyed by pattern. Every tracked pattern holds an observed
count plus a ``delta``, an upper bound on how many supporting sequences the
tracker can possibly have missed. The maintained invariant, checked at every
batch boundary by the test suite, is the count sandwich::

    count <= true count <= count + delta

Batches are mined once with the pattern-growth miner at a local absolute
threshold ``T = max(1, floor(epsilon * batch_size))``; patterns below T in a
batch go unobserved, so:

* a pattern inserted after batch k gets ``delta = floor(epsilon * N_before)``,
  which bounds everything it may have accumulated while untracked;
* when T > 1, every tracked pattern that was not seen in a batch gets its
  delta bumped by T - 1, the most it could have occurred while unreported;
* after each batch, every node with ``count + delta <= floor(epsilon * N)``
  is evicted, and a new pattern already below that bar is never inserted.

A node's ``count + delta`` never exceeds its parent's (the pattern minus its
last item): a batch that mines the child mines the parent with at least the
child's count, one that mines only the parent adds at least T to it and
T - 1 to the child, one that mines neither bumps both by T - 1, and a child
is inserted with a delta below what its parent survived the last eviction
with. So evicting node by node keeps the table prefix-closed.

The three rules give the two query guarantees: every pattern with true
support >= sigma is output, and every output pattern has true support
>= sigma - epsilon. Gap constraints are not applied in stream mode.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import ItemsView, Iterable, Iterator, Sequence, ValuesView

from seqmine.errors import BadBatchSizeError, InvalidStreamConfigError
from seqmine.model import (
    Columns,
    Constraints,
    Pattern,
    Run,
    SupportedPattern,
    _Checked,
    exact_fraction,
    unit_fraction,
)
from seqmine.sequences import _prefixspan


class _Node:
    __slots__ = ("count", "delta", "inserted_at_batch")

    def __init__(self, count: int, delta: int, inserted_at_batch: int):
        self.count = count
        self.delta = delta
        self.inserted_at_batch = inserted_at_batch


class PatternTree:
    """The tracked patterns, keyed by pattern.

    The table is prefix-closed: a tracked pattern's parent (the pattern
    minus its last item) is tracked too, with ``count + delta`` at least
    the child's.
    """

    def __init__(self):
        self._nodes: dict[Pattern, _Node] = {}

    def absorb(
        self, mined: dict[Pattern, int], bump: int, delta: int, bar: int, batch: int
    ) -> None:
        """Merge one batch's mined counts into the table in place, then
        copy the table into a dict sized to it.

        A tracked pattern adds its mined count, or, if the batch did not
        mine it, ``bump`` to its delta; a new pattern is inserted with
        ``delta``. Only nodes with ``count + delta > bar`` are kept: kept
        nodes stay the same objects in the same order, and new ones follow
        in ``mined`` order. ``mined`` is consumed: each tracked pattern is
        taken out of it, so a pattern evicted here is not inserted again.
        """
        nodes = self._nodes
        evicted = []
        for pattern, node in nodes.items():
            count = mined.pop(pattern, None)
            if count is None:
                node.delta += bump
            else:
                node.count += count
            if node.count + node.delta <= bar:
                evicted.append(pattern)
        for pattern in evicted:
            del nodes[pattern]
        for pattern, count in mined.items():
            if count + delta > bar:
                nodes[pattern] = _Node(count, delta, batch)
        # a dict keeps its slots after deletes, so a table left to grow in
        # place holds up to twice a fresh one's; the copy, made in C, is not
        self._nodes = dict(nodes)

    def items(self) -> ItemsView[Pattern, _Node]:
        return self._nodes.items()

    def nodes(self) -> ValuesView[_Node]:
        return self._nodes.values()

    def __len__(self) -> int:
        return len(self._nodes)

    def approx_bytes(self) -> int:
        """Bytes of the table, its nodes and its pattern keys (each key's
        tuple and its element tuples; an element tuple shared by several
        keys is counted once per key)."""
        total = sys.getsizeof(self._nodes)
        for pattern, node in self._nodes.items():
            total += sys.getsizeof(node) + sys.getsizeof(pattern)
            total += sum(map(sys.getsizeof, pattern))
        return total


class StreamConfig(
    _Checked, namedtuple("StreamConfig", "sigma epsilon batch_size max_length", defaults=(5,))
):
    """Stream parameters; epsilon < sigma is what makes the guarantees work.

    Construction (and ``_replace``) raises :class:`InvalidStreamConfigError`
    for out-of-range values or a ``batch_size`` or ``max_length`` that is
    not an integer, and :class:`InvalidThresholdError` for a non-finite
    sigma or epsilon; sigma and then epsilon are checked against (0, 1] by
    :func:`seqmine.model.unit_fraction` before epsilon is tested against
    sigma, so every instance is valid.
    """

    __slots__ = ()

    def _check(self):
        self._check_integers(InvalidStreamConfigError, "batch_size max_length")
        sigma = unit_fraction(self.sigma, "sigma", InvalidStreamConfigError)
        if not unit_fraction(self.epsilon, "epsilon", InvalidStreamConfigError) < sigma:
            raise InvalidStreamConfigError(
                f"epsilon must be in (0, sigma), got epsilon={self.epsilon} sigma={self.sigma}"
            )
        if self.batch_size < 1:
            raise InvalidStreamConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_length < 1:
            raise InvalidStreamConfigError(f"max_length must be >= 1, got {self.max_length}")


class StreamState:
    """The tracked patterns, and the sequences and batches mined so far."""

    __slots__ = ("tree", "sequences_seen", "batches_seen")

    def __init__(
        self, tree: PatternTree | None = None, sequences_seen: int = 0, batches_seen: int = 0
    ):
        self.tree = tree if tree is not None else PatternTree()
        self.sequences_seen = sequences_seen
        self.batches_seen = batches_seen


def _absorb_batch(state: StreamState, batch: Sequence[Run], config: StreamConfig) -> None:
    eps = exact_fraction(config.epsilon)
    local_t = max(1, math.floor(eps * len(batch)))
    constraints = Constraints(min_support=1.0, max_length=config.max_length)
    mined = _prefixspan(Columns.from_runs(batch), local_t, constraints)
    insert_delta = math.floor(eps * state.sequences_seen)
    state.sequences_seen += len(batch)
    state.batches_seen += 1
    bar = math.floor(eps * state.sequences_seen)
    state.tree.absorb(mined, local_t - 1, insert_delta, bar, state.batches_seen)


def process_batch(
    state: StreamState, batch: Sequence[Run], config: StreamConfig
) -> StreamState:
    """Mine one full batch into the tree; the batch itself is never retained."""
    if len(batch) != config.batch_size:
        raise BadBatchSizeError(
            f"expected a batch of {config.batch_size} sequences, got {len(batch)}"
        )
    _absorb_batch(state, batch, config)
    return state


def query_output(state: StreamState, config: StreamConfig) -> list[SupportedPattern]:
    """Patterns whose tracked count clears (sigma - epsilon) * N, in the
    table's order: a caller that shows them sorts them its own way, as
    ``mine-stream`` does by tokens (:mod:`seqmine.textfmt`)."""
    n = state.sequences_seen
    if n == 0:
        return []
    # counts are ints, so clearing the exact threshold is clearing its ceiling
    threshold = math.ceil((exact_fraction(config.sigma) - exact_fraction(config.epsilon)) * n)
    return [
        SupportedPattern(pattern, node.count, node.count / n)
        for pattern, node in state.tree.items()
        if node.count >= threshold
    ]


def flush(
    state: StreamState, residual_batch: Sequence[Run], config: StreamConfig
) -> list[SupportedPattern]:
    """Process an end-of-stream partial batch, then answer the final query."""
    if len(residual_batch) >= config.batch_size:
        raise BadBatchSizeError(
            f"residual batch must be smaller than batch_size ({config.batch_size}), "
            f"got {len(residual_batch)}"
        )
    if residual_batch:
        _absorb_batch(state, residual_batch, config)
    return query_output(state, config)


StreamReport = namedtuple("StreamReport", "final batches sequences tree_nodes patterns")


def replay(
    sequences: Iterable[Run],
    config: StreamConfig,
    report_every: int = 1,
    state: StreamState | None = None,
) -> Iterator[StreamReport]:
    """Drive a stream through the miner, consuming the iterable exactly once.

    ``sequences`` are ``(seq_id, times, itemsets)`` runs, such as
    :func:`seqmine.dataset.iter_sequence_db` yields; a
    :class:`seqmine.model.DataSequence` is one too. Yields a report after
    every ``report_every`` batches and one final report after the residual
    flush. A periodic report that would coincide with the final boundary is
    folded into the final one.
    """
    state = state if state is not None else StreamState()
    batch: list[Run] = []
    for sequence in sequences:
        # a full batch is mined once the next sequence shows it is not the last
        if len(batch) == config.batch_size:
            process_batch(state, batch, config)
            batch = []
            if report_every > 0 and state.batches_seen % report_every == 0:
                yield StreamReport(
                    False,
                    state.batches_seen,
                    state.sequences_seen,
                    len(state.tree),
                    query_output(state, config),
                )
        batch.append(sequence)
    if len(batch) == config.batch_size:
        process_batch(state, batch, config)
        batch = []
    out = flush(state, batch, config)
    yield StreamReport(True, state.batches_seen, state.sequences_seen, len(state.tree), out)
