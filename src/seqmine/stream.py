"""One-pass batched sequential-pattern mining over a stream of data-sequences.

Bookkeeping is a lossy-counting pattern tree. Every tracked pattern holds an
observed count plus a ``delta``, an upper bound on how many supporting
sequences the tracker can possibly have missed. The maintained invariant,
checked at every batch boundary by the test suite, is the count sandwich::

    count <= true count <= count + delta

Batches are mined once with the pattern-growth miner at a local absolute
threshold ``T = max(1, floor(epsilon * batch_size))``; patterns below T in a
batch go unobserved, so:

* a pattern inserted after batch k gets ``delta = floor(epsilon * N_before)``,
  which bounds everything it may have accumulated while untracked;
* when T > 1, every tracked pattern that was not seen in a batch gets its
  delta bumped by T - 1, the most it could have occurred while unreported;
* after each batch, any node (and its whole subtree) with
  ``count + delta <= floor(epsilon * N)`` is evicted.

Those three rules give the two query guarantees: every pattern with true
support >= sigma is output, and every output pattern has true support
>= sigma - epsilon. Gap constraints are not applied in stream mode.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from seqmine.errors import BadBatchSizeError, InvalidStreamConfigError
from seqmine.model import (
    Constraints,
    DataSequence,
    Pattern,
    SupportedPattern,
    exact_fraction,
    pattern_sort_key,
)
from seqmine.sequences import _prefixspan

# A tree edge either starts a new element ("s") or extends the last one ("i").
Step = tuple[str, int]


def pattern_steps(pattern: Pattern) -> tuple[Step, ...]:
    steps: list[Step] = []
    for element in pattern:
        steps.append(("s", element[0]))
        steps.extend(("i", item) for item in element[1:])
    return tuple(steps)


class _Node:
    __slots__ = ("count", "delta", "inserted_at_batch", "children")

    def __init__(self, count: int, delta: int, inserted_at_batch: int):
        self.count = count
        self.delta = delta
        self.inserted_at_batch = inserted_at_batch
        self.children: dict[Step, _Node] = {}


class PatternTree:
    """Prefix tree of tracked patterns; the root is an empty-pattern sentinel."""

    def __init__(self):
        self.root = _Node(0, 0, 0)

    def lookup(self, pattern: Pattern) -> Optional[_Node]:
        node = self.root
        for step in pattern_steps(pattern):
            node = node.children.get(step)
            if node is None:
                return None
        return node

    def insert(self, pattern: Pattern, count: int, delta: int, batch: int) -> _Node:
        steps = pattern_steps(pattern)
        node = self.root
        for step in steps[:-1]:
            node = node.children[step]  # parents are always tracked first
        child = _Node(count, delta, batch)
        node.children[steps[-1]] = child
        return child

    def items(self) -> Iterator[tuple[Pattern, _Node]]:
        """(pattern, node) pairs, depth-first."""
        stack: list[tuple[Pattern, _Node]] = [((), self.root)]
        while stack:
            pattern, node = stack.pop()
            if pattern:
                yield pattern, node
            for step, child in node.children.items():
                kind, item = step
                if kind == "s":
                    grown = pattern + ((item,),)
                else:
                    grown = pattern[:-1] + (pattern[-1] + (item,),)
                stack.append((grown, child))

    def nodes(self) -> Iterator[_Node]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is not self.root:
                yield node
            stack.extend(node.children.values())

    def prune(self, threshold: int) -> None:
        """Drop every node (with its subtree) whose count + delta <= threshold."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            doomed = [s for s, c in node.children.items() if c.count + c.delta <= threshold]
            for step in doomed:
                del node.children[step]
            stack.extend(node.children.values())

    def __len__(self) -> int:
        return sum(1 for _ in self.nodes())

    def approx_bytes(self) -> int:
        total = 0
        for node in self.nodes():
            total += sys.getsizeof(node) + sys.getsizeof(node.children)
        return total


@dataclass(frozen=True)
class StreamConfig:
    """Stream parameters; epsilon < sigma is what makes the guarantees work."""

    sigma: float
    epsilon: float
    batch_size: int
    max_length: int = 5

    def validate(self) -> None:
        sigma = exact_fraction(self.sigma)
        epsilon = exact_fraction(self.epsilon)
        if not 0 < sigma <= 1:
            raise InvalidStreamConfigError(f"sigma must be in (0, 1], got {self.sigma}")
        if not 0 < epsilon < sigma:
            raise InvalidStreamConfigError(
                f"epsilon must be in (0, sigma), got epsilon={self.epsilon} sigma={self.sigma}"
            )
        if self.batch_size < 1:
            raise InvalidStreamConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_length < 1:
            raise InvalidStreamConfigError(f"max_length must be >= 1, got {self.max_length}")


@dataclass
class StreamState:
    tree: PatternTree = field(default_factory=PatternTree)
    sequences_seen: int = 0
    batches_seen: int = 0


def _local_threshold(epsilon, batch_len: int) -> int:
    return max(1, math.floor(exact_fraction(epsilon) * batch_len))


def _absorb_batch(state: StreamState, batch: Sequence[DataSequence], config: StreamConfig) -> None:
    eps = exact_fraction(config.epsilon)
    n_batch = len(batch)
    n_before = state.sequences_seen
    local_t = _local_threshold(eps, n_batch)

    mined = _prefixspan(
        batch, local_t, Constraints(min_support=1.0, max_length=config.max_length)
    )

    insert_delta = math.floor(eps * n_before)
    batch_no = state.batches_seen + 1
    touched: set[int] = set()
    for pattern, count in mined.items():  # parents-first, as insert needs
        node = state.tree.lookup(pattern)
        if node is None:
            node = state.tree.insert(pattern, count, insert_delta, batch_no)
        else:
            node.count += count
        touched.add(id(node))

    if local_t > 1:
        for node in state.tree.nodes():
            if id(node) not in touched:
                node.delta += local_t - 1

    state.sequences_seen += n_batch
    state.batches_seen += 1
    state.tree.prune(math.floor(eps * state.sequences_seen))


def process_batch(
    state: StreamState, batch: Sequence[DataSequence], config: StreamConfig
) -> StreamState:
    """Mine one full batch into the tree; the batch itself is never retained."""
    config.validate()
    if len(batch) != config.batch_size:
        raise BadBatchSizeError(
            f"expected a batch of {config.batch_size} sequences, got {len(batch)}"
        )
    _absorb_batch(state, batch, config)
    return state


def query_output(state: StreamState, config: StreamConfig) -> list[SupportedPattern]:
    """Patterns whose tracked count clears (sigma - epsilon) * N."""
    n = state.sequences_seen
    if n == 0:
        return []
    threshold = (exact_fraction(config.sigma) - exact_fraction(config.epsilon)) * n
    out = [
        SupportedPattern(pattern, node.count, node.count / n)
        for pattern, node in state.tree.items()
        if node.count >= threshold
    ]
    out.sort(key=lambda sp: pattern_sort_key(sp.pattern))
    return out


def flush(
    state: StreamState, residual_batch: Sequence[DataSequence], config: StreamConfig
) -> list[SupportedPattern]:
    """Process an end-of-stream partial batch, then answer the final query."""
    config.validate()
    if len(residual_batch) >= config.batch_size:
        raise BadBatchSizeError(
            f"residual batch must be smaller than batch_size ({config.batch_size}), "
            f"got {len(residual_batch)}"
        )
    if residual_batch:
        _absorb_batch(state, residual_batch, config)
    return query_output(state, config)


@dataclass
class StreamReport:
    final: bool
    batches: int
    sequences: int
    tree_nodes: int
    patterns: list[SupportedPattern]


def replay(
    sequences: Iterable[DataSequence],
    config: StreamConfig,
    report_every: int = 1,
    state: Optional[StreamState] = None,
) -> Iterator[StreamReport]:
    """Drive a stream through the miner, consuming the iterable exactly once.

    Yields a report after every ``report_every`` batches and one final report
    after the residual flush. A periodic report that would coincide with the
    final boundary is folded into the final one.
    """
    config.validate()
    state = state if state is not None else StreamState()
    it = iter(sequences)
    sentinel = object()
    batch: list[DataSequence] = []
    nxt = next(it, sentinel)
    while nxt is not sentinel:
        current = nxt
        nxt = next(it, sentinel)
        batch.append(current)  # type: ignore[arg-type]
        if len(batch) == config.batch_size:
            process_batch(state, batch, config)
            batch = []
            at_end = nxt is sentinel
            if report_every > 0 and state.batches_seen % report_every == 0 and not at_end:
                yield StreamReport(
                    False,
                    state.batches_seen,
                    state.sequences_seen,
                    len(state.tree),
                    query_output(state, config),
                )
    out = flush(state, batch, config)
    yield StreamReport(True, state.batches_seen, state.sequences_seen, len(state.tree), out)
