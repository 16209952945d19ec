"""Probes around the layer functions the real CLI calls.

:func:`instrumented` rebinds, for the length of a ``with`` block, every
layer function ``seqmine.cli`` reaches (:data:`LAYER_CALLS`, plus each
``next()`` of ``dataset.iter_sequence_db``) to a wrapper that calls it
through ``probe.call(span_name, fn, ...)``. :func:`cli_output` then runs
``seqmine.cli.main`` itself, unchanged, so a probe sees the CLI's own call
sequence and read path. The probe decides what is recorded:

* :class:`Tracer` records a span per call and, after each stream batch,
  samples the pattern tree outside every layer span;
* :class:`MemoryProbe` records the ``tracemalloc`` peak per layer call.

Span names are ``<module>.<what>``; the module is the layer.
"""

from __future__ import annotations

import io
import json
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from time import perf_counter
from typing import Callable, Iterator

from seqmine import cli, dataset, stream, textfmt

# (owner, attribute, span name). The miners and the itemset functions are
# rebound in seqmine.cli, which imported them by name; the stream functions
# in seqmine.stream, whose replay() calls them.
LAYER_CALLS = (
    (dataset, "load_sequence_db", "dataset.load"),
    (dataset, "load_transactions", "dataset.load"),
    (cli, "gsp_mine", "sequences.gsp_mine"),
    (cli, "prefixspan_mine", "sequences.prefixspan_mine"),
    (cli, "filter_closed", "sequences.filter_closed"),
    (cli, "mine_frequent_itemsets", "itemsets.mine"),
    (cli, "generate_rules", "itemsets.rules"),
    (stream, "process_batch", "stream.process_batch"),
    (stream, "query_output", "stream.query_output"),
    (stream, "flush", "stream.flush"),
    (stream.PatternTree, "__len__", "stream.tree_len"),
    (textfmt, "supported_pattern_lines", "textfmt.format"),
    (textfmt, "frequent_itemset_lines", "textfmt.format"),
    (textfmt, "rule_lines", "textfmt.format"),
)


def cli_output(argv: list[str]) -> bytes:
    """What ``python -m seqmine argv`` writes to stdout, run in this process."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"seqmine {argv[0]} exited {code}")
    return out.getvalue().encode("utf-8")


class Probe:
    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def after(self, name: str, args: tuple, result) -> None:
        """Called after each layer call, outside its span."""


@contextmanager
def instrumented(probe: Probe) -> Iterator[None]:
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in LAYER_CALLS]
    read_sequences = dataset.iter_sequence_db

    def wrap(fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            result = probe.call(name, fn, *args, **kwargs)
            probe.after(name, args, result)
            return result
        return wrapper

    def iter_sequence_db(*args, **kwargs):
        sequences = read_sequences(*args, **kwargs)
        while (item := probe.call("dataset.iter", next, sequences, None)) is not None:
            yield item

    for (owner, attr, name), (_, _, fn) in zip(LAYER_CALLS, originals):
        setattr(owner, attr, wrap(fn, name))
    dataset.iter_sequence_db = iter_sequence_db
    try:
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
        dataset.iter_sequence_db = read_sequences


class TreeSamples:
    """The stream's pattern tree, sampled between batches: its node count,
    ``approx_bytes()`` and the nodes inserted and evicted since the previous
    boundary. Nodes inserted and evicted within one batch are not seen."""

    def __init__(self):
        self.tree_nodes_max = 0
        self.tree_bytes_max = 0
        self.nodes_inserted = 0
        self.nodes_evicted = 0
        self._nodes = 0
        self._batch = 0

    def sample(self, state) -> None:
        if state.batches_seen == self._batch:
            return
        self._batch = state.batches_seen
        nodes = inserted = 0
        # not len(state.tree): that is a traced layer call
        for node in state.tree.nodes():
            nodes += 1
            inserted += node.inserted_at_batch == self._batch
        self.nodes_inserted += inserted
        self.nodes_evicted += self._nodes + inserted - nodes
        self._nodes = nodes
        self.tree_nodes_max = max(self.tree_nodes_max, nodes)
        self.tree_bytes_max = max(self.tree_bytes_max, state.tree.approx_bytes())

    def as_dict(self) -> dict[str, int]:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


class Tracer(Probe):
    """Spans ``[name, start, end, parent]`` of one traced run, kept in
    memory; the tree samples taken between batches; the last result of each
    layer call and the number of lines formatted.

    ``parent`` is the index of the enclosing span in :attr:`spans`, or None.
    All spans of a run share :attr:`run_id`.
    """

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.tree = TreeSamples()
        self.last: dict = {}
        self.lines = 0
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else None])
        self._open.append(index)
        self.spans[index][1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = perf_counter()
            self._open.pop()

    def after(self, name: str, args: tuple, result) -> None:
        self.last[name] = result
        if name == "textfmt.format":
            self.lines += len(result)
        elif name in ("stream.process_batch", "stream.flush"):
            # a span of its own, so that sampling is neither layer time nor residual
            self.call("probe.tree_sample", self.tree.sample, args[0])

    def totals(self, root: str, top: bool = False) -> dict[str, float]:
        """Seconds per span name among the spans under the root span ``root``;
        with ``top``, only among its direct children."""
        roots = {i for i, s in enumerate(self.spans) if s[0] == root and s[3] is None}
        under = set(roots)
        out: dict[str, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent in under:
                under.add(i)
                if not top or parent in roots:
                    out[name] = out.get(name, 0.0) + end - start
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, handle) -> None:
        for name, start, end, parent in self.spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")


class MemoryProbe(Probe):
    """``tracemalloc`` peak above the starting level, per layer, over its
    calls. A call made inside another layer call counts toward the outer."""

    def __init__(self):
        self.alloc_peak: dict[str, int] = {}
        self._depth = 0

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if self._depth:
            return fn(*args, **kwargs)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        self._depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._depth -= 1
            layer = name.split(".", 1)[0]
            peak = tracemalloc.get_traced_memory()[1] - base
            self.alloc_peak[layer] = max(self.alloc_peak.get(layer, 0), peak)


class CallCounter:
    def __init__(self):
        self.calls = 0
        self.result_items = 0


@contextmanager
def counting(fn: Callable, sized: bool = False) -> Iterator[CallCounter]:
    """Count calls of ``fn`` made through any ``seqmine`` module global bound
    to it (and, with ``sized``, the total length of its results)."""
    counter = CallCounter()

    def wrapper(*args, **kwargs):
        counter.calls += 1
        result = fn(*args, **kwargs)
        if sized:
            counter.result_items += len(result)
        return result

    patched = [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name == "seqmine" or name.startswith("seqmine.")
        for attr, value in vars(module).items()
        if value is fn
    ]
    for module, attr in patched:
        setattr(module, attr, wrapper)
    try:
        yield counter
    finally:
        for module, attr in patched:
            setattr(module, attr, fn)


@contextmanager
def tracing_memory() -> Iterator[None]:
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
