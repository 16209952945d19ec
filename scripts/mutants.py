"""Run a fixed catalogue of mutations of the shared mining kernels.

Each entry names a module under ``src/``, an exact text that occurs once
in it, the text that replaces it, and the fault that the change plants.
For each entry the script copies ``src/`` and ``tests/`` into a temporary
directory, applies the mutation there, runs a fast test subset with
``pytest -x`` and prints whether the mutant was killed (a test failed) or
survived, with the time taken. The working tree is never changed. An
entry whose mutant cannot change any result is kept, with the argument
for why, so that a later change of the code shows up here as well.
Run from anywhere::

    python scripts/mutants.py

It exits 1 when a mutant that is not marked equivalent survives, and 2
when an entry's text does not occur exactly once. The whole catalogue
takes a few minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = (
    "tests/test_model.py",
    "tests/test_sequences.py",
    "tests/test_oracle.py",
    "tests/test_stream.py",
)

# ``equivalent`` is None, or why no input can tell the mutant apart
Mutant = namedtuple("Mutant", "name path old new why equivalent", defaults=(None,))

MODEL, SEQUENCES, STREAM = (f"src/seqmine/{m}.py" for m in ("model", "sequences", "stream"))

MUTANTS = (
    Mutant(
        "extend-lowest-end", MODEL,
        "ends = (h ^ (h - layout.starts)) & ends",
        "ends = h ^ (h - layout.starts)",
        "unbounded gaps step from every bit below a sequence's lowest end too",
    ),
    Mutant(
        "layout-min-gap", MODEL,
        "if min_gap < t - start <= high",
        "if min_gap <= t - start <= high",
        "min_gap becomes an inclusive bound",
    ),
    Mutant(
        "layout-same-sentinel", MODEL,
        "same &= real << k",
        "same &= real << (k - 1)",
        "a step may leave the bit k places back, one more than the sequence holds,"
        " which is the sentinel before it; with no gap rule step 1 marks each"
        " sequence's first position",
    ),
    Mutant(
        "layout-same-crosses", MODEL,
        "same &= real << k",
        "same &= real",
        "a step may leave a bit of the sequence before, across the sentinel",
    ),
    Mutant(
        "extend-drop-starts", MODEL,
        "return (layout.sentinels - first) & layout.real",
        "return (layout.sentinels - first) & layout.real & ~layout.starts",
        "the unbounded fill loses each sequence's first position",
        "the fill is taken on unbounded gaps only, where first_allowed steps at"
        " least one position on from an end in the same sequence, so it never"
        " gives a sequence's first position, and the fill from it never holds"
        " one; the s-counts read first, not the fill",
    ),
    Mutant(
        "upto-smear-short", MODEL,
        "    while span:\n",
        "    while span & (span >> k):\n",
        "the doubling smear of upto stops one step early, so an item's last"
        " position no longer reaches the start of a long sequence",
    ),
    Mutant(
        "item-ints-short-growth", MODEL,
        "got += pad",
        "got += pad[1:]",
        "each growth of the per-item byte rows is one byte short, so a row"
        " met before a growth has no byte for the last rows of the new width",
    ),
    Mutant(
        "item-ints-row-late", MODEL,
        "byte, bit = j >> 3, 1 << (j & 7)",
        "byte, bit = (j + 1) >> 3, 1 << ((j + 1) & 7)",
        "every row sets its items' bit one row late",
    ),
    Mutant(
        "pattern-ends-no-extend", MODEL,
        "ends = extend(ends, layout)",
        "ends = ends",
        "a whole pattern's next element may share its previous element's transaction",
    ),
    Mutant(
        "support-layout-key", MODEL,
        "kept[0] != c[1:4]:\n        kept = db._layout = (c[1:4],",
        "kept[0] != c[0:1]:\n        kept = db._layout = (c[0:1],",
        "support keeps its layout per min_support, so a call under other gap"
        " rules counts on a stale layout",
    ),
    Mutant(
        "children-i-threshold", SEQUENCES,
        "c_ends = ends & bits\n"
        "        if c_ends.bit_count() >= minc and (count := count_sequences(c_ends, layout)) >= minc",
        "c_ends = ends & bits\n"
        "        if c_ends.bit_count() >= minc and (count := count_sequences(c_ends, layout)) > minc",
        "an i-extension counted exactly minc is dropped",
    ),
    Mutant(
        "room-bound-strict", SEQUENCES,
        "(first := first_allowed(ends, layout)).bit_count() >= minc",
        "(first := first_allowed(ends, layout)).bit_count() > minc",
        "the s-loop is skipped when first_allowed gives exactly minc bits, under"
        " either gap rule: on unbounded gaps that is exactly minc sequences with"
        " room for a new element",
    ),
    Mutant(
        "upto-as-items", SEQUENCES,
        "hits = first & last",
        "hits = first & items[item]",
        "on unbounded gaps an s-extension counts only the sequences where its item"
        " sits exactly at the first allowed position",
    ),
    Mutant(
        "bounded-s-popcount", SEQUENCES,
        "bounded, items = layout.bounded, layout.items",
        "bounded, items = False, layout.items",
        "the bounded flag is forced off, so a bounded s-child's popcount is taken"
        " as its count and its projection is the fill of first",
    ),
    Mutant(
        "bounded-gap-s-rule", SEQUENCES,
        "(bs[y] if layout.bounded else s_found & bs[y])",
        "(s_found & bs[y])",
        "S(P) bounds an s-step child's new elements under max_gap and max_index_gap too",
    ),
    Mutant(
        "successors-s-threshold", SEQUENCES,
        "x for x, c in counts.items() if c >= minc",
        "x for x, c in counts.items() if c > minc",
        "a follower in exactly minc sequences leaves the s-list",
    ),
    Mutant(
        "successors-i-threshold", SEQUENCES,
        "Counter(i_pairs).items() if count >= minc)",
        "Counter(i_pairs).items() if count > minc)",
        "a co-occurring pair in exactly minc sequences leaves the i-list",
    ),
    Mutant(
        "successors-firsts-order", SEQUENCES,
        "firsts.update(dict.fromkeys(txn, tuple(later)))\n            later.update(txn)",
        "later.update(txn)\n            firsts.update(dict.fromkeys(txn, tuple(later)))",
        "an item's followers take in its own transaction",
    ),
    Mutant(
        "successors-run-order", SEQUENCES,
        "for txn in reversed(itemsets):",
        "for txn in itemsets:",
        "the followers of an item are read from the wrong end of its sequence",
    ),
    Mutant(
        "every-pair-i-list", SEQUENCES,
        "every[k + 1:]",
        "every[k:]",
        "an item's i-list holds the item itself",
    ),
    Mutant(
        "stream-insert-delta", STREAM,
        "insert_delta = math.floor(eps * state.sequences_seen)",
        "insert_delta = 0",
        "a pattern first met late is inserted as if it could not have occurred before",
    ),
    Mutant(
        "stream-delta-bump", STREAM,
        "node.delta += bump",
        "node.delta += 0",
        "a tracked pattern the batch did not mine keeps its delta",
    ),
    Mutant(
        "stream-eviction-bar", STREAM,
        "if node.count + node.delta <= bar:",
        "if node.count + node.delta < bar:",
        "a node at the bar is kept",
    ),
    Mutant(
        "stream-reinsert-evicted", STREAM,
        "evicted.append(pattern)\n",
        "evicted.append(pattern)\n"
        "                if count is not None:\n"
        "                    mined[pattern] = count\n",
        "a tracked pattern the batch evicts goes back to the insert step, and is"
        " inserted again when its mined count clears the bar as a new pattern's",
    ),
)


def source_of(mutant: Mutant, root: Path = ROOT) -> str:
    """The text of ``mutant``'s module under ``root``; raises ValueError
    unless the entry's old text occurs in it exactly once."""
    source = (root / mutant.path).read_text(encoding="utf-8")
    found = source.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: old text occurs {found} times in {mutant.path}")
    return source


def run(mutant: Mutant, tests: tuple[str, ...] = TESTS) -> tuple[bool, float]:
    """Apply ``mutant`` to a temporary copy of the source and tests, run
    ``tests`` there with ``pytest -x``, and return (killed, seconds)."""
    with tempfile.TemporaryDirectory(prefix="seqmine-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        source = source_of(mutant, copy)
        (copy / mutant.path).write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True, check=False,
        )
        seconds = time.perf_counter() - started
    if done.returncode not in (0, 1):  # 1: a test failed; anything else is no verdict
        raise RuntimeError(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout[-2000:]}")
    return done.returncode == 1, seconds


def main() -> int:
    try:
        for mutant in MUTANTS:
            source_of(mutant)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    missed = []
    for mutant in MUTANTS:
        killed, seconds = run(mutant)
        verdict = "killed" if killed else "survived"
        note = f"  (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{verdict:8}  {seconds:6.1f} s  {mutant.name}: {mutant.why}{note}", flush=True)
        if not killed and not mutant.equivalent:
            missed.append(mutant.name)
    print(f"{len(MUTANTS) - len(missed)} of {len(MUTANTS)} as expected"
          + (f"; survived: {' '.join(missed)}" if missed else ""))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
