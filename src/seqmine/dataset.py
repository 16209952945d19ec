r"""The sequence and transaction file formats.

Every text format seqmine reads, results-CSV (:mod:`seqmine.results`)
included, is UTF-8 with ``#`` comment lines and is split into rows by
:func:`_rows`. A file is read through :func:`read_lines`, which decodes it
as UTF-8 with a leading byte-order mark skipped. A line ends at ``\n``,
``\r\n`` or ``\r``; other Unicode line breaks, such as U+0085 or U+2028, do
not end a line. A line holding a byte that is not UTF-8 is a
:class:`ParseError` ``byte 0x.. is not UTF-8``. Every non-blank line that
is not a comment is split on ``,`` into a fixed number of fields, each
stripped of surrounding whitespace; a line with another field count is a
:class:`ParseError` ``expected '<fields>', got '<line>'``. Numeric fields
take ASCII digits only.

* sequence-CSV: one transaction per line, ``seq_id,time,items`` with
  space-separated item tokens and a base-10 integer time. Lines may arrive
  unsorted; equal-time transactions of one sequence are merged. One reader,
  :func:`_runs`, serves both loaders: of the lines it holds only the
  current run with one seq_id, and it parses each distinct items and time
  field once while that stays in a table of at most ``_TABLE_SIZE``
  entries. :func:`load_sequence_db` appends each run to the database's
  columns and :func:`iter_sequence_db` yields it as it is: a valid run,
  not checked again.
* transactions-CSV: ``txn_id,items``, each txn_id non-empty and unique.
  :func:`load_transactions` reads it into :class:`Baskets`, one int per
  item, keeping no object per basket.
"""

from __future__ import annotations

import codecs
import io
from collections.abc import Iterator
from time import monotonic, sleep

from seqmine.errors import DuplicateKeyError, NonIntegerTimeError, ParseError
from seqmine.model import Alphabet, Baskets, Columns, Run, SequenceDatabase, item_ints


def _not_utf8(char: str) -> str:
    """What is wrong with a character that cannot be encoded as UTF-8: the
    byte it escapes, when a file was read with ``errors="surrogateescape"``."""
    code = ord(char)
    if 0xDC80 <= code <= 0xDCFF:
        return f"byte 0x{code - 0xDC00:02x} is not UTF-8"
    return f"character U+{code:04X} is not UTF-8"


def _ascii_number(parse, text: str):
    """``parse(text)`` for ``int`` or ``Decimal``, with ValueError for the
    underscores and non-ASCII digits both accept (``1_0`` as 10, ``٣`` as 3)."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not an ASCII number: {text!r}")
    return parse(text)


def read_lines(path: str, idle_timeout: float | None = None) -> Iterator[str]:
    """Yield the lines of a file without their line breaks, each as soon as
    it is read. Without ``idle_timeout`` the file ends at the first read that
    finds no byte. With it, the file is watched: reading goes on past the
    current end, and the file ends once ``idle_timeout`` seconds go by with
    no new byte, counted from when the lines of the last bytes read were
    taken; ``inf`` watches for ever, and a NaN or negative ``idle_timeout``
    is a ValueError, raised before the file is opened."""
    if idle_timeout is not None and not idle_timeout >= 0:
        raise ValueError(f"idle_timeout must be >= 0, got {idle_timeout}")
    with open(path, "rb") as handle:
        yield from _lines(handle, idle_timeout)


def _lines(handle, idle_timeout: float | None) -> Iterator[str]:
    r"""The lines of a binary file read in pieces of up to 8 KiB, split as
    :func:`_rows` splits a str. One decoder spans every read, so a character
    or a ``\r\n`` cut where a read stopped is held until the next read
    completes it; the decoder is finalized only where the file ends. An
    undecodable byte is kept as a surrogate escape, for :func:`_rows` to
    name its line."""
    utf8 = codecs.getincrementaldecoder("utf-8-sig")("surrogateescape")
    decoder = io.IncrementalNewlineDecoder(utf8, translate=True)
    tail = ""
    idle_since = monotonic()
    while True:
        data = handle.read(8192)
        if data:
            *lines, tail = (tail + decoder.decode(data)).split("\n")
            yield from lines
            idle_since = monotonic()
        elif idle_timeout is None or monotonic() - idle_since >= idle_timeout:
            break
        else:
            sleep(0.05)
    *lines, tail = (tail + decoder.decode(b"", final=True)).split("\n")
    yield from lines
    if tail:
        yield tail


def _rows(source, fields: str) -> Iterator[tuple[int, list[str]]]:
    r"""Yield (line_no, stripped fields) for each line that is not blank or a
    comment, numbering lines from 1. ``source`` is an iterable of lines, such
    as :func:`read_lines` yields, or a str, which is split as a file is
    split: a line ends at ``\n``, ``\r\n`` or ``\r`` and nowhere else. ``fields``
    names the columns, as in ``'txn_id,items'``; a line with another field
    count is a ParseError, and so is a line with an undecodable byte, even
    in a comment."""
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    width = fields.count(",") + 1
    for line_no, raw in enumerate(source, start=1):
        if not raw.isascii():
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ParseError(line_no, _not_utf8(raw[exc.start])) from None
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(line_no, f"expected {fields!r}, got {line!r}")
        yield line_no, [*map(str.strip, parts)]


def _items(line_no: int, text: str, alphabet: Alphabet) -> frozenset[int]:
    """The ids of a space-separated item field, interned in token order."""
    tokens = text.split()
    if not tokens:
        raise ParseError(line_no, "transaction has no items")
    # Nearly every line holds only known tokens, and these are looked up in
    # C; a line with a new token interns all its tokens in order instead.
    try:
        return frozenset(map(alphabet._id_by_token.__getitem__, tokens))
    except KeyError:
        return frozenset([alphabet.intern(t) for t in tokens])


_SEQUENCE_FIELDS = "seq_id,time,items"


# Each table a call of _runs keeps is emptied when it holds this many
# entries, so the reader's memory stays bounded when every field differs.
_TABLE_SIZE = 1 << 12


def _kept(table: dict, key, value):
    """Store ``value`` under ``key``, emptying a full ``table`` first."""
    if len(table) >= _TABLE_SIZE:
        table.clear()
    table[key] = value
    return value


def _run(seq_id: str, by_time: dict[int, frozenset[int]], tuples: dict) -> Run:
    """``(seq_id, times, itemsets)`` of one sequence from its items per
    time, transactions in time order. ``tuples`` maps each itemset met to
    its sorted tuple, so equal transactions share one."""
    times = sorted(by_time)
    itemsets = [
        tuples.get(s) or _kept(tuples, s, tuple(sorted(s))) for s in map(by_time.get, times)
    ]
    return seq_id, tuple(times), tuple(itemsets)


def _runs(source, alphabet: Alphabet, contiguous: bool) -> Iterator[Run]:
    """The one sequence-CSV reader: yield ``(seq_id, times, itemsets)`` for
    each run of lines with one seq_id, as soon as the run ends, its
    equal-time transactions merged. Of the lines, only the current run is
    held. Each call also keeps three tables, each of at most
    ``_TABLE_SIZE`` entries: items field -> its ids, time field -> its int,
    and merged itemset -> its tuple. With ``contiguous``, a seq_id whose
    run has ended is a ParseError where it reappears; without, its new run
    is yielded as a run of its own."""
    done: set[str] = set()
    current: str | None = None
    by_time: dict[int, frozenset[int]] = {}
    ids: dict[str, frozenset[int]] = {}
    ints: dict[str, int] = {}
    tuples: dict[frozenset[int], tuple[int, ...]] = {}
    for line_no, (seq_id, time_text, items_text) in _rows(source, _SEQUENCE_FIELDS):
        if not seq_id:
            raise ParseError(line_no, "empty seq_id")
        time = ints.get(time_text)
        if time is None:
            try:
                time = _kept(ints, time_text, _ascii_number(int, time_text))
            except ValueError:
                raise NonIntegerTimeError(
                    line_no, f"time must be a base-10 integer, got {time_text!r}"
                )
        items = ids.get(items_text) or _kept(ids, items_text, _items(line_no, items_text, alphabet))
        if seq_id != current:
            if current is not None:
                yield _run(current, by_time, tuples)
                if contiguous:
                    done.add(current)
            if seq_id in done:
                raise ParseError(line_no, f"seq_id {seq_id!r} reappears after its run ended")
            current = seq_id
            by_time = {}
        known = by_time.get(time)
        by_time[time] = items if known is None else known | items
    if current is not None:
        yield _run(current, by_time, tuples)


def _merged(columns: Columns) -> Iterator[Run]:
    """The runs of ``columns`` with the runs of each seq_id merged into one
    sequence, equal times united, in order of first appearance."""
    parts: dict[str, list[Run]] = {}
    for run in columns.runs():
        parts.setdefault(run[0], []).append(run)
    tuples: dict[frozenset[int], tuple[int, ...]] = {}
    for seq_id, runs in parts.items():
        by_time: dict[int, frozenset[int]] = {}
        for _, times, itemsets in runs:
            for time, items in zip(times, itemsets):
                by_time[time] = by_time.get(time, frozenset()).union(items)
        yield _run(seq_id, by_time, tuples)


def load_sequence_db(source) -> SequenceDatabase:
    """Parse sequence-CSV into a database with dense interned item ids.

    ``source`` is the text as a str, or an iterable of its lines such as an
    open file; both give the same database and the same error line numbers.
    Each run of lines is appended to the database's columns as it ends, so
    no per-sequence object is built. A seq_id that reappears after its run
    ended is merged into its earlier transactions and keeps the place of
    its first appearance.
    """
    alphabet = Alphabet()
    columns = Columns.from_runs(_runs(source, alphabet, contiguous=False))
    if len(set(columns.seq_ids)) != len(columns.seq_ids):
        columns = Columns.from_runs(_merged(columns))
    return SequenceDatabase.from_columns(columns, alphabet)


def iter_sequence_db(source, alphabet: Alphabet) -> Iterator[Run]:
    """Incremental sequence-CSV reader for stream replay: yields the
    reader's ``(seq_id, times, itemsets)`` runs as they come.

    Transactions of one sequence must be contiguous; a sequence is emitted
    when its seq_id run ends. A seq_id reappearing later is an error. To
    detect that, the reader keeps the seq_id of every finished sequence, so
    its memory grows by one id per sequence read; of the transactions, only
    the current sequence's are held, as its items per time, besides the
    reader's three tables of at most ``_TABLE_SIZE`` entries each.
    """
    return _runs(source, alphabet, contiguous=True)


def serialize_sequence_db(db: SequenceDatabase) -> str:
    """Canonical sequence-CSV text: transactions in time order, tokens sorted.

    Loading the output reproduces the database token-for-token, and
    serializing the reloaded database reproduces the same bytes.
    """
    lines = []
    for seq in db.sequences:
        for time, items in zip(seq.times, seq.itemsets):
            tokens = " ".join(sorted(db.alphabet.token(i) for i in items))
            lines.append(f"{seq.seq_id},{time},{tokens}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_transactions(source) -> tuple[Baskets, Alphabet]:
    """Parse transactions-CSV into (:class:`Baskets`, alphabet): basket j,
    in file order, is bit j of each of its items' ints.

    Each txn_id names one basket: an empty or repeated txn_id is an error,
    as a repeat would otherwise count one basket as two. The baskets go
    into :func:`seqmine.model.item_ints` as they are parsed, so no object
    is kept per basket; only the set of txn_ids grows until the end.
    """
    alphabet = Alphabet()
    seen: set[str] = set()

    def baskets() -> Iterator[frozenset[int]]:
        for line_no, (txn_id, items_text) in _rows(source, "txn_id,items"):
            if not txn_id:
                raise ParseError(line_no, "empty txn_id")
            if txn_id in seen:
                raise DuplicateKeyError(line_no, f"duplicate txn_id {txn_id!r}")
            seen.add(txn_id)
            yield _items(line_no, items_text, alphabet)

    items = item_ints(baskets())
    return Baskets(len(seen), items), alphabet
