"""The sequence and transaction file formats.

Every text format seqmine reads, results-CSV (:mod:`seqmine.results`)
included, is UTF-8 with ``#`` comment lines and is split into rows by
:func:`_rows`. A line ends at ``\n``, ``\r\n`` or ``\r``; other Unicode line
breaks, such as U+0085 or U+2028, do not end a line. A line holding a byte
that is not UTF-8 is a :class:`ParseError` ``byte 0x.. is not UTF-8``. Every
non-blank line that is not a comment is split on ``,`` into a fixed number
of fields, each stripped of surrounding whitespace; a line with another
field count is a :class:`ParseError` ``expected '<fields>', got '<line>'``.
Numeric fields take ASCII digits only.

* sequence-CSV: one transaction per line, ``seq_id,time,items`` with
  space-separated item tokens and a base-10 integer time. Lines may arrive
  unsorted; equal-time transactions of one sequence are merged.
* transactions-CSV: ``txn_id,items``, each txn_id non-empty and unique.
"""

from __future__ import annotations

import io
from collections.abc import Iterator

from seqmine.errors import DuplicateKeyError, NonIntegerTimeError, ParseError
from seqmine.model import Alphabet, DataSequence, SequenceDatabase


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


def _rows(source, fields: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, stripped fields) for each line that is not blank or a
    comment, numbering lines from 1. ``source`` is an iterable of lines, such
    as an open text file, or a str, which is split as a text-mode file splits
    it: a line ends at ``\n``, ``\r\n`` or ``\r`` and nowhere else. ``fields``
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


def _items(line_no: int, text: str, alphabet: Alphabet) -> set[int]:
    """The ids of a space-separated item field, interned in token order."""
    tokens = text.split()
    if not tokens:
        raise ParseError(line_no, "transaction has no items")
    # Nearly every line holds only known tokens, and these are looked up in
    # C; a line with a new token interns all its tokens in order instead.
    try:
        return set(map(alphabet._id_by_token.__getitem__, tokens))
    except KeyError:
        return {alphabet.intern(t) for t in tokens}


_SEQUENCE_FIELDS = "seq_id,time,items"


def _sequence_row(line_no: int, fields: list[str], alphabet: Alphabet):
    """(seq_id, time, item ids) of one sequence-CSV row."""
    seq_id, time_text, items_text = fields
    if not seq_id:
        raise ParseError(line_no, "empty seq_id")
    try:
        time = _ascii_number(int, time_text)
    except ValueError:
        raise NonIntegerTimeError(line_no, f"time must be a base-10 integer, got {time_text!r}")
    return seq_id, time, _items(line_no, items_text, alphabet)


def _build_sequence(seq_id: str, by_time: dict[int, set[int]]) -> DataSequence:
    """A data-sequence from its items per time, transactions in time order."""
    times = tuple(sorted(by_time))
    return DataSequence(seq_id, times, tuple(tuple(sorted(by_time[time])) for time in times))


def load_sequence_db(source) -> SequenceDatabase:
    """Parse sequence-CSV into a database with dense interned item ids.

    ``source`` is the text as a str, or an iterable of its lines such as an
    open file; both give the same database and the same error line numbers.
    """
    alphabet = Alphabet()
    by_seq: dict[str, dict[int, set[int]]] = {}
    for line_no, fields in _rows(source, _SEQUENCE_FIELDS):
        seq_id, time, items = _sequence_row(line_no, fields, alphabet)
        by_seq.setdefault(seq_id, {}).setdefault(time, set()).update(items)
    sequences = tuple(_build_sequence(seq_id, by_time) for seq_id, by_time in by_seq.items())
    return SequenceDatabase(sequences, alphabet)


def iter_sequence_db(source, alphabet: Alphabet) -> Iterator[DataSequence]:
    """Incremental sequence-CSV reader for stream replay.

    Transactions of one sequence must be contiguous; a sequence is emitted
    when its seq_id run ends. A seq_id reappearing later is an error. To
    detect that, the reader keeps the seq_id of every finished sequence, so
    its memory grows by one id per sequence read; only the transactions of
    the current sequence are held.
    """
    current_id: str | None = None
    by_time: dict[int, set[int]] = {}
    done: set[str] = set()
    for line_no, fields in _rows(source, _SEQUENCE_FIELDS):
        seq_id, time, items = _sequence_row(line_no, fields, alphabet)
        if seq_id != current_id:
            if current_id is not None:
                yield _build_sequence(current_id, by_time)
                done.add(current_id)
            if seq_id in done:
                raise ParseError(line_no, f"seq_id {seq_id!r} reappears after its run ended")
            current_id = seq_id
            by_time = {}
        by_time.setdefault(time, set()).update(items)
    if current_id is not None:
        yield _build_sequence(current_id, by_time)


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


def load_transactions(source) -> tuple[list[tuple[int, ...]], Alphabet]:
    """Parse transactions-CSV into (itemset list, alphabet), in file order.

    Each txn_id names one transaction: an empty or repeated txn_id is an
    error, as a repeat would otherwise count one basket as two.
    """
    alphabet = Alphabet()
    transactions = []
    seen: set[str] = set()
    for line_no, (txn_id, items_text) in _rows(source, "txn_id,items"):
        if not txn_id:
            raise ParseError(line_no, "empty txn_id")
        if txn_id in seen:
            raise DuplicateKeyError(line_no, f"duplicate txn_id {txn_id!r}")
        seen.add(txn_id)
        transactions.append(tuple(sorted(_items(line_no, items_text, alphabet))))
    return transactions, alphabet
