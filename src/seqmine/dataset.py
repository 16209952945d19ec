"""File formats, the bundled university-results data, and trend analysis.

Three text formats, all UTF-8 with ``#`` comment lines. A line ends at
``\n``, ``\r\n`` or ``\r``; other Unicode line breaks, such as U+0085 or
U+2028, do not end a line. Every non-blank line that is not a comment is
split on ``,`` into a fixed number of fields, each stripped of surrounding
whitespace; a line with another field count is a :class:`ParseError`
``expected '<fields>', got '<line>'``.

* sequence-CSV: one transaction per line, ``seq_id,time,items`` with
  space-separated item tokens and a base-10 integer time. Lines may arrive
  unsorted; equal-time transactions of one sequence are merged.
* transactions-CSV: ``txn_id,items``, each txn_id non-empty and unique.
* results-CSV: header ``year,subject_code,pass_pct``, compared field by
  field; pass percentages are exact decimals with at most 2 fractional
  digits.

Pass percentages are kept as :class:`decimal.Decimal` throughout so the
bundled tables reproduce bit-exactly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from importlib import resources
from typing import Iterator, Optional, Sequence

from seqmine.errors import (
    DuplicateKeyError,
    InsufficientHistoryError,
    NonIntegerTimeError,
    OutOfRangeError,
    ParseError,
)
from seqmine.model import Alphabet, DataSequence, SequenceDatabase

BUNDLED_RESULTS = "university_results.csv"


def _rows(source, fields: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, stripped fields) for each line that is not blank or a
    comment, numbering lines from 1. ``source`` is an iterable of lines, such
    as an open text file, or a str, which is split as a text-mode file splits
    it: a line ends at ``\n``, ``\r\n`` or ``\r`` and nowhere else. ``fields``
    names the columns, as in ``'txn_id,items'``; a line with another field
    count is a ParseError."""
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    width = fields.count(",") + 1
    for line_no, raw in enumerate(source, start=1):
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
        time = int(time_text)
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
    current_id: Optional[str] = None
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


@dataclass(frozen=True)
class ResultRecord:
    year: int
    subject_code: str
    pass_pct: Decimal


RESULTS_HEADER = "year,subject_code,pass_pct"


def load_results(source) -> list[ResultRecord]:
    """Parse results-CSV; exact decimals, unique (year, subject) keys."""
    rows = _rows(source, RESULTS_HEADER)
    header = next(rows, None)
    if header is None:
        raise ParseError(0, "results file is empty")
    line_no, fields = header
    if fields != RESULTS_HEADER.split(","):
        raise ParseError(line_no, f"expected header {RESULTS_HEADER!r}, got {','.join(fields)!r}")
    records = []
    seen: set[tuple[int, str]] = set()
    for line_no, (year_text, subject, pct_text) in rows:
        try:
            year = int(year_text)
        except ValueError:
            raise ParseError(line_no, f"year must be an integer, got {year_text!r}")
        if not subject:
            raise ParseError(line_no, "empty subject_code")
        try:
            pct = Decimal(pct_text)
        except InvalidOperation:
            raise ParseError(line_no, f"pass_pct must be a decimal, got {pct_text!r}")
        if not pct.is_finite() or -pct.as_tuple().exponent > 2:
            raise OutOfRangeError(line_no, f"pass_pct must have at most 2 fractional digits: {pct_text}")
        if not Decimal(0) <= pct <= Decimal(100):
            raise OutOfRangeError(line_no, f"pass_pct out of [0, 100]: {pct_text}")
        key = (year, subject)
        if key in seen:
            raise DuplicateKeyError(line_no, f"duplicate (year, subject) pair {key}")
        seen.add(key)
        records.append(ResultRecord(year, subject, pct))
    return records


def bundled_results_text() -> str:
    return (
        resources.files("seqmine").joinpath("data").joinpath(BUNDLED_RESULTS).read_text(encoding="utf-8")
    )


def bundled_results() -> list[ResultRecord]:
    """The packaged university pass-percentage dataset."""
    return load_results(bundled_results_text())


@dataclass(frozen=True)
class BandScheme:
    """Half-open bins over [0, 100]; the final bound is inclusive.

    ``bins`` is an ascending tuple of (upper_bound, label): a value v maps
    to the first bin with v < upper_bound, except that the last bin also
    takes v == 100. Construction (and ``dataclasses.replace``) raises
    :class:`ValueError` unless there is at least one bin, no bound is NaN,
    the bounds strictly increase and the final bound is 100.
    """

    bins: tuple[tuple[Decimal, str], ...]

    def __post_init__(self):
        if not self.bins:
            raise ValueError("band scheme needs at least one bin")
        bounds = [b for b, _ in self.bins]
        if any(b.is_nan() for b in bounds):
            raise ValueError(f"band bounds must be numbers: {bounds}")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"band bounds must be strictly increasing: {bounds}")
        if bounds[-1] != Decimal(100):
            raise ValueError(f"final band bound must be 100, got {bounds[-1]}")

    def label(self, value: Decimal) -> str:
        for bound, label in self.bins[:-1]:
            if value < bound:
                return label
        return self.bins[-1][1]


def parse_band_spec(spec: str) -> BandScheme:
    """Parse a CLI band spec like ``50:F,70:C,85:B,100:A``."""
    bins = []
    for part in spec.split(","):
        bound_text, _, label = part.partition(":")
        if not label:
            raise ValueError(f"band {part!r} must look like '<bound>:<label>'")
        try:
            bound = Decimal(bound_text.strip())
        except InvalidOperation:
            raise ValueError(f"band bound must be a decimal, got {bound_text!r}")
        bins.append((bound, label.strip()))
    return BandScheme(tuple(bins))


DEFAULT_BANDS = parse_band_spec("50:F,70:C,85:B,100:A")


def _by_subject(records: Sequence[ResultRecord]) -> dict[str, list[ResultRecord]]:
    """Records grouped by subject, subjects sorted and each group in year order."""
    groups: dict[str, list[ResultRecord]] = {}
    for record in records:
        groups.setdefault(record.subject_code, []).append(record)
    return {subject: sorted(groups[subject], key=lambda r: r.year) for subject in sorted(groups)}


def discretize(records: Sequence[ResultRecord], scheme: BandScheme = DEFAULT_BANDS) -> SequenceDatabase:
    """One data-sequence per subject; each year becomes one transaction whose
    single item is ``subject:band``, enabling cross-year sequential mining."""
    alphabet = Alphabet()
    sequences = []
    for subject, rows in _by_subject(records).items():
        times = tuple(r.year for r in rows)
        itemsets = tuple((alphabet.intern(f"{subject}:{scheme.label(r.pass_pct)}"),) for r in rows)
        sequences.append(DataSequence(subject, times, itemsets))
    return SequenceDatabase(tuple(sequences), alphabet)


@dataclass(frozen=True)
class TrendRow:
    year: int
    pass_pct: Decimal
    delta: Optional[Decimal]
    direction: Optional[str]


@dataclass(frozen=True)
class TrendSummary:
    per_subject: dict[str, list[TrendRow]]
    anomalies: list[tuple[str, int, Decimal]]


def trend(records: Sequence[ResultRecord], anomaly_threshold: Decimal = Decimal("20.0")) -> TrendSummary:
    """Year-over-year deltas, directions, and |delta| > threshold anomalies."""
    per_subject: dict[str, list[TrendRow]] = {}
    anomalies: list[tuple[str, int, Decimal]] = []
    for subject, rows in _by_subject(records).items():
        if len(rows) < 2:
            raise InsufficientHistoryError(subject)
        out = [TrendRow(rows[0].year, rows[0].pass_pct, None, None)]
        for prev, cur in zip(rows, rows[1:]):
            delta = cur.pass_pct - prev.pass_pct
            direction = "flat" if delta == 0 else ("up" if delta > 0 else "down")
            out.append(TrendRow(cur.year, cur.pass_pct, delta, direction))
            if abs(delta) > anomaly_threshold:
                anomalies.append((subject, cur.year, delta))
        per_subject[subject] = out
    return TrendSummary(per_subject, anomalies)
