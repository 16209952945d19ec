"""Results-CSV, the bundled university-results data, and trend analysis.

results-CSV has the header ``year,subject_code,pass_pct``, compared field
by field, then one row per (year, subject) pair; its lines are split as
:mod:`seqmine.dataset` splits every format. Years are ASCII integers; pass
percentages are exact ASCII decimals with at most 2 fractional digits, in
[0, 100].

Pass percentages are kept as :class:`decimal.Decimal` throughout so the
bundled tables reproduce bit-exactly.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from decimal import Decimal, InvalidOperation

from seqmine.dataset import _ascii_number, _rows
from seqmine.errors import DuplicateKeyError, InsufficientHistoryError, OutOfRangeError, ParseError
from seqmine.model import Alphabet, DataSequence, SequenceDatabase, _Checked

BUNDLED_RESULTS = "university_results.csv"
RESULTS_HEADER = "year,subject_code,pass_pct"

ResultRecord = namedtuple("ResultRecord", "year subject_code pass_pct")


def load_results(source) -> list[ResultRecord]:
    """Parse results-CSV; exact decimals, unique (year, subject) keys."""
    rows = _rows(source, RESULTS_HEADER)
    header = next(rows, None)
    if header is None:
        raise ParseError(None, "results file is empty")
    line_no, fields = header
    if fields != RESULTS_HEADER.split(","):
        raise ParseError(line_no, f"expected header {RESULTS_HEADER!r}, got {','.join(fields)!r}")
    records = []
    seen: set[tuple[int, str]] = set()
    for line_no, (year_text, subject, pct_text) in rows:
        try:
            year = _ascii_number(int, year_text)
        except ValueError:
            raise ParseError(line_no, f"year must be an integer, got {year_text!r}")
        if not subject:
            raise ParseError(line_no, "empty subject_code")
        try:
            pct = _ascii_number(Decimal, pct_text)
        except (ValueError, InvalidOperation):
            raise ParseError(line_no, f"pass_pct must be a decimal, got {pct_text!r}")
        if not pct.is_finite() or -pct.as_tuple().exponent > 2:
            raise OutOfRangeError(line_no, f"pass_pct must have at most 2 fractional digits: {pct_text}")
        if not Decimal(0) <= pct <= Decimal(100):
            raise OutOfRangeError(line_no, f"pass_pct out of [0, 100]: {pct_text}")
        key = (year, subject)
        if key in seen:
            raise DuplicateKeyError(line_no, f"duplicate (year, subject) pair {key}")
        seen.add(key)
        # pct is in [0, 100], so this changes only a -0, which would print as -0.00
        records.append(ResultRecord(year, subject, pct.copy_abs()))
    return records


def bundled_results_text() -> str:
    from importlib import resources

    return (
        resources.files("seqmine").joinpath("data").joinpath(BUNDLED_RESULTS).read_text(encoding="utf-8")
    )


def bundled_results() -> list[ResultRecord]:
    """The packaged university pass-percentage dataset."""
    return load_results(bundled_results_text())


class BandScheme(_Checked, namedtuple("BandScheme", "bins")):
    """Half-open bins over [0, 100]; the final bound is inclusive.

    ``bins`` is an ascending tuple of (upper_bound, label): a value v maps
    to the first bin with v < upper_bound, except that the last bin also
    takes v == 100. Construction (and ``_replace``) raises
    :class:`ValueError` unless there is at least one bin, no bound is NaN,
    the bounds strictly increase and the final bound is 100.
    """

    __slots__ = ()

    def _check(self):
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


TrendRow = namedtuple("TrendRow", "year pass_pct delta direction")
TrendSummary = namedtuple("TrendSummary", "per_subject anomalies")


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
