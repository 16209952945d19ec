"""File formats, the bundled results data, discretization, trends."""

import hashlib
import math
import random
import re
import tracemalloc
from decimal import Decimal

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from conftest import run_cli
from strategies import CONSTRAINT_GRID, messy_transaction_dbs, sequence_dbs
from synthetic import generate_db

from seqmine import dataset
from seqmine.dataset import (
    _lines,
    _rows,
    iter_sequence_db,
    load_sequence_db,
    load_transactions,
    read_lines,
    serialize_sequence_db,
)
from seqmine.errors import (
    DuplicateKeyError,
    InsufficientHistoryError,
    NonIntegerTimeError,
    OutOfRangeError,
    ParseError,
)
from seqmine.itemsets import mine_frequent_itemsets
from seqmine.model import Alphabet, Baskets, Columns, Constraints, DataSequence, bit_layout
from seqmine.results import (
    DEFAULT_BANDS,
    bundled_results,
    bundled_results_text,
    discretize,
    load_results,
    parse_band_spec,
    trend,
)
from seqmine.sequences import gsp_mine, prefixspan_mine

BUNDLED_SHA256 = "acfc1a223a8432f60619ef30f684be014e00abbc9d9486af4b68e5bb39574062"


def db_signature(db):
    return [
        (s.seq_id, [(t, tuple(sorted(db.alphabet.token(i) for i in items)))
                    for t, items in zip(s.times, s.itemsets)])
        for s in db.sequences
    ]


class TestLoadSequenceDb:
    def test_basic_parse(self):
        db = load_sequence_db("s1,1,a\ns1,2,a b\ns1,3,c")
        assert db_signature(db) == [("s1", [(1, ("a",)), (2, ("a", "b")), (3, ("c",))])]

    def test_equal_time_transactions_merge(self):
        db = load_sequence_db("s1,2,a\ns1,2,b")
        assert db_signature(db) == [("s1", [(2, ("a", "b"))])]

    def test_non_integer_time(self):
        with pytest.raises(NonIntegerTimeError):
            load_sequence_db("s1,x,a")
        with pytest.raises(NonIntegerTimeError):
            load_sequence_db("s1,1.5,a")

    @pytest.mark.parametrize("time_text", ["1_0", "\u0663", "\uff11"])
    def test_time_takes_ascii_digits_only(self, time_text):
        # int() reads these as 10, 3 and 1
        message = f"line 2: time must be a base-10 integer, got {time_text!r}"
        with pytest.raises(NonIntegerTimeError, match=message):
            load_sequence_db(f"s1,1,a\ns1,{time_text},b")

    def test_escaped_byte_names_its_line(self):
        # a file read with errors="surrogateescape" holds byte 0xff as U+DCFF
        with pytest.raises(ParseError, match="line 3: byte 0xff is not UTF-8"):
            load_sequence_db("s1,1,a\n\ns1,2,\udcff")
        with pytest.raises(ParseError, match="line 1: byte 0xe9 is not UTF-8"):
            load_sequence_db("# caf\udce9\ns1,1,a")

    def test_unsorted_lines_are_ordered_by_time(self):
        db = load_sequence_db("s1,5,b\ns1,1,a")
        assert db_signature(db) == [("s1", [(1, ("a",)), (5, ("b",))])]

    def test_comments_and_blanks_skipped(self):
        db = load_sequence_db("# heading\n\ns1,1,a\n")
        assert len(db.sequences) == 1

    def test_missing_items_rejected(self):
        with pytest.raises(ParseError):
            load_sequence_db("s1,1,")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ParseError):
            load_sequence_db("s1,1")

    def test_str_splits_lines_as_a_file_does(self, tmp_path):
        # U+0085, U+2028 and a form feed end a line for str.splitlines() but
        # not for a text-mode file; \r\n and a lone \r end one for both
        text = "s1,1,a\x85b\r\ns1,2,c\u2028d\rs2,1,a\x0cc\n"
        path = tmp_path / "odd.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            assert load_sequence_db(text) == load_sequence_db(handle)
        assert load_sequence_db(text) == load_sequence_db(read_lines(str(path)))
        assert db_signature(load_sequence_db(text)) == [
            ("s1", [(1, ("a", "b")), (2, ("c", "d"))]),
            ("s2", [(1, ("a", "c"))]),
        ]
        path.write_bytes(f"{text}s2,2\n".encode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            for source in (f"{text}s2,2\n", handle, read_lines(str(path))):
                with pytest.raises(ParseError, match="^line 4: expected"):
                    load_sequence_db(source)

    def test_miners_read_only_the_columns(self):
        db = load_sequence_db("s1,1,a\ns1,2,a b\ns2,1,b\ns2,3,a\n")
        for mine in (gsp_mine, prefixspan_mine):
            mine(db, Constraints(min_support=0.5))
        assert db._sequences is None
        assert [s.seq_id for s in db.sequences] == ["s1", "s2"]

    def test_peak_memory_is_near_what_the_database_keeps(self):
        # the loader holds one run of lines, not a dict per sequence and
        # then the sequences and the columns besides
        lines = serialize_sequence_db(generate_db(4000, seed=3)).splitlines()
        tracemalloc.start()
        try:
            db = load_sequence_db(lines)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(db) == 4000
        assert peak <= 2.5 * kept

    @given(sequence_dbs())
    def test_serialize_load_round_trip(self, db):
        text = serialize_sequence_db(db)
        again = load_sequence_db(text)
        assert db_signature(again) == db_signature(db)
        assert serialize_sequence_db(again) == text


# lines of a two-field file, one with a character of two bytes, and every
# line break; a cut between reads can split the character or the \r\n
LINES = [b"k,v", " k\u00e9 , v ".encode(), "# \u00e9".encode(), b""]
BREAKS = [b"\n", b"\r", b"\r\n"]


@st.composite
def cut_reads(draw):
    """Lines of LINES ended by BREAKS, maybe after a BOM, maybe with one byte
    that is not UTF-8 among them, and the same bytes cut into reads at
    random points."""
    data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    for _ in range(draw(st.integers(0, 12))):
        data += draw(st.sampled_from(LINES)) + draw(st.sampled_from(BREAKS))
    data += draw(st.sampled_from(LINES))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.sampled_from([b"\xff", b"\xc3"])) + data[i:]
    cuts = sorted(draw(st.sets(st.integers(0, len(data)))))
    return data, [data[i:j] for i, j in zip([0, *cuts], [*cuts, len(data)]) if i < j]


class _Reads:
    """A binary file whose reads return the given pieces, then nothing."""

    def __init__(self, pieces):
        self._pieces = iter(pieces)

    def read(self, size):
        return next(self._pieces, b"")


def rows_or_error(source):
    try:
        return list(_rows(source, "k,v"))
    except ParseError as exc:
        return str(exc)


@given(cut_reads())
def test_where_a_read_stops_does_not_change_the_rows(case):
    data, reads = case
    whole = rows_or_error(data.decode("utf-8-sig", "surrogateescape"))
    assert rows_or_error(_lines(_Reads([data]), None)) == whole
    assert rows_or_error(_lines(_Reads(reads), None)) == whole


# list() over read_lines, printing the ValueError it raises if it raises one
_READ_ALL = """import sys
from seqmine.dataset import read_lines
try:
    print(list(read_lines(sys.argv[1], float(sys.argv[2]))))
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
def test_read_lines_refuses_a_bad_idle_timeout(tmp_path, value):
    # monotonic() - idle_since >= nan is never true, so a NaN once watched for
    # ever; in a child with a timeout, such a hang fails instead of stalling
    path = tmp_path / "one.csv"
    path.write_text("s1,1,a\n")
    proc = run_cli(str(path), value, python_args=("-c", _READ_ALL), timeout=10)
    assert proc.stdout == f"idle_timeout must be >= 0, got {float(value)}\n"


def test_read_lines_takes_zero_and_infinite_idle_timeouts(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("s1,1,a\n")
    assert list(read_lines(str(path), 0.0)) == ["s1,1,a"]
    # inf watches for ever, yet hands out each line as soon as it is read
    assert next(read_lines(str(path), math.inf)) == "s1,1,a"


class TestIterSequenceDb:
    def test_streaming_groups_runs(self):
        alphabet = Alphabet()
        seqs = list(iter_sequence_db("s1,1,a\ns1,2,b\ns2,1,c", alphabet))
        assert [seq_id for seq_id, _, _ in seqs] == ["s1", "s2"]
        assert seqs[0][1] == (1, 2)

    def test_reappearing_seq_id_rejected(self):
        alphabet = Alphabet()
        with pytest.raises(ParseError):
            list(iter_sequence_db("s1,1,a\ns2,1,b\ns1,2,c", alphabet))


# A sequence-CSV reader written out here, apart from seqmine.dataset, as the
# loader used to work: every row into a dict of sequences, each a dict of
# times to item sets.

# one line of each error kind: field count, seq_id, time, items
BAD_LINES = ["s1,2", " ,2,a", "s1,1.5,a", "s1,2, "]


def reference_error(line):
    """What is wrong with a line that is not blank or a comment, or None."""
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != 3:
        return f"expected 'seq_id,time,items', got {line!r}"
    seq_id, time_text, items_text = fields
    if not seq_id:
        return "empty seq_id"
    if not re.fullmatch(r"[+-]?[0-9]+", time_text):
        return f"time must be a base-10 integer, got {time_text!r}"
    if not items_text.split():
        return "transaction has no items"
    return None


def reference_rows(text):
    """The rows of ``text`` before its first bad line, each as (line_no,
    seq_id, time, item ids), the tokens in intern order, and the first bad
    line's (line_no, message), or None."""
    tokens: dict[str, int] = {}
    rows = []
    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        error = reference_error(line)
        if error is not None:
            return rows, list(tokens), (line_no, error)
        seq_id, time_text, items_text = [f.strip() for f in line.split(",")]
        ids = {tokens.setdefault(token, len(tokens)) for token in items_text.split()}
        rows.append((line_no, seq_id, int(time_text), ids))
    return rows, list(tokens), None


def reference_sequence(seq_id, by_time):
    times = sorted(by_time)
    return seq_id, tuple(times), tuple(tuple(sorted(by_time[t])) for t in times)


def reference_load(rows):
    """(seq_id, times, itemsets) per sequence, in order of first appearance."""
    by_seq: dict[str, dict[int, set[int]]] = {}
    for _, seq_id, time, ids in rows:
        by_seq.setdefault(seq_id, {}).setdefault(time, set()).update(ids)
    return [reference_sequence(seq_id, by_time) for seq_id, by_time in by_seq.items()]


def reference_iter(rows, error):
    """The sequences a contiguous reader yields before it stops, and its
    error: a reappearing seq_id, or else the first bad line."""
    out, done, current, by_time = [], set(), None, {}
    for line_no, seq_id, time, ids in rows:
        if seq_id != current:
            if current is not None:
                out.append(reference_sequence(current, by_time))
                done.add(current)
            if seq_id in done:
                return out, (line_no, f"seq_id {seq_id!r} reappears after its run ended")
            current, by_time = seq_id, {}
        by_time.setdefault(time, set()).update(ids)
    if current is not None and error is None:
        out.append(reference_sequence(current, by_time))
    return out, error


def reference_columns(sequences):
    """The columns of data-sequences, flattened here: each sequence's
    transactions, then a sentinel."""
    seq_ids, firsts, times, itemsets = [], [], [], []
    for seq in sequences:
        seq_ids.append(seq.seq_id)
        firsts.append(len(itemsets))
        times.extend(seq.times + (0,))
        itemsets.extend(seq.itemsets + ((),))
    return Columns(tuple(seq_ids), tuple(firsts), tuple(times), tuple(itemsets))


@st.composite
def sequence_csv(draw, bad=True):
    """Sequence-CSV text: runs of rows with repeated and unsorted times, the
    rows maybe shuffled (so seq_ids reappear), padded fields, comments,
    blank lines, one line break throughout, and with ``bad`` up to two bad
    lines."""
    rows = []
    for s in range(draw(st.integers(0, 5))):
        for _ in range(draw(st.integers(1, 4))):
            time = draw(st.integers(-2, 5))
            tokens = st.sampled_from(["a", "b", "c", "dd", "e"])
            items = draw(st.lists(tokens, min_size=1, max_size=3))
            pad = draw(st.sampled_from(["", " "]))
            rows.append(f"{pad}s{s}{pad},{time},{pad}{' '.join(items)}")
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["", "# s9,1,z", "  "]))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    if bad:
        for _ in range(draw(st.integers(0, 2))):
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(BAD_LINES)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(rows)


def loaded_or_error(load, text):
    try:
        return load(text), None
    except ParseError as exc:
        return None, (exc.line_no, exc.reason)


class TestLoaderAgainstReference:
    @settings(max_examples=200)
    @given(sequence_csv())
    def test_load_matches_the_reference(self, text):
        rows, tokens, error = reference_rows(text)
        db, got_error = loaded_or_error(load_sequence_db, text)
        assert got_error == error
        if error is None:
            assert [(s.seq_id, s.times, s.itemsets) for s in db.sequences] == reference_load(rows)
            assert list(db.alphabet.tokens()) == tokens
            assert len(db) == len(db.sequences)

    @settings(max_examples=200)
    @given(sequence_csv())
    def test_iter_matches_the_reference(self, text):
        rows, _, error = reference_rows(text)
        want, want_error = reference_iter(rows, error)
        got, got_error = [], None
        try:
            for seq_id, times, itemsets in iter_sequence_db(text, Alphabet()):
                got.append((seq_id, times, itemsets))
        except ParseError as exc:
            got_error = (exc.line_no, exc.reason)
        assert got == want
        assert got_error == want_error

    @settings(max_examples=30)
    @given(sequence_csv(bad=False))
    def test_layout_matches_a_layout_of_the_reference(self, text):
        rows, _, _ = reference_rows(text)
        columns = load_sequence_db(text).columns
        want = reference_columns([DataSequence(*seq) for seq in reference_load(rows)])
        assert columns == want
        for constraints in CONSTRAINT_GRID:
            assert bit_layout(columns, constraints) == bit_layout(want, constraints)

    @given(sequence_csv(bad=False))
    def test_iter_equals_load_on_contiguous_input(self, text):
        rows, _, _ = reference_rows(text)
        assume(reference_iter(rows, None)[1] is None)
        assert tuple(iter_sequence_db(text, Alphabet())) == load_sequence_db(text).sequences


class TestParseTables:
    """The reader parses each distinct items field and time field once per
    call, and shares one tuple among equal itemsets; each table is emptied
    at ``dataset._TABLE_SIZE`` entries."""

    def test_equal_itemsets_are_one_object(self):
        # {a b} is written twice and merged once from two lines
        text = "s1,1,a b\ns1,2,b a\ns2,1,b\ns2,5,a\ns2,5,b\ns3,4,b\n"
        loaded = [itemset for itemset in load_sequence_db(text).columns.itemsets if itemset]
        streamed = [i for _, _, itemsets in iter_sequence_db(text, Alphabet()) for i in itemsets]
        for itemsets in (loaded, streamed):
            assert (itemsets.count((0, 1)), itemsets.count((1,))) == (3, 2)
            first: dict[tuple[int, ...], tuple[int, ...]] = {}
            assert all(first.setdefault(itemset, itemset) is itemset for itemset in itemsets)

    @pytest.mark.parametrize(
        "text, kind, message",
        [
            ("s1,1,a b\ns1,x,a b", NonIntegerTimeError, "line 2: time must be a base-10"),
            ("s1,1,a\ns2,1, ", ParseError, "line 2: transaction has no items"),
            ("s1,1,a\n,1,a", ParseError, "line 2: empty seq_id"),
        ],
        ids=["known-items-bad-time", "known-time-no-items", "known-fields-no-seq-id"],
    )
    def test_bad_line_beside_known_fields_names_its_line(self, text, kind, message):
        for read in (load_sequence_db, lambda t: list(iter_sequence_db(t, Alphabet()))):
            with pytest.raises(kind, match=f"^{message}"):
                read(text)

    def test_more_distinct_fields_than_a_table_holds(self):
        # every time and items text recurs only after the tables were
        # emptied, so each is parsed again and must give the same ids
        period = dataset._TABLE_SIZE + 5
        lines = [
            f"s{i // 4},{i % (period + 2)},t{i % period} u{i % period % 5}"
            for i in range(3 * period)
        ]
        text = "\n".join(lines)
        rows, tokens, error = reference_rows(text)
        assert error is None
        db = load_sequence_db(text)
        want = reference_load(rows)
        assert db.columns == reference_columns([DataSequence(*seq) for seq in want])
        assert list(db.alphabet.tokens()) == tokens
        assert [tuple(seq) for seq in iter_sequence_db(text, Alphabet())] == want

    def test_iter_peak_memory_does_not_grow_with_distinct_times(self):
        # against the same seq_ids with two repeated times, what distinct
        # times add is one full time table, whatever the input's length
        def extra(n):
            distinct = [f"s{i // 2},{i},a b" for i in range(n)]
            repeated = [f"s{i // 2},{i % 2},a b" for i in range(n)]
            peaks = []
            for lines in (distinct, repeated):
                tracemalloc.start()
                try:
                    for _ in iter_sequence_db(lines, Alphabet()):
                        pass
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return peaks[0] - peaks[1]

        size = dataset._TABLE_SIZE
        assert extra(6 * size) - extra(2 * size) < 16 * size


class TestLoadTransactions:
    def test_basic(self):
        baskets, alphabet = load_transactions("t1,a b c\nt2,b a")
        assert baskets == Baskets(2, {0: 0b11, 1: 0b11, 2: 0b01})
        assert alphabet.tokens() == ("a", "b", "c")

    def test_keeps_no_object_per_basket(self):
        # 60 items' ints over 10,000 baskets are 7.5 B per basket; a tuple
        # per basket alone would take several times the bound
        rng = random.Random(5)
        lines = [
            f"t{j}," + " ".join(f"i{x}" for x in rng.sample(range(60), rng.randint(1, 8)))
            for j in range(10_000)
        ]
        tracemalloc.start()
        try:
            baskets, alphabet = load_transactions(lines)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert baskets.size == 10_000 and len(alphabet) == 60
        assert kept / baskets.size < 16

    @settings(max_examples=200)
    @given(messy_transaction_dbs(max_items=8, max_txns=30), st.sampled_from([0.01, 0.2, 0.5, 1.0]))
    @example([(0, 0)], 1.0)
    def test_mines_as_the_parsed_itemsets(self, baskets, min_support):
        text = "\n".join(
            f"t{j}," + " ".join(f"i{x}" for x in basket) for j, basket in enumerate(baskets)
        )
        loaded, alphabet = load_transactions(text)
        ids = {token: i for i, token in enumerate(alphabet.tokens())}
        parsed = [tuple(ids[f"i{x}"] for x in basket) for basket in baskets]
        assert loaded.size == len(parsed)
        assert mine_frequent_itemsets(loaded, min_support) == mine_frequent_itemsets(
            parsed, min_support
        )

    def test_empty_items_rejected(self):
        with pytest.raises(ParseError):
            load_transactions("t1,")

    def test_repeated_txn_id_rejected(self):
        with pytest.raises(DuplicateKeyError, match="line 3: duplicate txn_id 't1'"):
            load_transactions("t1,a b\nt2,a\nt1,c")


class TestLoadResults:
    def test_bundled_values_from_each_table(self):
        by_key = {(r.year, r.subject_code): r.pass_pct for r in bundled_results()}
        assert by_key[(2003, "BE-101")] == Decimal("62.5")
        assert by_key[(2007, "BE-105")] == Decimal("29.69")
        assert by_key[(2005, "BE-103")] == Decimal("91.57")
        assert by_key[(2004, "BE-102")] == Decimal("68.69")

    def test_bundled_has_25_rows_and_pinned_hash(self):
        assert len(bundled_results()) == 25
        digest = hashlib.sha256(bundled_results_text().encode()).hexdigest()
        assert digest == BUNDLED_SHA256

    def test_duplicate_key_rejected(self):
        text = "year,subject_code,pass_pct\n2003,X,50\n2003,X,60"
        with pytest.raises(DuplicateKeyError):
            load_results(text)

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            load_results("year,subject_code,pass_pct\n2003,X,101")
        with pytest.raises(OutOfRangeError):
            load_results("year,subject_code,pass_pct\n2003,X,-1")

    def test_negative_zero_reads_as_zero(self):
        records = load_results("year,subject_code,pass_pct\n2003,X,-0\n2004,X,-0.00")
        assert [str(r.pass_pct) for r in records] == ["0", "0.00"]

    def test_three_fractional_digits_rejected(self):
        with pytest.raises(OutOfRangeError):
            load_results("year,subject_code,pass_pct\n2003,X,50.123")

    @pytest.mark.parametrize("year_text", ["2_003", "\u0662\u0660\u0660\u0663"])
    def test_year_takes_ascii_digits_only(self, year_text):
        message = f"line 2: year must be an integer, got {year_text!r}"
        with pytest.raises(ParseError, match=message):
            load_results(f"year,subject_code,pass_pct\n{year_text},X,50")

    @pytest.mark.parametrize("pct_text", ["5_0", "\u0665\u0660.5"])
    def test_pass_pct_takes_ascii_digits_only(self, pct_text):
        message = f"line 2: pass_pct must be a decimal, got {pct_text!r}"
        with pytest.raises(ParseError, match=message):
            load_results(f"year,subject_code,pass_pct\n2003,X,{pct_text}")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            load_results("2003,X,50")

    def test_empty_file_rejected(self):
        # no line to name: the file has none that is not blank or a comment
        for text in ("", "# year,subject_code,pass_pct\n\n"):
            with pytest.raises(ParseError, match="^results file is empty$"):
                load_results(text)


class TestBands:
    def test_default_banding(self):
        assert DEFAULT_BANDS.label(Decimal("29.69")) == "F"
        assert DEFAULT_BANDS.label(Decimal("62.5")) == "C"
        assert DEFAULT_BANDS.label(Decimal("91.57")) == "A"

    def test_boundary_is_half_open(self):
        assert DEFAULT_BANDS.label(Decimal(70)) == "B"
        assert DEFAULT_BANDS.label(Decimal(50)) == "C"
        assert DEFAULT_BANDS.label(Decimal(100)) == "A"

    def test_parse_band_spec_round_trips_default(self):
        assert parse_band_spec("50:F,70:C,85:B,100:A") == DEFAULT_BANDS

    def test_unsorted_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_band_spec("70:C,50:F,85:B,100:A")

    def test_final_bound_must_be_100(self):
        with pytest.raises(ValueError):
            parse_band_spec("50:F,70:C,85:B")

    @pytest.mark.parametrize("bound", ["NaN", "sNaN"])
    def test_nan_bound_rejected(self, bound):
        # a NaN bound would make every later comparison raise InvalidOperation
        with pytest.raises(ValueError, match="^band bounds must be numbers"):
            parse_band_spec(f"{bound}:F,100:A")
        with pytest.raises(ValueError, match="^band bounds must be numbers"):
            DEFAULT_BANDS._replace(bins=((Decimal(bound), "A"),))

    def test_replace_checks_like_construction(self):
        with pytest.raises(ValueError, match="^band scheme needs at least one bin$"):
            DEFAULT_BANDS._replace(bins=())


class TestDiscretize:
    def test_be103_is_all_a(self):
        db = discretize(bundled_results())
        seq = next(s for s in db.sequences if s.seq_id == "BE-103")
        tokens = [db.alphabet.token(items[0]) for items in seq.itemsets]
        assert tokens == ["BE-103:A"] * 5
        assert seq.times == (2003, 2004, 2005, 2006, 2007)

    def test_be105_2007_is_f(self):
        db = discretize(bundled_results())
        seq = next(s for s in db.sequences if s.seq_id == "BE-105")
        trans = {t: db.alphabet.token(items[0]) for t, items in zip(seq.times, seq.itemsets)}
        assert trans[2007] == "BE-105:F"

    def test_one_transaction_per_subject_year(self):
        records = bundled_results()
        db = discretize(records)
        pairs = {(s.seq_id, t) for s in db.sequences for t in s.times}
        assert pairs == {(r.subject_code, r.year) for r in records}

    def test_alphabet_holds_exactly_the_bands_hit(self):
        db = discretize(bundled_results())
        assert set(db.alphabet.tokens()) == {
            "BE-101:C", "BE-101:B",
            "BE-102:C", "BE-102:B",
            "BE-103:A", "BE-104:A",
            "BE-105:B", "BE-105:A", "BE-105:C", "BE-105:F",
        }


class TestTrend:
    def test_be105_anomaly(self):
        summary = trend(bundled_results())
        assert ("BE-105", 2007, Decimal("-44.71")) in summary.anomalies
        row = next(r for r in summary.per_subject["BE-105"] if r.year == 2007)
        assert row.direction == "down"

    def test_be101_up_not_anomaly(self):
        summary = trend(bundled_results())
        row = next(r for r in summary.per_subject["BE-101"] if r.year == 2004)
        assert row.delta == Decimal("17.3")
        assert row.direction == "up"
        assert all(not (s == "BE-101" and y == 2004) for s, y, _ in summary.anomalies)

    def test_constant_series_is_flat(self):
        text = "year,subject_code,pass_pct\n2001,X,50\n2002,X,50\n2003,X,50"
        summary = trend(load_results(text))
        directions = [r.direction for r in summary.per_subject["X"][1:]]
        assert directions == ["flat", "flat"]
        assert summary.anomalies == []

    def test_single_year_rejected(self):
        text = "year,subject_code,pass_pct\n2001,X,50"
        with pytest.raises(InsufficientHistoryError):
            trend(load_results(text))

    def test_threshold_boundary_is_strict(self):
        text = "year,subject_code,pass_pct\n2001,X,50\n2002,X,70"
        summary = trend(load_results(text), anomaly_threshold=Decimal(20))
        assert summary.anomalies == []
