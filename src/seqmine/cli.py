r"""Command-line front end.

Subcommands: mine-itemsets, mine-seq, mine-stream, analyze-results.
Exit codes: 0 ok, 2 unreadable, undecodable or unparsable input (or a
results file without two years for every subject, or with a subject code
that cannot name a file under ``--plot-dir``), 3 usage/flag error, 4
internal invariant failure (see ``_EXIT_CODES``). Every failure prints one
line starting with ``error:`` to stderr. Outputs are byte-deterministic for
fixed inputs and flags: stdout, like ``--out``, is written as UTF-8 whatever
the locale or ``PYTHONIOENCODING`` says. Every command reads its input file
line by line through :func:`seqmine.dataset.read_lines`, as UTF-8 with a
leading byte-order mark skipped; a line ends at ``\n``, ``\r\n`` or ``\r``
and nowhere else, and error line numbers count those breaks. A command
imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from collections.abc import Iterable
from decimal import Decimal, InvalidOperation

import seqmine
from seqmine import dataset, textfmt
from seqmine.errors import (
    EmptyDatabaseError,
    InsufficientHistoryError,
    InvalidConstraintsError,
    InvalidStreamConfigError,
    InvalidThresholdError,
    ParseError,
    SeqmineError,
)
from seqmine.model import Alphabet, Constraints, at_least, unit_fraction

# The miners the commands call, each imported on first use, so that a command
# loads only the miner it runs. A command calls them as attributes of this
# module (``_cli.gsp_mine``): perfbench's probes rebind them here.
_MINERS = frozenset({
    "gsp_mine", "prefixspan_mine", "filter_closed",
    "frequent_items", "mine_frequent_itemsets", "generate_rules",
})


def __getattr__(name):
    if name not in _MINERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(seqmine, name)
    return value


_cli = sys.modules[__name__]


class UsageError(Exception):
    """A flag combination the parser cannot catch; maps to exit 3."""


# An error exits with the code of the most specific of its classes listed here.
_EXIT_CODES: dict[type[Exception], int] = {
    OSError: 2, ParseError: 2, EmptyDatabaseError: 2,
    InsufficientHistoryError: 2,
    UsageError: 3, ValueError: 3, InvalidThresholdError: 3,
    InvalidConstraintsError: 3, InvalidStreamConfigError: 3,
    SeqmineError: 4,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, f"error: {message}\n")


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


# _write_out joins, encodes and writes this many lines at a time
_CHUNK_LINES = 2048


def _write_out(path: str | None, sections: Iterable[list[str]]) -> None:
    """Write the lines of each section in ``sections``, each line ended by
    a newline, to the file ``path``, or to stdout when it is None, and
    flush the destination after each section, so a reader gets a section
    as soon as it is written, not when a buffer fills or the run ends. A
    section is written ``_CHUNK_LINES`` lines at a time, so no copy of the
    whole output is made, as text or as bytes, and it is dropped before
    the next section is taken: a generator can build each section once
    the one before it is written. stdout takes UTF-8 bytes, as ``--out``
    does, whatever the locale; a stream with no byte layer (io.StringIO)
    takes the text. ``path`` is written all or nothing
    (:func:`_replace_file`)."""
    if path is not None:
        _replace_file(path, sections)
    elif hasattr(sys.stdout, "buffer"):
        _write_sections(
            lambda text: sys.stdout.buffer.write(text.encode()), sys.stdout.flush, sections
        )
    else:
        _write_sections(sys.stdout.write, sys.stdout.flush, sections)


def _replace_file(path: str, sections: Iterable[list[str]]) -> None:
    """Write ``sections`` to a new file beside ``path``, which gets the mode
    of a new file, and move it onto ``path`` once the last section is
    written. A run that fails or is interrupted therefore leaves ``path`` as
    it was, or absent, and removes the new file. ``path`` is resolved
    first, so a symlink stays one and the file it names is replaced. A
    ``path`` that exists but is no regular file (a device, a FIFO, a pipe
    named as /dev/stdout, a directory) is opened and written as it is, so
    it keeps its type, and a directory is refused before any section is
    built. An OSError names ``path``, as a direct write's would."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            _write_sections(handle.write, handle.flush, sections)
        return
    target = os.path.realpath(path)
    partial = f"{target}.{os.getpid()}.partial"
    try:
        with open(partial, "x", encoding="utf-8", newline="\n") as handle:
            _write_sections(handle.write, handle.flush, sections)
        os.replace(partial, target)
    except BaseException as exc:
        # absent if the open failed or the move was made
        with contextlib.suppress(OSError):
            os.remove(partial)
        if isinstance(exc, OSError) and exc.filename == partial:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _write_sections(write, flush, sections: Iterable[list[str]]) -> None:
    for lines in sections:
        for start in range(0, len(lines), _CHUNK_LINES):
            write("\n".join(lines[start : start + _CHUNK_LINES]) + "\n")
        flush()
        del lines  # dropped before the next section is built


def _build_config(config_class, **fields):
    """``config_class(**fields)``, its error re-raised with every field name
    spelled as the flag that sets it (``max_gap`` -> ``--max-gap``)."""
    try:
        return config_class(**fields)
    except (InvalidConstraintsError, InvalidStreamConfigError, InvalidThresholdError) as exc:
        names = re.compile(r"\b(" + "|".join(fields) + r")\b")
        raise type(exc)(names.sub(lambda m: "--" + m[1].replace("_", "-"), str(exc))) from None


def _load_baskets(args):
    baskets, alphabet = dataset.load_transactions(dataset.read_lines(args.input))
    if not baskets.size:
        raise ParseError(None, f"{args.input} has no data line")
    return baskets, alphabet


def _itemset_sections(
    baskets, alphabet: Alphabet, min_support: float, min_confidence: float | None
):
    """The output's sections in the order each becomes final: the lines of
    the frequent items, counted in one pass over the items; those of the
    larger itemsets, once mining ends; then those of the rules, which are
    built only then. Lines sort by (size, tokens), so the first two are
    the lines of every frequent itemset. The baskets are dropped once
    mined."""
    items = _cli.frequent_items(baskets, min_support)
    yield textfmt.frequent_itemset_lines(items, alphabet)
    frequent = _cli.mine_frequent_itemsets(baskets, min_support)
    del baskets
    # the mined list's one-item head is ``items``
    yield textfmt.frequent_itemset_lines(frequent[len(items) :], alphabet)
    if min_confidence is not None:
        yield textfmt.rule_lines(_cli.generate_rules(frequent, min_confidence), alphabet)


def _cmd_mine_itemsets(args) -> int:
    unit_fraction(args.min_support, "--min-support", UsageError)
    if args.min_confidence is not None:
        unit_fraction(args.min_confidence, "--min-confidence", UsageError)
    # a bad input raises here, before --out is opened; the sections hold
    # the only reference to the baskets
    sections = _itemset_sections(*_load_baskets(args), args.min_support, args.min_confidence)
    _write_out(args.out, sections)
    return 0


def _build_constraints(args) -> Constraints:
    return _build_config(
        Constraints,
        min_support=args.min_support,
        min_gap=args.min_gap,
        max_gap=args.max_gap,
        max_index_gap=args.max_index_gap,
        max_length=args.max_length,
    )


def _cmd_mine_seq(args) -> int:
    constraints = _build_constraints(args)
    db = dataset.load_sequence_db(dataset.read_lines(args.input))
    if not len(db):
        raise ParseError(None, f"{args.input} has no data line")
    if args.max_length is None and len(db.alphabet) > 26:
        raise UsageError(
            f"--max-length is required for alphabets larger than 26 items "
            f"(this input has {len(db.alphabet)})"
        )
    if args.algo == "gsp":
        result = _cli.gsp_mine(db, constraints)
    else:
        result = _cli.prefixspan_mine(db, constraints)
    if args.closed:
        result = _cli.filter_closed(result)
    _write_out(args.out, [textfmt.supported_pattern_lines(result.patterns, db.alphabet)])
    return 0


def _cmd_mine_stream(args) -> int:
    from seqmine.stream import StreamConfig, replay

    config = _build_config(
        StreamConfig,
        sigma=args.sigma,
        epsilon=args.epsilon,
        batch_size=args.batch_size,
        max_length=args.max_length,
    )
    at_least(args.report_every, 1, "--report-every", UsageError)
    at_least(args.idle_timeout, 0, "--idle-timeout", UsageError)
    alphabet = Alphabet()
    lines = dataset.read_lines(args.input, args.idle_timeout if args.watch else None)
    sequences = dataset.iter_sequence_db(lines, alphabet)
    # each output pattern's sort key and text, rendered once while it stays
    # in consecutive reports and dropped when it leaves the output
    rendered: dict = {}
    for report in replay(sequences, config, report_every=args.report_every):
        tag = "final" if report.final else "report"
        header = (
            f"# {tag} batches={report.batches} sequences={report.sequences} "
            f"tree_nodes={report.tree_nodes}"
        )
        shown = textfmt.supported_pattern_lines(report.patterns, alphabet, rendered)
        # one write and one flush per report: under unbuffered output each
        # print is a syscall
        _write_out(None, [[header, *shown]])
        rendered = {sp.pattern: rendered[sp.pattern] for sp in report.patterns}
    return 0


def _parse_anomaly_threshold(text: str) -> Decimal:
    """A decimal; ``Infinity`` flags no anomaly, NaN is refused."""
    try:
        threshold = Decimal(text)
    except InvalidOperation:
        threshold = None
    if threshold is None or threshold.is_nan():
        raise UsageError(f"--anomaly-threshold must be a decimal, got {text!r}")
    return threshold


def _cmd_analyze_results(args) -> int:
    from pathlib import Path

    from seqmine import charts, results

    try:
        bands = results.parse_band_spec(args.bands) if args.bands else results.DEFAULT_BANDS
    except ValueError as exc:
        raise UsageError(f"--bands: {exc}")
    threshold = _parse_anomaly_threshold(args.anomaly_threshold)
    if args.input is None:
        records = results.bundled_results()
    else:
        records = results.load_results(dataset.read_lines(args.input))
    if args.plot_dir is not None:
        for record in records:
            if Path(record.subject_code).name != record.subject_code:
                raise ParseError(
                    None,
                    f"subject code {record.subject_code!r} is not a plain file name for --plot-dir",
                )
    summary = results.trend(records, anomaly_threshold=threshold)

    lines = [f"{'subject':<10} {'year':<6} {'pass_pct':>8} {'delta':>8} {'direction':<9} band"]
    for subject, rows in summary.per_subject.items():
        for row in rows:
            delta = "-" if row.delta is None else f"{row.delta:+.2f}"
            direction = row.direction or "-"
            band = bands.label(row.pass_pct)
            lines.append(
                f"{subject:<10} {row.year:<6} {row.pass_pct:>8.2f} {delta:>8} {direction:<9} {band}"
            )
    lines.append("anomalies:")
    if not summary.anomalies:
        lines.append("  none")
    for subject, year, delta in summary.anomalies:
        lines.append(f"  {subject} {year} delta={delta:+.2f}")

    # the charts are written before stdout, so a failure leaves stdout empty
    if args.plot_dir is not None:
        plot_dir = Path(args.plot_dir)
        plot_dir.mkdir(parents=True, exist_ok=True)
    for subject, trend_rows in summary.per_subject.items():
        rows = [(row.year, row.pass_pct) for row in trend_rows]
        lines += ["", *charts.ascii_chart(subject, rows)]
        if args.plot_dir is not None:
            svg = charts.svg_line_chart(subject, rows)
            (plot_dir / f"{subject}.svg").write_text(svg, encoding="utf-8", newline="\n")
    _write_out(None, [lines])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="seqmine", description="Pattern mining toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine-itemsets", help="frequent itemsets (and rules) from transactions-CSV")
    p.add_argument("input")
    p.add_argument("--min-support", type=float, required=True)
    p.add_argument("--min-confidence", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mine_itemsets)

    p = sub.add_parser("mine-seq", help="sequential patterns from sequence-CSV")
    p.add_argument("input")
    p.add_argument("--min-support", type=float, required=True)
    p.add_argument("--min-gap", type=int, default=0)
    p.add_argument("--max-gap", type=int, default=None)
    p.add_argument("--max-index-gap", type=int, default=None)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--algo", choices=("gsp", "prefixspan"), default="prefixspan")
    p.add_argument("--closed", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mine_seq)

    p = sub.add_parser("mine-stream", help="one-pass batched mining over a sequence-CSV stream")
    p.add_argument("input")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--max-length", type=int, default=5)
    p.add_argument("--report-every", type=int, default=1)
    p.add_argument("--watch", action="store_true", help="keep tailing the file for appended lines")
    p.add_argument("--idle-timeout", type=float, default=5.0,
                   help="with --watch, stop once no byte has arrived for this many seconds")
    p.set_defaults(func=_cmd_mine_stream)

    p = sub.add_parser("analyze-results", help="trend analysis and charts for results-CSV")
    p.add_argument("input", nargs="?", default=None, help="defaults to the bundled dataset")
    p.add_argument("--bands", default=None, help="e.g. 50:F,70:C,85:B,100:A")
    p.add_argument("--anomaly-threshold", default="20.0")
    p.add_argument("--plot-dir", default=None)
    p.set_defaults(func=_cmd_analyze_results)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        code = next(_EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in _EXIT_CODES)
        _err(f"internal invariant failure: {exc}" if code == 4 else str(exc))
        return code


if __name__ == "__main__":
    sys.exit(main())
