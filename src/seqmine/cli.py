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
from seqmine.model import Alphabet, Constraints, unit_fraction

# The miners the commands call, each imported on first use, so that a command
# loads only the miner it runs. A command calls them as attributes of this
# module (``_cli.gsp_mine``): perfbench's probes rebind them here.
_MINERS = frozenset(
    {"gsp_mine", "prefixspan_mine", "filter_closed", "mine_frequent_itemsets", "generate_rules"}
)


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
    a newline, to the file ``path``, or to stdout when it is None. A
    section is written ``_CHUNK_LINES`` lines at a time, so no copy of the
    whole output is made, as text or as bytes, and it is dropped before
    the next section is taken: a generator can build each section once
    the one before it is written. stdout takes UTF-8 bytes, as ``--out``
    does, whatever the locale; a stream with no byte layer (io.StringIO)
    takes the text."""
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            _write_sections(handle.write, sections)
    elif hasattr(sys.stdout, "buffer"):
        _write_sections(lambda text: sys.stdout.buffer.write(text.encode()), sections)
    else:
        _write_sections(sys.stdout.write, sections)


def _write_sections(write, sections: Iterable[list[str]]) -> None:
    for lines in sections:
        for start in range(0, len(lines), _CHUNK_LINES):
            write("\n".join(lines[start : start + _CHUNK_LINES]) + "\n")
        del lines  # dropped before the next section is built


def _build_config(config_class, **fields):
    """``config_class(**fields)``, its error re-raised with every field name
    spelled as the flag that sets it (``max_gap`` -> ``--max-gap``)."""
    try:
        return config_class(**fields)
    except (InvalidConstraintsError, InvalidStreamConfigError, InvalidThresholdError) as exc:
        names = re.compile(r"\b(" + "|".join(fields) + r")\b")
        raise type(exc)(names.sub(lambda m: "--" + m[1].replace("_", "-"), str(exc))) from None


def _mine_itemsets(args):
    """The frequent itemsets of ``args.input`` and its alphabet; the
    baskets' ints are freed on return, before anything is formatted."""
    baskets, alphabet = dataset.load_transactions(dataset.read_lines(args.input))
    if not baskets.size:
        raise ParseError(None, f"{args.input} has no data line")
    return _cli.mine_frequent_itemsets(baskets, args.min_support), alphabet


def _itemset_sections(frequent, alphabet: Alphabet, min_confidence: float | None):
    """The lines of ``frequent``, then those of its rules, which are built
    only once the itemset lines are written and dropped."""
    yield textfmt.frequent_itemset_lines(frequent, alphabet)
    if min_confidence is not None:
        yield textfmt.rule_lines(_cli.generate_rules(frequent, min_confidence), alphabet)


def _cmd_mine_itemsets(args) -> int:
    unit_fraction(args.min_support, "--min-support", UsageError)
    if args.min_confidence is not None:
        unit_fraction(args.min_confidence, "--min-confidence", UsageError)
    frequent, alphabet = _mine_itemsets(args)
    _write_out(args.out, _itemset_sections(frequent, alphabet, args.min_confidence))
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
    if args.report_every < 1:
        raise UsageError(f"--report-every must be >= 1, got {args.report_every}")
    if not args.idle_timeout >= 0:
        raise UsageError(f"--idle-timeout must be >= 0, got {args.idle_timeout}")
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
        # one write per report: under unbuffered output each print is a syscall
        _write_out(None, [[header, *shown]])
        sys.stdout.flush()
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
