"""Exception types shared across the toolkit."""


class SeqmineError(Exception):
    """Base class for every error raised by seqmine."""


class EmptyPatternError(SeqmineError):
    """A pattern must have at least one element."""


class EmptyElementError(SeqmineError):
    """Every pattern element must hold at least one item."""


class EmptyDatabaseError(SeqmineError):
    """An operation that counts support needs a non-empty database."""


class InvalidThresholdError(SeqmineError):
    """A threshold is not finite, or an itemset support or confidence
    threshold is outside (0, 1] (:func:`seqmine.model.unit_fraction`)."""


class InvalidConstraintsError(SeqmineError):
    """A constraint set is internally inconsistent (e.g. min_gap >= max_gap)."""


class MixedSizesError(SeqmineError):
    """Candidate generation requires all input itemsets to share one size."""


class MissingSubsetSupportError(SeqmineError):
    """Rule generation needs the support of every antecedent subset."""


class AlphabetTooLargeError(SeqmineError):
    """The exhaustive itemset miner refuses alphabets it cannot enumerate."""


class InstanceTooLargeError(SeqmineError):
    """The exhaustive sequence miner refuses instances it cannot enumerate."""


class BadBatchSizeError(SeqmineError):
    """A stream batch did not have the size the configuration promised."""


class InvalidStreamConfigError(SeqmineError):
    """A stream configuration violates its invariants (e.g. epsilon >= sigma)."""


class InsufficientHistoryError(SeqmineError):
    """Trend analysis needs at least two years per subject."""

    def __init__(self, subject: str):
        super().__init__(f"subject {subject!r} has fewer than 2 years of data")
        self.subject = subject


class ParseError(SeqmineError):
    """A line of an input file could not be parsed, or, with ``line_no``
    None, the file as a whole."""

    def __init__(self, line_no: int | None, reason: str):
        super().__init__(reason if line_no is None else f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class NonIntegerTimeError(ParseError):
    """Transaction times must be base-10 integers."""


class DuplicateKeyError(ParseError):
    """A key that must be unique appeared twice: a txn_id in a transactions
    file, or a (year, subject_code) pair in a results file."""


class OutOfRangeError(ParseError):
    """A pass percentage fell outside [0, 100] or had too many digits."""
