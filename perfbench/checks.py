"""Output checks, one per workload, run outside every timed region.

Each ``*_checker`` builds its reference once and returns a function that
maps CLI stdout bytes to a list of problems; an empty list means correct.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Callable

from seqmine import dataset, oracle, textfmt
from seqmine.itemsets import generate_candidates
from seqmine.model import Constraints, SupportedPattern, itemset_support
from seqmine.sequences import prefixspan_mine

Check = Callable[[bytes], list[str]]


def _differs(what: str, got: bytes, want: bytes) -> list[str]:
    if got == want:
        return []
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return [f"{what}: line {i + 1} is {a!r}, expected {b!r}"]
    return [f"{what}: {len(got_lines)} lines, expected {len(want_lines)}"]


def split_pattern_line(line: str) -> tuple[str, int, str]:
    """``<{a b},{c}> count=3 support=0.7500`` -> (pattern text, count, support)."""
    text, _, rest = line.partition(" count=")
    count, _, support = rest.partition(" support=")
    return text, int(count), support


def pattern_elements(text: str) -> list[list[str]]:
    return [element.split() for element in text[2:-2].split("},{")]


def equal_bytes_checker(what: str, want: bytes) -> Check:
    """``gsp-gap``: the GSP output must equal the PrefixSpan output."""
    return lambda out: _differs(what, out, want)


def closed_checker(unfiltered: bytes) -> Check:
    """``closed-motifs``: the ``--closed`` output must equal ``oracle.brute_closed``
    applied to the unfiltered PrefixSpan output of the same command."""
    ids: dict[str, int] = {}
    patterns = []
    lines = unfiltered.decode().splitlines()
    for line in lines:
        text, count, _ = split_pattern_line(line)
        pattern = tuple(
            tuple(sorted(ids.setdefault(token, len(ids)) for token in element))
            for element in pattern_elements(text)
        )
        patterns.append(SupportedPattern(pattern, count, 0.0))
    kept = {id(sp) for sp in oracle.brute_closed(patterns)}
    want = "".join(f"{line}\n" for line, sp in zip(lines, patterns) if id(sp) in kept).encode()
    return lambda out: _differs("closed output vs oracle.brute_closed", out, want)


class StreamGuarantees:
    """``stream-lossy``: the final report must meet both lossy-counting
    guarantees against exact offline counts (``prefixspan_mine`` on the
    whole stream at sigma-epsilon): no pattern with true support >= sigma is
    missing, every reported pattern has true support >= sigma-epsilon, and
    no reported count exceeds the true count."""

    def __init__(self, input_path: Path, args):
        self.sigma = Fraction(str(args.sigma))
        epsilon = Fraction(str(args.epsilon))
        db = dataset.load_sequence_db(input_path.read_text(encoding="utf-8").splitlines())
        exact_result = prefixspan_mine(
            db, Constraints(min_support=self.sigma - epsilon, max_length=args.max_length)
        )
        self.exact = {
            textfmt.pattern_to_text(sp.pattern, db.alphabet): sp.count for sp in exact_result.patterns
        }
        self.n = len(db)

    def must_report(self, text: str) -> bool:
        return self.exact.get(text, 0) >= self.sigma * self.n

    def __call__(self, out: bytes) -> list[str]:
        lines = out.decode().splitlines()
        finals = [i for i, line in enumerate(lines) if line.startswith("# final ")]
        if not finals or f"sequences={self.n} " not in lines[finals[-1]] + " ":
            return [f"no final report over {self.n} sequences"]
        problems = []
        reported = set()
        for line in lines[finals[-1] + 1:]:
            text, count, _ = split_pattern_line(line)
            reported.add(text)
            if text not in self.exact:
                problems.append(f"{text} reported but true support < sigma-epsilon")
            elif count > self.exact[text]:
                problems.append(f"{text} count={count} exceeds true count {self.exact[text]}")
        problems += [
            f"{text} (true count {count}) has support >= sigma but is missing"
            for text, count in self.exact.items()
            if self.must_report(text) and text not in reported
        ]
        return problems


def stream_checker(replayed: bytes, guarantees: StreamGuarantees) -> Check:
    """``stream-lossy``: the output must equal the same command's output run
    in-process (every report, not only the final one, is deterministic), and
    meet the guarantees."""
    return lambda out: _differs("stream output vs in-process run", out, replayed) + guarantees(out)


def itemsets_checker(input_text: str, args) -> Check:
    """``itemsets-rules``: every itemset recounted with ``model.itemset_support``;
    every next-level candidate (``generate_candidates``) missing from the
    output must fall below the threshold; the rule lines must be exactly the
    rules whose recomputed confidence reaches ``--min-confidence``."""
    ids: dict[str, int] = {}
    # frozensets, so that itemset_support's frozenset(t) is free
    postings: dict[int, list[frozenset[int]]] = {}
    n = 0
    for line in input_text.splitlines():
        basket = frozenset(ids.setdefault(t, len(ids)) for t in line.split(",")[1].split())
        for item in basket:
            postings.setdefault(item, []).append(basket)
        n += 1
    tokens = {i: t for t, i in ids.items()}
    min_count = Fraction(str(args.min_support)) * n
    min_conf = Fraction(str(args.min_confidence))

    def recount(itemset: tuple[int, ...]) -> int:
        # only baskets holding the rarest item can hold the itemset
        rarest = min(itemset, key=lambda i: len(postings.get(i, ())))
        return itemset_support(itemset, postings[rarest])[0] if rarest in postings else 0

    def set_text(itemset) -> str:
        return "{" + " ".join(sorted(tokens[i] for i in itemset)) + "}"

    def check(out: bytes) -> list[str]:
        problems = []
        counts: dict[tuple[int, ...], int] = {}
        rule_lines = []
        for line in out.decode().splitlines():
            if not line.startswith("<"):
                rule_lines.append(line)
                continue
            text, count, support = split_pattern_line(line)
            (element,) = pattern_elements(text)
            if any(t not in ids for t in element):
                problems.append(f"{text} names an item not in the input")
                continue
            itemset = tuple(sorted(ids[t] for t in element))
            true = recount(itemset)
            counts[itemset] = count
            if count != true or support != f"{true / n:.4f}":
                problems.append(f"{text} count={count} support={support}, recount gives {true}")
            if true < min_count:
                problems.append(f"{text} is below the support threshold")
        level = sorted((i,) for i in postings)
        while level and not problems:
            problems += [
                f"{set_text(c)} is frequent (count {recount(c)}) but missing"
                for c in level
                if c not in counts and recount(c) >= min_count
            ]
            level = generate_candidates(sorted(c for c in counts if len(c) == len(level[0])))
        want_rules = set()
        for z, cz in counts.items():
            for mask in range(1, (1 << len(z)) - 1):
                x = tuple(i for k, i in enumerate(z) if mask >> k & 1)
                cx = counts.get(x)
                if cx is None:
                    problems.append(f"subset {set_text(x)} of {set_text(z)} is missing")
                elif Fraction(cz, cx) >= min_conf:
                    y = tuple(i for i in z if i not in x)
                    want_rules.add(
                        f"{set_text(x)} => {set_text(y)} support={cz / n:.4f} confidence={cz / cx:.4f}"
                    )
        if len(rule_lines) != len(set(rule_lines)) or set(rule_lines) != want_rules:
            extra = sorted(set(rule_lines) - want_rules)[:1]
            missing = sorted(want_rules - set(rule_lines))[:1]
            problems.append(
                f"rules: {len(rule_lines)} lines, expected {len(want_rules)}; "
                f"unexpected {extra}, missing {missing}"
            )
        return problems

    return check
