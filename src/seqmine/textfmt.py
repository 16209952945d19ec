"""The pattern text format emitted by the CLI.

One pattern per line, bit-exact::

    <{a b},{c}> count=3 support=0.7500

Elements render their tokens sorted ascending inside ``{}``, elements are
comma-joined inside ``<>``, support is fixed at 4 decimals, and lines sort
by (item count, lexicographic token order). Sorting on tokens rather than
internal ids keeps the bytes stable no matter how a file was interned.
"""

from __future__ import annotations

from typing import Sequence

from seqmine.itemsets import AssociationRule, FrequentItemset
from seqmine.model import Alphabet, Pattern, SupportedPattern, pattern_length


def _token_elements(pattern: Pattern, alphabet: Alphabet) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(sorted(alphabet.token(i) for i in e)) for e in pattern)


def _elements_text(elements: tuple[tuple[str, ...], ...]) -> str:
    return "<" + ",".join(["{" + " ".join(tokens) + "}" for tokens in elements]) + ">"


def pattern_to_text(pattern: Pattern, alphabet: Alphabet) -> str:
    return _elements_text(_token_elements(pattern, alphabet))


def supported_pattern_lines(
    patterns: Sequence[SupportedPattern], alphabet: Alphabet
) -> list[str]:
    rows = []
    for sp in patterns:
        elements = _token_elements(sp.pattern, alphabet)
        line = f"{_elements_text(elements)} count={sp.count} support={sp.support:.4f}"
        rows.append(((pattern_length(sp.pattern), elements), line))
    return [line for _, line in sorted(rows)]


def frequent_itemset_lines(itemsets: Sequence[FrequentItemset], alphabet: Alphabet) -> list[str]:
    as_patterns = [SupportedPattern((f.itemset,), f.count, f.support) for f in itemsets]
    return supported_pattern_lines(as_patterns, alphabet)


def _itemset_text(itemset, alphabet: Alphabet) -> str:
    return "{" + " ".join(sorted(alphabet.token(i) for i in itemset)) + "}"


def rule_lines(rules: Sequence[AssociationRule], alphabet: Alphabet) -> list[str]:
    return [
        f"{_itemset_text(r.antecedent, alphabet)} => {_itemset_text(r.consequent, alphabet)}"
        f" support={r.support:.4f} confidence={r.confidence:.4f}"
        for r in rules
    ]
