"""The pattern text format emitted by the CLI.

One pattern per line, bit-exact::

    <{a b},{c}> count=3 support=0.7500

Elements render their tokens sorted ascending inside ``{}``, elements are
comma-joined inside ``<>``, support is fixed at 4 decimals, and lines sort
by (item count, lexicographic token order). Sorting on tokens rather than
internal ids keeps the bytes stable no matter how a file was interned.
"""

from __future__ import annotations

from collections.abc import Sequence

from seqmine.model import Alphabet, Itemset, Pattern, SupportedPattern, pattern_length

# typing.TYPE_CHECKING without importing typing: the names below are read by
# type checkers only, so formatting patterns does not load the itemset miner
TYPE_CHECKING = False
if TYPE_CHECKING:
    from seqmine.itemsets import AssociationRule, FrequentItemset


def _itemset_tokens(itemset: Itemset, alphabet: Alphabet) -> tuple[str, ...]:
    return tuple(sorted(alphabet.token(i) for i in itemset))


def _token_elements(pattern: Pattern, alphabet: Alphabet) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(sorted(alphabet.token(i) for i in e)) for e in pattern)


def _elements_text(elements: tuple[tuple[str, ...], ...]) -> str:
    return "<" + ",".join(["{" + " ".join(tokens) + "}" for tokens in elements]) + ">"


def pattern_to_text(pattern: Pattern, alphabet: Alphabet) -> str:
    return _elements_text(_token_elements(pattern, alphabet))


def _sorted_lines(rows: list[tuple]) -> list[str]:
    """Pattern lines from (sort key, pattern text, count, support) rows, in
    key order; the one place that writes the ``count= support=`` tail."""
    return [
        f"{text} count={count} support={support:.4f}" for _, text, count, support in sorted(rows)
    ]


def supported_pattern_lines(
    patterns: Sequence[SupportedPattern], alphabet: Alphabet, rendered: dict | None = None
) -> list[str]:
    """The lines of ``patterns``, in sort-key order.

    ``rendered``, if given, maps a pattern to its (sort key, ``<...>``
    text), and each pattern not yet in it is added. A caller that keeps it
    across calls renders a pattern once; it holds nothing of a count or a
    support, and an alphabet never changes an id's token, so an entry
    never goes stale.
    """
    rendered = {} if rendered is None else rendered
    rows = []
    for sp in patterns:
        if (found := rendered.get(sp.pattern)) is None:
            elements = _token_elements(sp.pattern, alphabet)
            key = (pattern_length(sp.pattern), elements)
            found = rendered[sp.pattern] = (key, _elements_text(elements))
        rows.append((*found, sp.count, sp.support))
    return _sorted_lines(rows)


def frequent_itemset_lines(itemsets: Sequence[FrequentItemset], alphabet: Alphabet) -> list[str]:
    """Each itemset as the one-element pattern ``<{...}>``, in the order
    :func:`supported_pattern_lines` gives patterns."""
    rows = []
    for f in itemsets:
        tokens = _itemset_tokens(f.itemset, alphabet)
        rows.append(((len(tokens), tokens), _elements_text((tokens,)), f.count, f.support))
    return _sorted_lines(rows)


def rule_lines(rules: Sequence[AssociationRule], alphabet: Alphabet) -> list[str]:
    # rules share their sides, so each side's text is built once per call
    text: dict[Itemset, str] = {}
    for r in rules:
        for side in (r.antecedent, r.consequent):
            if side not in text:
                text[side] = "{" + " ".join(_itemset_tokens(side, alphabet)) + "}"
    return [
        f"{text[r.antecedent]} => {text[r.consequent]}"
        f" support={r.support:.4f} confidence={r.confidence:.4f}"
        for r in rules
    ]
