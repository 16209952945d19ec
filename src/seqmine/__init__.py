"""seqmine: frequent-itemset, sequential-pattern, and stream pattern mining.

The names in ``__all__`` are loaded from their submodules on first use
(PEP 562), so importing ``seqmine``, or one submodule such as
``seqmine.cli``, does not load the miners a run does not call.
"""

import sys

__version__ = "0.1.0"

# each public name and the submodule that defines it
_EXPORTS = {
    "AssociationRule": "itemsets",
    "FrequentItemset": "itemsets",
    "frequent_items": "itemsets",
    "generate_candidates": "itemsets",
    "generate_rules": "itemsets",
    "mine_frequent_itemsets": "itemsets",
    "Alphabet": "model",
    "Constraints": "model",
    "DataSequence": "model",
    "Itemset": "model",
    "Pattern": "model",
    "SequenceDatabase": "model",
    "SupportedPattern": "model",
    "canonicalize": "model",
    "contains": "model",
    "itemset_support": "model",
    "min_count": "model",
    "pattern_length": "model",
    "support": "model",
    "MiningResult": "sequences",
    "MiningStats": "sequences",
    "filter_closed": "sequences",
    "gsp_mine": "sequences",
    "prefixspan_mine": "sequences",
    "PatternTree": "stream",
    "StreamConfig": "stream",
    "StreamState": "stream",
    "flush": "stream",
    "process_batch": "stream",
    "query_output": "stream",
    "replay": "stream",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_EXPORTS[name]}"
    # an import statement's path, unlike importlib.import_module's, is what
    # python -X importtime lists
    __import__(module)
    value = globals()[name] = getattr(sys.modules[module], name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
