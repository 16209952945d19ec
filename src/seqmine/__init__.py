"""seqmine: frequent-itemset, sequential-pattern, and stream pattern mining."""

from seqmine.itemsets import (
    AssociationRule,
    FrequentItemset,
    generate_candidates,
    generate_rules,
    mine_frequent_itemsets,
)
from seqmine.model import (
    Alphabet,
    Constraints,
    DataSequence,
    Itemset,
    Pattern,
    SequenceDatabase,
    SupportedPattern,
    canonicalize,
    contains,
    itemset_support,
    min_count,
    pattern_length,
    support,
)
from seqmine.sequences import (
    MiningResult,
    MiningStats,
    filter_closed,
    gsp_mine,
    prefixspan_mine,
)
from seqmine.stream import (
    PatternTree,
    StreamConfig,
    StreamState,
    flush,
    process_batch,
    query_output,
    replay,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AssociationRule",
    "Constraints",
    "DataSequence",
    "FrequentItemset",
    "Itemset",
    "MiningResult",
    "MiningStats",
    "Pattern",
    "PatternTree",
    "SequenceDatabase",
    "StreamConfig",
    "StreamState",
    "SupportedPattern",
    "canonicalize",
    "contains",
    "filter_closed",
    "flush",
    "generate_candidates",
    "generate_rules",
    "gsp_mine",
    "itemset_support",
    "min_count",
    "mine_frequent_itemsets",
    "pattern_length",
    "prefixspan_mine",
    "process_batch",
    "query_output",
    "replay",
    "support",
]
