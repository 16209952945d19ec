#!/usr/bin/env python3
"""End-to-end demo on the bundled university results.

Pass percentages are discretized into grade bands and mined two ways:

* subject-qualified items (BE-103:A) with one sequence per subject, the
  dataset module's standard discretization; support counts subjects, and
  since items carry the subject prefix nothing crosses subjects, so this is
  mined at min_support 0.2 (any 1 of 5 subjects);
* bare band items (A, B, C, F), where cross-subject trajectories like
  "a C year followed by a B year" become visible.

Usage::

    python scripts/demo_university_mining.py [--min-support 0.4]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from seqmine.dataset import load_sequence_db
from seqmine.model import Constraints
from seqmine.results import DEFAULT_BANDS, bundled_results, discretize, trend
from seqmine.sequences import filter_closed, gsp_mine, prefixspan_mine
from seqmine.textfmt import supported_pattern_lines


def mine_and_print(db, min_support, max_length, closed_only=True):
    constraints = Constraints(min_support=min_support, max_length=max_length)
    gsp = gsp_mine(db, constraints)
    ps = prefixspan_mine(db, constraints)
    same = [(sp.pattern, sp.count) for sp in gsp.patterns] == [
        (sp.pattern, sp.count) for sp in ps.patterns
    ]
    print(f"  miners agree: {same}; {len(gsp.patterns)} frequent patterns, "
          f"{gsp.stats.database_passes} level-wise passes")
    result = filter_closed(ps) if closed_only else ps
    label = "closed patterns" if closed_only else "patterns"
    print(f"  {label}:")
    for line in supported_pattern_lines(result.patterns, db.alphabet):
        print("    " + line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-support", type=float, default=0.4)
    parser.add_argument("--max-length", type=int, default=3)
    args = parser.parse_args(argv)

    records = bundled_results()

    print("subject-qualified bands, min_support 0.2:")
    db = discretize(records, DEFAULT_BANDS)
    mine_and_print(db, 0.2, args.max_length)

    print(f"\nbare band trajectories, min_support {args.min_support}:")
    lines = [
        f"{r.subject_code},{r.year},{DEFAULT_BANDS.label(r.pass_pct)}" for r in records
    ]
    band_db = load_sequence_db("\n".join(lines))
    mine_and_print(band_db, args.min_support, args.max_length)

    summary = trend(records)
    print("\nanomalous year-over-year swings (|delta| > 20):")
    if not summary.anomalies:
        print("  none")
    for subject, year, delta in summary.anomalies:
        print(f"  {subject} {year}: {delta:+.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
