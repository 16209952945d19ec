"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every expected value is
either computed by the exhaustive oracles in seqmine.oracle or checked
against the bundled dataset with tolerance 0.
"""

import random
import time
from decimal import Decimal

import pytest

from conftest import make_sequence, run_cli
from synthetic import generate_db, linear_fit

from seqmine.dataset import serialize_sequence_db
from seqmine.itemsets import mine_frequent_itemsets
from seqmine.model import (
    Alphabet,
    Constraints,
    SequenceDatabase,
    contains,
    exact_fraction,
    itemset_support,
)
from seqmine.oracle import (
    brute_closed,
    brute_itemsets,
    brute_sequences,
    iter_canonical_patterns,
)
from seqmine.results import bundled_results
from seqmine.sequences import filter_closed, gsp_mine, prefixspan_mine
from seqmine.stream import StreamConfig, StreamState, flush, process_batch, query_output


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")


def random_transactions(rng, max_items=8, max_txns=12):
    n_items = rng.randint(2, max_items)
    n_txns = rng.randint(1, max_txns)
    out = []
    for _ in range(n_txns):
        size = rng.randint(1, min(4, n_items))
        out.append(tuple(sorted(rng.sample(range(n_items), size))))
    return out


def random_sequence_db(rng, max_items=6, max_seqs=8, max_txns=5):
    n_items = rng.randint(2, min(5, max_items))
    n_seqs = rng.randint(2, max_seqs)
    sequences = []
    for s in range(n_seqs):
        t = 0
        txns = []
        for _ in range(rng.randint(1, max_txns)):
            t += rng.randint(1, 3)
            size = rng.randint(1, min(3, n_items))
            txns.append((t, rng.sample(range(n_items), size)))
        sequences.append(make_sequence(f"s{s}", *txns))
    alphabet = Alphabet(f"x{i}" for i in range(n_items))
    return SequenceDatabase(tuple(sequences), alphabet)


def test_criterion_1_itemset_oracle_equivalence():
    rng = random.Random(1001)
    thresholds = [0.25, 0.5, 0.75]
    started = time.perf_counter()
    mismatches = 0
    for case in range(500):
        transactions = random_transactions(rng)
        min_support = thresholds[case % 3]
        mined = [(f.itemset, f.count) for f in mine_frequent_itemsets(transactions, min_support)]
        brute = [(f.itemset, f.count) for f in brute_itemsets(transactions, min_support)]
        if mined != brute:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    report(1, "itemset miner == brute force on 500 random databases", ok,
           f"mismatches={mismatches} elapsed={elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


GRID = [
    Constraints(min_support=0.5, max_length=3),
    Constraints(min_support=0.5, max_gap=1, max_length=3),
    Constraints(min_support=0.5, max_gap=2, max_length=3),
    Constraints(min_support=0.5, max_index_gap=0, max_length=3),
    Constraints(min_support=0.5, max_index_gap=1, max_length=3),
    Constraints(min_support=0.5, min_gap=1, max_gap=2, max_index_gap=1, max_length=3),
    Constraints(min_support=0.5, min_gap=1, max_length=3),
]


@pytest.fixture(scope="module")
def sequence_equivalence_cases():
    """300 random databases x the constraint grid, mined three ways."""
    rng = random.Random(2002)
    cases = []
    started = time.perf_counter()
    for case in range(300):
        db = random_sequence_db(rng)
        min_support = 0.25 if case % 2 else 0.5
        for base in GRID:
            constraints = Constraints(
                min_support=min_support,
                min_gap=base.min_gap,
                max_gap=base.max_gap,
                max_index_gap=base.max_index_gap,
                max_length=base.max_length,
            )
            brute = [(sp.pattern, sp.count) for sp in brute_sequences(db, constraints)]
            gsp = gsp_mine(db, constraints)
            ps = prefixspan_mine(db, constraints)
            cases.append((db, constraints, brute, gsp, ps))
    elapsed = time.perf_counter() - started
    return cases, elapsed


def test_criterion_2_sequence_oracle_and_cross_miner_equivalence(sequence_equivalence_cases):
    cases, elapsed = sequence_equivalence_cases
    mismatches = 0
    for _, _, brute, gsp, ps in cases:
        gsp_pairs = [(sp.pattern, sp.count) for sp in gsp.patterns]
        ps_pairs = [(sp.pattern, sp.count) for sp in ps.patterns]
        if not (gsp_pairs == ps_pairs == brute):
            mismatches += 1
    ok = mismatches == 0 and elapsed < 60.0
    report(2, "gsp == prefixspan == brute force on 300 databases x constraint grid", ok,
           f"cases={len(cases)} mismatches={mismatches} elapsed={elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_3_anti_monotonicity():
    rng = random.Random(3003)
    violations = 0
    for _ in range(10_000):
        transactions = random_transactions(rng, max_items=6, max_txns=8)
        items = sorted({i for t in transactions for i in t})
        superset = tuple(sorted(rng.sample(items, rng.randint(1, len(items)))))
        subset = tuple(sorted(rng.sample(superset, rng.randint(1, len(superset)))))
        if itemset_support(subset, transactions)[0] < itemset_support(superset, transactions)[0]:
            violations += 1
    report(3, "anti-monotonicity over 10^4 random (subset, superset, db) triples",
           violations == 0, f"violations={violations}")
    assert violations == 0


def random_stream(rng, n, n_items):
    out = []
    for i in range(n):
        t = 0
        txns = []
        for _ in range(rng.randint(1, 4)):
            t += rng.randint(1, 3)
            size = rng.randint(1, 2)
            txns.append((t, rng.sample(range(n_items), size)))
        out.append(make_sequence(f"r{i}", *txns))
    return out


def test_criterion_4_stream_guarantees():
    rng = random.Random(4004)
    false_negatives = 0
    floor_violations = 0
    fp_fractions = []
    boundaries_checked = 0
    for _ in range(100):
        n_items = rng.randint(2, 4)
        n_seqs = rng.randint(20, 200)
        batch_size = rng.choice([5, 10, 20])
        sigma = rng.choice([0.3, 0.4, 0.5])
        epsilon = rng.choice([sigma / 2, sigma / 4])
        config = StreamConfig(sigma=sigma, epsilon=epsilon, batch_size=batch_size, max_length=3)
        sigma_f = exact_fraction(sigma)
        eps_f = exact_fraction(epsilon)
        stream = random_stream(rng, n_seqs, n_items)

        # incremental oracle: per-pattern cumulative true counts
        patterns = list(iter_canonical_patterns(range(n_items), 3))
        cumulative = {p: 0 for p in patterns}

        state = StreamState()
        position = 0

        def check_boundary():
            nonlocal false_negatives, floor_violations, boundaries_checked
            boundaries_checked += 1
            n = state.sequences_seen
            out = query_output(state, config)
            out_patterns = {sp.pattern for sp in out}
            for pattern, true in cumulative.items():
                if true >= sigma_f * n and pattern not in out_patterns:
                    false_negatives += 1
            fp = 0
            for sp in out:
                true = cumulative[sp.pattern]
                if true < (sigma_f - eps_f) * n:
                    floor_violations += 1
                if true < sigma_f * n:
                    fp += 1
            if out:
                fp_fractions.append(fp / len(out))

        while position + batch_size <= len(stream):
            batch = stream[position : position + batch_size]
            position += batch_size
            process_batch(state, batch, config)
            for seq in batch:
                for pattern in patterns:
                    if contains(pattern, seq):
                        cumulative[pattern] += 1
            check_boundary()
        residual = stream[position:]
        if residual:
            for seq in residual:
                for pattern in patterns:
                    if contains(pattern, seq):
                        cumulative[pattern] += 1
            flush(state, residual, config)
            check_boundary()

    mean_fp = sum(fp_fractions) / len(fp_fractions) if fp_fractions else 0.0
    max_fp = max(fp_fractions) if fp_fractions else 0.0
    ok = false_negatives == 0 and floor_violations == 0
    report(4, "stream guarantees on 100 random streams at every batch boundary", ok,
           f"boundaries={boundaries_checked} false_negatives={false_negatives} "
           f"floor_violations={floor_violations} "
           f"false_positive_fraction mean={mean_fp:.4f} max={max_fp:.4f}")
    assert false_negatives == 0
    assert floor_violations == 0


def test_criterion_5_stream_linearity():
    sizes = [1000, 2000, 4000, 8000]
    config = StreamConfig(sigma=0.08, epsilon=0.02, batch_size=200, max_length=5)
    started = time.perf_counter()
    dbs = [
        generate_db(size, alphabet_size=8, seed=55, geometric_p=0.65, max_txns=10)
        for size in sizes
    ]
    reps = [[] for _ in sizes]
    # median of 3, one sample of every size per round, so that CPU speed
    # drift hits every size alike instead of skewing one point of the fit;
    # a sample replays the stream 8k/size times and divides by that, so each
    # times as much work as one 8k run and no size is lost in timer noise
    for _ in range(3):
        for size, db, times in zip(sizes, dbs, reps):
            replays = sizes[-1] // size
            t0 = time.perf_counter()
            for _ in range(replays):
                state = StreamState()
                for lo in range(0, size, config.batch_size):
                    process_batch(state, db.sequences[lo : lo + config.batch_size], config)
                query_output(state, config)
            times.append((time.perf_counter() - t0) / replays)
    medians = [sorted(times)[1] for times in reps]
    total = time.perf_counter() - started
    slope, _, r2 = linear_fit([float(s) for s in sizes], medians)
    ratio = medians[-1] / medians[0]
    ok = r2 >= 0.95 and ratio <= 10.0 and total < 120.0
    figures = (
        f"r2={r2:.4f} ratio_8k_1k={ratio:.2f} total={total:.1f}s"
        f" medians_s={[round(m, 4) for m in medians]}"
    )
    report(5, "stream time scales linearly over 1k/2k/4k/8k sequences", ok, figures)
    assert r2 >= 0.95, figures
    assert ratio <= 10.0, figures
    assert total < 120.0, figures


EXPECTED_RESULTS = {
    "BE-101": {2003: "62.5", 2004: "79.8", 2005: "71.3", 2006: "78.4", 2007: "60.4"},
    "BE-102": {2003: "66.55", 2004: "68.69", 2005: "79.72", 2006: "72.66", 2007: "68.08"},
    "BE-103": {2003: "88.62", 2004: "90.54", 2005: "91.57", 2006: "90.28", 2007: "90.94"},
    "BE-104": {2003: "88.62", 2004: "90.54", 2005: "91.57", 2006: "90.28", 2007: "90.94"},
    "BE-105": {2003: "72.8", 2004: "87.44", 2005: "69.45", 2006: "74.4", 2007: "29.69"},
}


def test_criterion_6_dataset_fidelity():
    records = {(r.subject_code, r.year): r.pass_pct for r in bundled_results()}
    mismatches = []
    for subject, by_year in EXPECTED_RESULTS.items():
        for year, expected in by_year.items():
            got = records.get((subject, year))
            if got is None or got != Decimal(expected):
                mismatches.append((subject, year, expected, got))
    ok = not mismatches and len(records) == 25
    report(6, "bundled dataset reproduces all 25 table values exactly", ok,
           f"rows={len(records)} mismatches={len(mismatches)}")
    assert len(records) == 25
    assert mismatches == []


def test_criterion_7_closed_filter_correctness(sequence_equivalence_cases):
    cases, _ = sequence_equivalence_cases
    mismatches = 0
    for _, _, _, _, ps in cases:
        got = [(sp.pattern, sp.count) for sp in filter_closed(ps).patterns]
        expected = [(sp.pattern, sp.count) for sp in brute_closed(ps.patterns)]
        if got != expected:
            mismatches += 1
    report(7, "closed filter == brute-force closed set on all criterion-2 results",
           mismatches == 0, f"cases={len(cases)} mismatches={mismatches}")
    assert mismatches == 0


def test_criterion_8_cli_determinism(tmp_path):
    tdb = tmp_path / "tdb.csv"
    tdb.write_text("t1,a b c\nt2,a b\nt3,a c\nt4,b c\n")
    seq_file = tmp_path / "db.csv"
    seq_file.write_text(serialize_sequence_db(generate_db(30, alphabet_size=5, seed=11)))

    failures = []

    def stable(name, args, out_name=None):
        outputs = []
        for run in range(3):
            out = tmp_path / f"{name}_{run}.out"
            full = [a.replace("@OUT@", str(out)) for a in args]
            proc = run_cli(*full)
            if proc.returncode != 0:
                failures.append(f"{name}: exit {proc.returncode}")
                return
            blob = out.read_bytes() if "@OUT@" in " ".join(args) else b""
            outputs.append(blob + proc.stdout.encode())
        if len(set(outputs)) != 1:
            failures.append(f"{name}: outputs differ across runs")

    stable("itemsets", ["mine-itemsets", str(tdb), "--min-support", "0.5",
                        "--min-confidence", "0.6", "--out", "@OUT@"])
    stable("seq_gsp", ["mine-seq", str(seq_file), "--min-support", "0.3",
                       "--algo", "gsp", "--max-length", "3", "--out", "@OUT@"])
    stable("seq_ps_closed", ["mine-seq", str(seq_file), "--min-support", "0.3",
                             "--algo", "prefixspan", "--max-length", "3", "--closed",
                             "--out", "@OUT@"])
    stable("stream", ["mine-stream", str(seq_file), "--sigma", "0.4", "--epsilon", "0.1",
                      "--batch-size", "10", "--max-length", "3"])

    svg_blobs = []
    for run in range(3):
        plot_dir = tmp_path / f"plots{run}"
        proc = run_cli("analyze-results", "--plot-dir", str(plot_dir))
        if proc.returncode != 0:
            failures.append(f"analyze: exit {proc.returncode}")
            break
        blob = proc.stdout.encode() + b"".join(
            p.read_bytes() for p in sorted(plot_dir.glob("*.svg"))
        )
        svg_blobs.append(blob)
    if len(set(svg_blobs)) != 1:
        failures.append("analyze: stdout or SVGs differ across runs")

    report(8, "CLI outputs byte-identical across 3 runs",
           not failures, "; ".join(failures) or "5 commands checked")
    assert not failures
