"""Command-line behavior: formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import os
import random
import re
import stat
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import SRC, run_cli, start_cli

from seqmine import cli, textfmt
from seqmine.errors import SeqmineError

TDB1_CSV = "t1,a b c\nt2,a b\nt3,a c\nt4,b c\n"
DB1_CSV = (
    "s1,1,a\ns1,2,a b\ns1,3,c\n"
    "s2,1,a\ns2,2,c\ns2,3,b\n"
    "s3,1,b\ns3,2,a b\ns3,3,c\n"
    "s4,1,a\ns4,5,b\n"
)


def watch_appends(path, appends, *flags):
    """Run ``mine-stream path flags --watch --idle-timeout 2.0``, appending
    each of ``appends`` to the file 0.5 s after the one before; return the
    exit code, stdout and stderr."""
    proc = start_cli("mine-stream", str(path), *flags, "--watch", "--idle-timeout", "2.0")
    for data in appends:
        time.sleep(0.5)
        with open(path, "ab") as handle:
            handle.write(data)
    stdout, stderr = proc.communicate(timeout=30)
    return proc.returncode, stdout, stderr


@pytest.fixture
def tdb1_file(tmp_path):
    path = tmp_path / "tdb1.csv"
    path.write_text(TDB1_CSV)
    return str(path)


@pytest.fixture
def db1_file(tmp_path):
    path = tmp_path / "db1.csv"
    path.write_text(DB1_CSV)
    return str(path)


class TestMineItemsets:
    def test_six_itemsets(self, tdb1_file, tmp_path):
        out = tmp_path / "items.txt"
        proc = run_cli("mine-itemsets", tdb1_file, "--min-support", "0.5", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0] == "<{a}> count=3 support=0.7500"
        assert "<{a b}> count=2 support=0.5000" in lines

    def test_rules_emitted_with_confidence_flag(self, tdb1_file, tmp_path):
        out = tmp_path / "items.txt"
        proc = run_cli(
            "mine-itemsets", tdb1_file,
            "--min-support", "0.5", "--min-confidence", "0.6", "--out", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert "{a} => {b} support=0.5000 confidence=0.6667" in lines

    def test_bad_min_support_names_flag(self, tdb1_file):
        proc = run_cli("mine-itemsets", tdb1_file, "--min-support", "1.5")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "--min-support" in proc.stderr

    @pytest.mark.parametrize("content", ["", "# only a comment\n\n"], ids=["empty", "comment"])
    def test_no_data_line_exit_2(self, tmp_path, content):
        # the error names the input, not the miner that needs a transaction
        path = tmp_path / "none.csv"
        path.write_text(content)
        proc = run_cli("mine-itemsets", str(path), "--min-support", "0.5")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {path} has no data line\n"

    def test_missing_file_exits_2(self):
        proc = run_cli("mine-itemsets", "/nonexistent.csv", "--min-support", "0.5")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            ("t1,a b\nt2,a\nt1,c\n", "line 3: duplicate txn_id 't1'"),
            ("t1,a b\n ,a\n", "line 2: empty txn_id"),
        ],
        ids=["duplicate", "empty"],
    )
    def test_bad_txn_id_exits_2(self, tmp_path, content, message):
        # a repeated id would count one basket twice and change every support
        path = tmp_path / "baskets.csv"
        path.write_text(content)
        proc = run_cli("mine-itemsets", str(path), "--min-support", "0.6")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_stdout_bytes_pinned(self, tmp_path):
        # baskets list items unsorted and repeated; the loader sorts and dedups
        import random

        rng = random.Random(5)
        weights = [1 / rank for rank in range(1, 15)]
        lines = []
        for b in range(500):
            size = min(1 + int(rng.expovariate(0.3)), 9)
            items = rng.choices(range(14), weights=weights, k=size)
            lines.append(f"b{b},{' '.join(f'i{i}' for i in items)}")
        path = tmp_path / "baskets.csv"
        path.write_text("\n".join(lines) + "\n")
        proc = run_cli(
            "mine-itemsets", str(path), "--min-support", "0.02", "--min-confidence", "0.3"
        )
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 364
        assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == (
            "7abb67bd0dd581ea323e403aa6e9295e9c36572985df3ca05552193849d607ec"
        )


    def test_sections_bytes_pinned(self, tmp_path):
        # items of four sizes and rules; i11 is in two baskets, never frequent,
        # so the frequent items skip an id
        rng = random.Random(11)
        lines = []
        for b in range(600):
            items = rng.sample(range(11), rng.randint(1, 5))
            if rng.random() < 0.3:
                items += [0, 1, 2, 3][: rng.randint(2, 4)]
            if rng.random() < 0.01:
                items.append(11)
            lines.append(f"t{b},{' '.join(f'i{i}' for i in items)}")
        path = tmp_path / "baskets.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.txt"
        flags = ("--min-support", "0.05", "--min-confidence", "0.5")
        to_stdout = run_cli("mine-itemsets", str(path), *flags)
        to_file = run_cli("mine-itemsets", str(path), *flags, "--out", str(out))
        assert to_stdout.returncode == to_file.returncode == 0
        assert to_file.stdout == "" and out.read_text(encoding="utf-8") == to_stdout.stdout
        sizes = Counter(
            len(line[2 : line.index("}")].split()) if line.startswith("<") else "rule"
            for line in to_stdout.stdout.splitlines()
        )
        assert sizes == {1: 11, 2: 54, 3: 42, 4: 12, "rule": 148}
        assert hashlib.sha256(to_stdout.stdout.encode("utf-8")).hexdigest() == (
            "fa3734d75147c2e923d479fb07f3bc3777ce2561c0f84057710085b1c91eb0b8"
        )

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"t1,a b\n\xff,c\n", "line 2: byte 0xff is not UTF-8"),
            (b"t1,a\nt2,b\nt3,a,b\n", "line 3: expected 'txn_id,items', got 't3,a,b'"),
        ],
        ids=["undecodable", "field-count"],
    )
    def test_bad_input_leaves_out_as_it_was(self, tmp_path, content, message):
        # the input is read and checked before --out is opened
        path = tmp_path / "baskets.csv"
        path.write_bytes(content)
        kept, absent = tmp_path / "kept.txt", tmp_path / "absent.txt"
        kept.write_bytes(b"<{x}> count=1 support=1.0000\n")
        for out in (kept, absent):
            proc = run_cli("mine-itemsets", str(path), "--min-support", "0.5", "--out", str(out))
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == f"error: {message}\n"
        assert kept.read_bytes() == b"<{x}> count=1 support=1.0000\n"
        assert not absent.exists()

    def test_items_are_flushed_before_mining(self, tdb1_file, monkeypatch):
        # stdout's byte layer holds 1 MiB, so only a flush reaches the sink
        class Sink(io.RawIOBase):
            def __init__(self):
                super().__init__()
                self.data = bytearray()

            def writable(self):
                return True

            def write(self, b):
                self.data += b
                return len(b)

        sink = Sink()
        monkeypatch.setattr(
            sys, "stdout", io.TextIOWrapper(io.BufferedWriter(sink, 1 << 20), encoding="utf-8")
        )
        seen = []
        mine = cli.mine_frequent_itemsets

        def mine_after_reading_the_sink(*args):
            seen.append(bytes(sink.data))
            return mine(*args)

        monkeypatch.setattr(cli, "mine_frequent_itemsets", mine_after_reading_the_sink)
        flags = ("--min-support", "0.5", "--min-confidence", "0.6")
        assert cli.main(["mine-itemsets", tdb1_file, *flags]) == 0
        assert seen == [
            b"<{a}> count=3 support=0.7500\n"
            b"<{b}> count=3 support=0.7500\n"
            b"<{c}> count=3 support=0.7500\n"
        ]
        # the later sections are flushed too, and the bytes are the whole output
        assert sink.data.decode() == run_cli("mine-itemsets", tdb1_file, *flags).stdout

    @pytest.mark.parametrize(
        "existing", [b"<{x}> count=1 support=1.0000\n", None], ids=["kept", "absent"]
    )
    @pytest.mark.parametrize("fault", [SeqmineError("rules failed"), KeyboardInterrupt()], ids=repr)
    def test_a_failure_between_sections_leaves_out_as_it_was(
        self, tdb1_file, tmp_path, monkeypatch, capsys, existing, fault
    ):
        out = tmp_path / "out.txt"
        if existing is not None:
            out.write_bytes(existing)
        before = sorted(tmp_path.iterdir())
        written = []

        def rules_after_two_sections(*args):
            (partial,) = set(tmp_path.iterdir()) - set(before)
            written.append(partial.read_bytes())
            raise fault

        monkeypatch.setattr(cli, "generate_rules", rules_after_two_sections)
        argv = ["mine-itemsets", tdb1_file, "--min-support", "0.5"]
        run = [*argv, "--min-confidence", "0.6", "--out", str(out)]
        if isinstance(fault, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                cli.main(run)
        else:
            assert cli.main(run) == 4
        # the itemset sections were written, to a file that is gone
        assert written == [run_cli(*argv).stdout.encode()]
        # no new file is left, whether the output or the one it was written to
        assert sorted(tmp_path.iterdir()) == before
        assert (out.read_bytes() if out.exists() else None) == existing
        assert capsys.readouterr().out == ""

    def test_a_symlinked_out_stays_a_symlink(self, tdb1_file, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_bytes(b"old\n")
        link.symlink_to(target.name)
        flags = ("--min-support", "0.5")
        assert run_cli("mine-itemsets", tdb1_file, *flags, "--out", str(link)).returncode == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == run_cli("mine-itemsets", tdb1_file, *flags).stdout

    def test_out_that_is_a_directory_exits_2_naming_it(
        self, tdb1_file, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "dir"
        out.mkdir()
        before = sorted(tmp_path.iterdir())
        called = []
        for name in ("mine_frequent_itemsets", "generate_rules"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: called.append(name))
        argv = ["mine-itemsets", tdb1_file, "--min-support", "0.5", "--min-confidence", "0.6"]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: [Errno 21] Is a directory: {str(out)!r}\n"
        )
        assert called == []
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("parent", ["missing", "a-file"])
    def test_an_unopenable_out_exits_2_with_a_direct_opens_error(
        self, tdb1_file, tmp_path, capsys, parent
    ):
        if parent == "a-file":
            (tmp_path / parent).write_text("")
        out = tmp_path / parent / "out.txt"
        before = sorted(tmp_path.iterdir())
        with pytest.raises(OSError) as direct:
            open(out, "w")
        assert cli.main(["mine-itemsets", tdb1_file, "--min-support", "0.5", "--out", str(out)]) == 2
        # the removal of the new file that was never made hides nothing
        assert capsys.readouterr() == ("", f"error: {direct.value}\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_a_fifo_out_is_written_through_and_stays_a_fifo(self, tdb1_file, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        before = sorted(tmp_path.iterdir())
        flags = ("--min-support", "0.5", "--min-confidence", "0.6")
        # a reader first, so the write end opens at once; the output fits the pipe
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert cli.main(["mine-itemsets", tdb1_file, *flags, "--out", str(fifo)]) == 0
            got = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert got == run_cli("mine-itemsets", tdb1_file, *flags).stdout.encode()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_out_dev_stdout_on_a_pipe_writes_the_pipe(self, tdb1_file):
        flags = ("--min-support", "0.5", "--min-confidence", "0.6")
        proc = run_cli("mine-itemsets", tdb1_file, *flags, "--out", "/dev/stdout")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli("mine-itemsets", tdb1_file, *flags).stdout


class TestChunkedOutput:
    """``_write_out`` writes ``cli._CHUNK_LINES`` lines at a time, and
    mine-itemsets writes its itemset lines before it builds its rules."""

    FLAGS = ("--min-support", "0.15", "--min-confidence", "0.7")

    @pytest.fixture
    def baskets_file(self, tmp_path):
        rng = random.Random(7)
        lines = [
            f"t{j}," + " ".join(f"i{x}" for x in rng.sample(range(14), rng.randint(7, 12)))
            for j in range(100)
        ]
        path = tmp_path / "baskets.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @staticmethod
    def expected(path):
        from seqmine.dataset import load_transactions
        from seqmine.itemsets import generate_rules, mine_frequent_itemsets

        baskets, alphabet = load_transactions(path.read_text())
        frequent = mine_frequent_itemsets(baskets, 0.15)
        itemset_lines = textfmt.frequent_itemset_lines(frequent, alphabet)
        rule_lines = textfmt.rule_lines(generate_rules(frequent, 0.7), alphabet)
        # each section spans more than one chunk
        assert len(itemset_lines) > cli._CHUNK_LINES and len(rule_lines) > cli._CHUNK_LINES
        return "\n".join(itemset_lines + rule_lines) + "\n"

    def test_stdout_and_out_bytes_equal_the_joined_lines(self, baskets_file, tmp_path):
        out = tmp_path / "out.txt"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = [sys.executable, "-m", "seqmine", "mine-itemsets", str(baskets_file), *self.FLAGS]
        to_stdout = subprocess.run(argv, capture_output=True, env=env, check=True)
        to_file = subprocess.run([*argv, "--out", str(out)], capture_output=True, env=env, check=True)
        want = self.expected(baskets_file).encode()
        assert to_stdout.stdout == want
        assert to_file.stdout == b"" and out.read_bytes() == want

    def test_a_stream_with_no_byte_layer_takes_the_same_text(self, baskets_file):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            assert cli.main(["mine-itemsets", str(baskets_file), *self.FLAGS]) == 0
        assert buf.getvalue() == self.expected(baskets_file)

    def test_no_frequent_itemset_still_creates_an_empty_out_file(self, tmp_path):
        path = tmp_path / "baskets.csv"
        path.write_text("t1,a\nt2,b\n")
        out = tmp_path / "out.txt"
        proc = run_cli(
            "mine-itemsets", str(path), "--min-support", "1.0", "--min-confidence", "0.7",
            "--out", str(out),
        )
        assert proc.returncode == 0 and proc.stdout == ""
        assert out.read_bytes() == b""


class TestMineSeq:
    def test_gsp_and_prefixspan_byte_identical(self, db1_file, tmp_path):
        out_g = tmp_path / "g.txt"
        out_p = tmp_path / "p.txt"
        assert run_cli(
            "mine-seq", db1_file, "--min-support", "0.5", "--algo", "gsp", "--out", str(out_g)
        ).returncode == 0
        assert run_cli(
            "mine-seq", db1_file, "--min-support", "0.5", "--algo", "prefixspan", "--out", str(out_p)
        ).returncode == 0
        assert out_g.read_bytes() == out_p.read_bytes()

    def test_max_gap_line(self, db1_file, tmp_path):
        out = tmp_path / "o.txt"
        run_cli(
            "mine-seq", db1_file, "--min-support", "0.5", "--max-gap", "2", "--out", str(out)
        )
        assert "<{a},{b}> count=2 support=0.5000" in out.read_text().splitlines()

    def test_closed_filter(self, db1_file, tmp_path):
        out = tmp_path / "o.txt"
        run_cli(
            "mine-seq", db1_file, "--min-support", "0.5", "--closed", "--out", str(out)
        )
        lines = out.read_text().splitlines()
        assert "<{c}> count=3 support=0.7500" not in lines
        assert "<{b}> count=4 support=1.0000" in lines

    def test_conflicting_gaps_exit_3(self, db1_file):
        proc = run_cli("mine-seq", db1_file, "--min-support", "0.5", "--min-gap", "3", "--max-gap", "2")
        assert proc.returncode == 3
        assert proc.stderr == "error: --min-gap (3) must be < --max-gap (2)\n"

    @pytest.mark.parametrize("content", ["", "# only a comment\n\n"], ids=["empty", "comment"])
    @pytest.mark.parametrize("algo", ["gsp", "prefixspan"])
    def test_no_data_line_exit_2(self, tmp_path, content, algo):
        # the error names the input, not the miner that needs a sequence
        path = tmp_path / "none.csv"
        path.write_text(content)
        proc = run_cli("mine-seq", str(path), "--min-support", "0.5", "--algo", algo)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {path} has no data line\n"

    def test_unknown_algo_exit_3(self, db1_file):
        proc = run_cli("mine-seq", db1_file, "--min-support", "0.5", "--algo", "spade")
        assert proc.returncode == 3

    def test_wide_alphabet_requires_max_length(self, tmp_path):
        lines = [f"s0,{t},tok{t}" for t in range(1, 31)]
        wide = tmp_path / "wide.csv"
        wide.write_text("\n".join(lines) + "\n")
        proc = run_cli("mine-seq", str(wide), "--min-support", "0.5")
        assert proc.returncode == 3
        assert "--max-length" in proc.stderr
        ok = run_cli("mine-seq", str(wide), "--min-support", "0.5", "--max-length", "2")
        assert ok.returncode == 0

    @pytest.mark.parametrize(
        "flags, n_lines, digest",
        [
            (
                ("--algo", "prefixspan", "--closed"),
                3013,
                "62ac0f0408fe84c0ffc622ff06a7a133d40e2c7f656c331182b6a43496a37b13",
            ),
            (
                ("--algo", "prefixspan", "--max-gap", "4", "--max-index-gap", "2"),
                631,
                "c43aea04c7904513448032b7a8bf3f998a3d98cd74148cb176e2171ca6ffb69e",
            ),
        ],
        ids=["closed", "gapped"],
    )
    def test_stdout_bytes_pinned(self, tmp_path, flags, n_lines, digest):
        # 6-10 transactions per sequence, 40% of them carrying one of two
        # planted multi-item motifs spread over random transactions
        import random

        rng = random.Random(11)
        motifs = [
            [("a", "b"), ("c",), ("d", "e")],
            [("f",), ("g", "h"), ("a",), ("i",)],
        ]
        lines = []
        for s in range(300):
            n_txns = rng.randint(6, 10)
            txns = [set(rng.sample("abcdefghijkl", rng.randint(1, 3))) for _ in range(n_txns)]
            if rng.random() < 0.4:
                motif = rng.choice(motifs)
                slots = sorted(rng.sample(range(n_txns), len(motif)))
                for slot, element in zip(slots, motif):
                    txns[slot].update(element)
            t = 0
            for items in txns:
                t += rng.randint(1, 3)
                lines.append(f"s{s},{t},{' '.join(sorted(items))}")
        path = tmp_path / "motifs.csv"
        path.write_text("\n".join(lines) + "\n")
        proc = run_cli(
            "mine-seq", str(path), "--min-support", "0.1", "--max-length", "6", *flags
        )
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == n_lines
        assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest


class TestMineStream:
    @pytest.fixture
    def stream_file(self, tmp_path):
        from synthetic import generate_db
        from seqmine.dataset import serialize_sequence_db

        db = generate_db(50, alphabet_size=4, seed=7)
        path = tmp_path / "stream.csv"
        path.write_text(serialize_sequence_db(db))
        return str(path)

    def test_five_reports_and_guarantees(self, stream_file):
        from seqmine.dataset import load_sequence_db
        from seqmine.model import exact_fraction
        from seqmine.oracle import brute_stream

        proc = run_cli(
            "mine-stream", stream_file,
            "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "10", "--max-length", "3",
        )
        assert proc.returncode == 0
        headers = [l for l in proc.stdout.splitlines() if l.startswith("#")]
        assert len(headers) == 5
        assert headers[-1].startswith("# final batches=5 sequences=50")

        final_lines = proc.stdout.splitlines()
        final_at = final_lines.index(headers[-1])
        reported = set()
        for line in final_lines[final_at + 1 :]:
            m = re.match(r"<(.+)> count=(\d+)", line)
            elements = tuple(
                tuple(sorted(e.strip("{}").split())) for e in m.group(1).split(",")
            )
            reported.add(elements)

        db = load_sequence_db(Path(stream_file).read_text())
        truth = brute_stream(list(db.sequences), 1 / 50, max_length=3)
        tokens = db.alphabet
        sigma, epsilon = exact_fraction(0.5), exact_fraction(0.1)

        def tokenized(pattern):
            return tuple(tuple(sorted(tokens.token(i) for i in e)) for e in pattern)

        truth_by_tok = {tokenized(sp.pattern): sp.count for sp in truth}
        for tok, count in truth_by_tok.items():
            if count >= sigma * 50:
                assert tok in reported, f"missing true pattern {tok}"
        for tok in reported:
            assert truth_by_tok.get(tok, 0) >= (sigma - epsilon) * 50

    def test_epsilon_above_sigma_exit_3(self, stream_file):
        proc = run_cli(
            "mine-stream", stream_file, "--sigma", "0.5", "--epsilon", "0.6", "--batch-size", "10"
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: --epsilon must be in (0, --sigma), got --epsilon=0.6 --sigma=0.5\n"
        )

    def test_tiny_epsilon_accepted(self, stream_file):
        # an epsilon this small leaves every count exact, so the final report
        # is the offline answer; it once rounded to 0 and was refused
        proc = run_cli(
            "mine-stream", stream_file, "--sigma", "0.5", "--epsilon", "1e-10",
            "--batch-size", "10", "--max-length", "3",
        )
        assert proc.returncode == 0, proc.stderr
        final = proc.stdout[proc.stdout.index("# final batches=5 sequences=50") :]
        offline = run_cli("mine-seq", stream_file, "--min-support", "0.5", "--max-length", "3")
        assert final.split("\n", 1)[1] == offline.stdout != ""

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_idle_timeout_exit_3(self, stream_file, value):
        # idle >= nan is never true, so an unchecked nan would watch forever
        proc = run_cli(
            "mine-stream", stream_file, "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "10",
            "--watch", "--idle-timeout", value, timeout=30,
        )
        assert proc.returncode == 3
        assert proc.stderr == f"error: --idle-timeout must be >= 0, got {float(value)}\n"

    def test_empty_input_one_final_report(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        proc = run_cli(
            "mine-stream", str(empty), "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "10"
        )
        assert proc.returncode == 0
        assert proc.stdout == "# final batches=0 sequences=0 tree_nodes=0\n"

    def test_watch_mode_reads_completed_file(self, stream_file):
        proc = run_cli(
            "mine-stream", stream_file,
            "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "10",
            "--watch", "--idle-timeout", "0.1",
        )
        assert proc.returncode == 0
        assert "# final" in proc.stdout

    def test_watch_mode_picks_up_appended_lines(self, tmp_path):
        path = tmp_path / "grow.csv"
        path.write_text("".join(f"g{i},1,a\n" for i in range(5)))
        appended = "".join(f"h{i},1,a\n" for i in range(5)).encode()
        code, stdout, _ = watch_appends(
            path, [appended], "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "5"
        )
        assert code == 0
        assert "# final batches=2 sequences=10" in stdout

    def test_watch_mode_waits_for_torn_line(self, tmp_path):
        path = tmp_path / "torn.csv"
        path.write_text("s1,2,b")
        code, stdout, stderr = watch_appends(
            path, [b"c\n"], "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "1"
        )
        assert code == 0, stderr
        assert "error:" not in stderr
        assert "<{bc}> count=1 support=1.0000" in stdout
        assert "<{b}>" not in stdout

    def test_watch_mode_waits_for_torn_character(self, tmp_path):
        # the two bytes of \u00e9 arrive in two appends
        path = tmp_path / "torn.csv"
        path.write_text("s1,1,a\ns2,1,a\n")
        code, stdout, stderr = watch_appends(
            path, [b"s3,1,caf\xc3", b"\xa9\n"],
            "--sigma", "0.3", "--epsilon", "0.1", "--batch-size", "2",
        )
        assert code == 0, stderr
        assert stdout.endswith(
            "# final batches=2 sequences=3 tree_nodes=2\n"
            "<{a}> count=2 support=0.6667\n<{caf\u00e9}> count=1 support=0.3333\n"
        )

    def test_watch_mode_waits_for_torn_crlf(self, tmp_path):
        # the \r\n ending line 3 arrives in two appends, so the bad time is on line 4
        path = tmp_path / "torn.csv"
        path.write_text("s1,1,a\ns2,1,a\n")
        code, stdout, stderr = watch_appends(
            path, [b"s3,1,a\r", b"\ns3,x,b\n"],
            "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "2",
        )
        assert code == 2
        assert stderr == "error: line 4: time must be a base-10 integer, got 'x'\n"

    def test_unterminated_last_line_is_read(self, tmp_path):
        path = tmp_path / "tail.csv"
        path.write_text("s1,1,a\ns2,1,a")
        proc = run_cli(
            "mine-stream", str(path), "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "10",
            "--watch", "--idle-timeout", "0.1",
        )
        assert proc.returncode == 0
        assert "# final batches=1 sequences=2" in proc.stdout
        assert "<{a}> count=2 support=1.0000" in proc.stdout

    def test_stdout_bytes_pinned(self, tmp_path):
        # local T = floor(0.1 * 40) = 4, so patterns missing from a batch get
        # delta bumps, and patterns are both inserted and evicted across batches
        from synthetic import generate_db
        from seqmine.dataset import serialize_sequence_db

        path = tmp_path / "pinned.csv"
        path.write_text(serialize_sequence_db(generate_db(600, alphabet_size=6, seed=3)))
        proc = run_cli(
            "mine-stream", str(path),
            "--sigma", "0.2", "--epsilon", "0.1", "--batch-size", "40", "--max-length", "4",
        )
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 267
        assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == (
            "9558e563e388403a8cf5d2b6bb990ed1d07d59fbe572e1b71d7d5e59cdbec5a4"
        )
        # every third report: the text kept for a report's patterns skips two
        proc = run_cli(
            "mine-stream", str(path),
            "--sigma", "0.2", "--epsilon", "0.1", "--batch-size", "40", "--max-length", "4",
            "--report-every", "3",
        )
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 90
        assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == (
            "b2f9c10865b4b581279ec8e8a274900f478ee27b258617066bc5fdaa2c7034a1"
        )

    def test_reused_pattern_text_never_goes_stale(self, tmp_path, monkeypatch, capsys):
        # batches of 2 at sigma 0.5, epsilon 0.1: <{a}> is output at count 2,
        # drops out once the b batches raise the threshold to 3, and is
        # output again at count 4
        path = tmp_path / "returns.csv"
        path.write_text("".join(f"s{i},1,{x}\n" for i, x in enumerate("aabbbbaa")))
        original = textfmt.supported_pattern_lines
        calls = []

        def recording(patterns, alphabet, rendered=None):
            held = set(rendered)
            lines = original(patterns, alphabet, rendered)
            assert lines == original(patterns, alphabet)
            calls.append((held, {sp.pattern for sp in patterns}, lines))
            return lines

        monkeypatch.setattr(textfmt, "supported_pattern_lines", recording)
        argv = ["mine-stream", str(path), "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "2"]
        assert cli.main(argv) == 0
        assert [[l for l in lines if l.startswith("<{a}>")] for *_, lines in calls] == [
            ["<{a}> count=2 support=1.0000"],
            ["<{a}> count=2 support=0.5000"],
            [],
            ["<{a}> count=4 support=0.5000"],
        ]
        # each report finds the text of the one before's patterns, and no more
        assert [held for held, _, _ in calls] == [set()] + [shown for _, shown, _ in calls[:-1]]
        assert capsys.readouterr().out.count("# ") == 4


@pytest.mark.parametrize(
    "flags",
    [
        ("mine-seq", "--min-support", "inf"),
        ("mine-seq", "--min-support", "nan"),
        ("mine-stream", "--sigma", "inf", "--epsilon", "0.1", "--batch-size", "2"),
        ("mine-stream", "--sigma", "nan", "--epsilon", "0.1", "--batch-size", "2"),
        ("mine-stream", "--sigma", "0.5", "--epsilon", "inf", "--batch-size", "2"),
        ("mine-stream", "--sigma", "0.5", "--epsilon", "nan", "--batch-size", "2"),
        ("mine-itemsets", "--min-support", "inf"),
        ("mine-itemsets", "--min-support", "nan"),
        ("mine-itemsets", "--min-support", "0.5", "--min-confidence", "inf"),
        ("mine-itemsets", "--min-support", "0.5", "--min-confidence", "nan"),
    ],
    ids=[
        "seq-inf", "seq-nan", "sigma-inf", "sigma-nan", "epsilon-inf", "epsilon-nan",
        "itemsets-support-inf", "itemsets-support-nan",
        "itemsets-confidence-inf", "itemsets-confidence-nan",
    ],
)
def test_non_finite_threshold_exit_3(db1_file, tdb1_file, flags):
    proc = run_cli(flags[0], tdb1_file if flags[0] == "mine-itemsets" else db1_file, *flags[1:])
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: threshold must be a finite number, got ")
    assert proc.stderr.count("\n") == 1
    bad_flag = next(flag for flag, value in zip(flags, flags[1:]) if value in ("inf", "nan"))
    assert bad_flag in proc.stderr


@pytest.mark.parametrize(
    "flags",
    [
        ("mine-seq", "--min-support", "1.0000000001"),
        ("mine-itemsets", "--min-support", "1.0000000001"),
        ("mine-itemsets", "--min-support", "0.5", "--min-confidence", "1.0000000001"),
        ("mine-stream", "--sigma", "1.0000000001", "--epsilon", "0.1", "--batch-size", "2"),
        ("mine-stream", "--sigma", "0.5", "--epsilon", "1.0000000001", "--batch-size", "2"),
    ],
    ids=["seq-support", "itemsets-support", "itemsets-confidence", "sigma", "epsilon"],
)
def test_threshold_just_above_one_exit_3(db1_file, tdb1_file, flags):
    # rounding makes this value exactly 1, but a threshold is judged as given
    proc = run_cli(flags[0], tdb1_file if flags[0] == "mine-itemsets" else db1_file, *flags[1:])
    bad_flag = flags[flags.index("1.0000000001") - 1]
    assert (proc.returncode, proc.stderr) == (
        3, f"error: {bad_flag} must be in (0, 1], got 1.0000000001\n"
    )


FLOOR_RUNS = {
    "min-gap": (
        ("mine-seq", "--min-support", "0.5", "--min-gap", "-1"), "--min-gap must be >= 0, got -1"
    ),
    "max-index-gap": (
        ("mine-seq", "--min-support", "0.5", "--max-index-gap", "-1"),
        "--max-index-gap must be >= 0, got -1",
    ),
    "seq-max-length": (
        ("mine-seq", "--min-support", "0.5", "--max-length", "0"),
        "--max-length must be >= 1, got 0",
    ),
    # two faults each: the first checked is named
    "gaps-then-length": (
        ("mine-seq", "--min-support", "0.5",
         "--min-gap", "3", "--max-gap", "3", "--max-length", "0"),
        "--min-gap (3) must be < --max-gap (3)",
    ),
    "support-then-gap": (
        ("mine-seq", "--min-support", "1.5", "--min-gap", "-1"),
        "--min-support must be in (0, 1], got 1.5",
    ),
    "batch-size": (("--batch-size", "0"), "--batch-size must be >= 1, got 0"),
    "stream-max-length": (
        ("--batch-size", "1", "--max-length", "0"), "--max-length must be >= 1, got 0"
    ),
    "report-every": (
        ("--batch-size", "1", "--report-every", "0"), "--report-every must be >= 1, got 0"
    ),
    # checked even without --watch, which alone reads it
    "idle-timeout": (
        ("--batch-size", "1", "--idle-timeout", "-1"), "--idle-timeout must be >= 0, got -1.0"
    ),
    "watch-idle-timeout": (
        ("--batch-size", "1", "--watch", "--idle-timeout", "nan"),
        "--idle-timeout must be >= 0, got nan",
    ),
}


@pytest.mark.parametrize("run", FLOOR_RUNS)
def test_flag_below_its_floor_exit_3_before_the_input_is_read(tmp_path, run):
    flags, message = FLOOR_RUNS[run]
    if flags[0] != "mine-seq":
        flags = ("mine-stream", "--sigma", "0.5", "--epsilon", "0.1", *flags)
    # the input does not exist: reading it would exit 2
    proc = run_cli(flags[0], str(tmp_path / "missing.csv"), *flags[1:])
    assert (proc.returncode, proc.stderr) == (3, f"error: {message}\n")


@pytest.mark.parametrize(
    "command, content", [("mine-seq", DB1_CSV), ("mine-itemsets", TDB1_CSV)],
    ids=["mine-seq", "mine-itemsets"],
)
def test_tiny_min_support_stays_positive(tmp_path, command, content):
    # below 5e-10 a threshold once rounded to 0 and was refused
    path = tmp_path / "input.csv"
    path.write_text(content)
    tiny, small = (run_cli(command, str(path), "--min-support", v) for v in ("1e-12", "1e-9"))
    assert (tiny.returncode, small.returncode) == (0, 0), tiny.stderr
    assert tiny.stdout == small.stdout != ""


@pytest.mark.parametrize(
    "command, content, flags",
    [
        ("mine-seq", b"s1,1,a\n\xff,2,b\n", ("--min-support", "0.5")),
        ("mine-stream", b"s1,1,a\n\xff,2,b\n",
         ("--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "2")),
        ("analyze-results", b"year,subject_code,pass_pct\n\xff,2,b\n", ()),
        ("mine-itemsets", b"t1,a b\n\xff,c\n", ("--min-support", "0.5")),
        ("mine-seq", b"s1,1,a\n# caf\xe9\n", ("--min-support", "0.5")),
    ],
    ids=["mine-seq", "mine-stream", "analyze-results", "mine-itemsets", "in-a-comment"],
)
def test_undecodable_input_exit_2(tmp_path, command, content, flags):
    path = tmp_path / "input.csv"
    path.write_bytes(content)
    proc = run_cli(command, str(path), *flags)
    assert proc.returncode == 2
    # the one non-ASCII byte of each input is the undecodable one, on line 2
    assert proc.stderr == f"error: line 2: byte 0x{max(content):02x} is not UTF-8\n"


@pytest.mark.parametrize("command, flags", [
    ("mine-seq", ("--min-support", "0.5")),
    ("mine-stream", ("--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "100")),
])
def test_undecodable_byte_past_the_first_8kb_names_its_line(tmp_path, command, flags):
    path = tmp_path / "input.csv"
    path.write_bytes(b"".join(b"s%d,1,a\n" % i for i in range(1, 2000)) + b"s0,1,\xff\n")
    assert path.stat().st_size > 16 * 1024
    proc = run_cli(command, str(path), *flags)
    assert proc.returncode == 2
    assert proc.stderr == "error: line 2000: byte 0xff is not UTF-8\n"


BUNDLED_CSV = (SRC / "seqmine" / "data" / "university_results.csv").read_bytes()


@pytest.mark.parametrize(
    "command, content, flags",
    [
        ("mine-seq", b"s1,1,a\ns1,2,b\ns2,1,a\ns2,2,b\n", ("--min-support", "1.0")),
        ("mine-stream", b"s1,1,a\ns1,2,b\ns2,1,a\ns2,2,b\n",
         ("--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "2")),
        ("mine-itemsets", b"# baskets\nt1,a b\nt2,a\n", ("--min-support", "0.5")),
        ("analyze-results", BUNDLED_CSV, ()),
    ],
    ids=["mine-seq", "mine-stream", "mine-itemsets", "analyze-results"],
)
def test_leading_bom_is_skipped(tmp_path, command, content, flags):
    stdouts = []
    for name, prefix in (("plain.csv", b""), ("bom.csv", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(prefix + content)
        proc = run_cli(command, str(path), *flags)
        assert proc.returncode == 0, proc.stderr
        stdouts.append(proc.stdout)
    assert stdouts[0] == stdouts[1]


CAFE_SEQ_CSV = "s1,1,café\ns2,1,café thé\n"


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize(
    "command, content, flags, has_out",
    [
        ("mine-seq", CAFE_SEQ_CSV, ("--min-support", "0.5"), True),
        ("mine-stream", CAFE_SEQ_CSV,
         ("--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "1"), False),
        ("mine-itemsets", "t1,café thé\nt2,café\n",
         ("--min-support", "0.5", "--min-confidence", "0.5"), True),
        ("analyze-results", "year,subject_code,pass_pct\n2003,CAFÉ,50\n2004,CAFÉ,60\n", (),
         False),
    ],
    ids=["mine-seq", "mine-stream", "mine-itemsets", "analyze-results"],
)
def test_stdout_is_utf8_whatever_the_io_encoding(
    tmp_path, encoding, command, content, flags, has_out
):
    path = tmp_path / "input.csv"
    path.write_text(content, encoding="utf-8")

    def stdout(io_encoding, *more_flags):
        env = dict(os.environ, PYTHONIOENCODING=io_encoding)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "seqmine", command, str(path), *flags, *more_flags],
            capture_output=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    if has_out:
        out = tmp_path / "out.txt"
        assert stdout("utf-8", "--out", str(out)) == b""
        expected = out.read_bytes()
    else:
        expected = stdout("utf-8")
    assert not expected.isascii()
    assert stdout(encoding) == expected


@pytest.mark.parametrize(
    "command, content, flags, message",
    [
        ("mine-seq", "s1,1,a\ns1,2,b\ns2,1\n", ("--min-support", "0.5"),
         "expected 'seq_id,time,items', got 's2,1'"),
        ("mine-itemsets", "t1,a\nt2,b\nt3,a,b\n", ("--min-support", "0.5"),
         "expected 'txn_id,items', got 't3,a,b'"),
        ("analyze-results", "year,subject_code,pass_pct\n2003,X,50\n2004,X\n", (),
         "expected 'year,subject_code,pass_pct', got '2004,X'"),
        # only \n, \r\n and \r end a line, so these are still line 3
        ("mine-seq", "s1,1,a\x85b\ns1,2,c\u2028d\x0ce\ns2,1\n", ("--min-support", "0.5"),
         "expected 'seq_id,time,items', got 's2,1'"),
        ("mine-itemsets", "t1,a\u2028b\r\nt2,b\x85c\nt3,a,b\n", ("--min-support", "0.5"),
         "expected 'txn_id,items', got 't3,a,b'"),
        ("analyze-results", "year,subject_code,pass_pct\n2003,X\x0c,50\n2004,X\n", (),
         "expected 'year,subject_code,pass_pct', got '2004,X'"),
    ],
    ids=["mine-seq", "mine-itemsets", "analyze-results",
         "mine-seq-odd-breaks", "mine-itemsets-odd-breaks", "analyze-results-odd-breaks"],
)
def test_wrong_field_count_message(tmp_path, command, content, flags, message):
    path = tmp_path / "input.csv"
    path.write_text(content, encoding="utf-8")
    proc = run_cli(command, str(path), *flags)
    assert proc.returncode == 2
    assert proc.stderr == f"error: line 3: {message}\n"


# U+0085, U+2028 and a form feed end a line for str.splitlines() but not for a
# text-mode file; inside an items field they separate items as a space does
ODD_BREAKS = "\x85\u2028\x0c"
ODD_SEQ_CSV = "s1,1,a\x85b\ns1,2,c\x0cd\ns2,1,a\u2028c\ns2,3,d\n"
ODD_TXN_CSV = "t1,a\x85b\nt2,a\u2028b\x0cc\nt3,c\n"


@pytest.mark.parametrize(
    "command, content, flags",
    [
        ("mine-seq", ODD_SEQ_CSV, ("--min-support", "0.5", "--max-length", "5")),
        ("mine-stream", ODD_SEQ_CSV,
         ("--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "10")),
        ("mine-itemsets", ODD_TXN_CSV, ("--min-support", "0.3", "--min-confidence", "0.5")),
    ],
    ids=["mine-seq", "mine-stream", "mine-itemsets"],
)
def test_odd_line_breaks_stay_inside_a_line(tmp_path, command, content, flags):
    stdouts = []
    for name, text in (("odd.csv", content), ("plain.csv", re.sub(f"[{ODD_BREAKS}]", " ", content))):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        proc = run_cli(command, str(path), *flags)
        assert proc.returncode == 0, proc.stderr
        stdouts.append(proc.stdout)
    assert stdouts[0] == stdouts[1] != ""


def test_mine_seq_and_mine_stream_read_the_same_lines(tmp_path):
    # one batch of 2 mines at T = 1, so the stream's counts are exact
    path = tmp_path / "odd.csv"
    path.write_text(ODD_SEQ_CSV, encoding="utf-8")
    seq = run_cli("mine-seq", str(path), "--min-support", "0.5", "--max-length", "5")
    stream = run_cli(
        "mine-stream", str(path), "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "10"
    )
    assert (seq.returncode, stream.returncode) == (0, 0), seq.stderr + stream.stderr
    header, *patterns = stream.stdout.splitlines()
    assert header.startswith("# final batches=1 sequences=2 ")
    assert patterns == seq.stdout.splitlines()
    assert "<{a b},{c d}> count=1 support=0.5000" in patterns


def imported_modules(*args, python_flags=()):
    """The modules a fresh interpreter holds after running the CLI on args,
    as ``python -m seqmine args`` does."""
    script = (
        "import sys\n"
        "from seqmine.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stderr.write(' '.join(sys.modules))\n"
        "sys.exit(code)\n"
    )
    proc = run_cli(*args, python_args=(*python_flags, "-c", script))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize(
    "command, content, flags, absent",
    [
        ("mine-seq", "s1,1,a\n", ("--min-support", "0.5"),
         {"seqmine.itemsets", "seqmine.stream", "seqmine.charts", "seqmine.results"}),
        ("mine-itemsets", "t1,a b\n", ("--min-support", "0.5", "--min-confidence", "0.5"),
         {"seqmine.sequences", "seqmine.stream", "seqmine.charts", "seqmine.results"}),
        ("mine-stream", "s1,1,a\n", ("--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "1"),
         {"seqmine.itemsets", "seqmine.charts", "seqmine.results"}),
    ],
    ids=["mine-seq", "mine-itemsets", "mine-stream"],
)
def test_command_loads_only_the_modules_it_runs(tmp_path, command, content, flags, absent):
    path = tmp_path / "input.csv"
    path.write_text(content)
    # -S: no site-packages .pth file imports a standard module before seqmine does
    loaded = imported_modules(command, str(path), *flags, python_flags=("-S",))
    assert "seqmine.cli" in loaded
    assert not loaded & absent
    assert not loaded & {"dataclasses", "inspect", "typing", "pathlib", "importlib.resources"}


def test_mine_seq_loads_no_typing_pathlib_or_resources(db1_file):
    # -S: no site-packages .pth file imports any of these before seqmine does
    loaded = imported_modules("mine-seq", db1_file, "--min-support", "0.5", python_flags=("-S",))
    assert "seqmine.sequences" in loaded
    assert not loaded & {"typing", "pathlib", "importlib.resources"}


class TestAnalyzeResults:
    def test_bundled_five_svgs(self, tmp_path):
        plot_dir = tmp_path / "plots"
        proc = run_cli("analyze-results", "--plot-dir", str(plot_dir))
        assert proc.returncode == 0
        svgs = sorted(p.name for p in plot_dir.glob("*.svg"))
        assert svgs == [f"BE-10{i}.svg" for i in range(1, 6)]
        be105 = (plot_dir / "BE-105.svg").read_text()
        # 29.69% maps to y = 350 - 29.69 * 3.2 = 254.992, rounded to 254.99
        assert "254.99" in be105
        assert 'width="640" height="400"' in be105
        assert be105.count("<polyline") == 1

    def test_svg_escapes_subject_code(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("year,subject_code,pass_pct\n2003,R&D<x>,50\n2004,R&D<x>,60\n")
        plot_dir = tmp_path / "plots"
        proc = run_cli("analyze-results", str(path), "--plot-dir", str(plot_dir))
        assert proc.returncode == 0, proc.stderr
        root = ET.parse(plot_dir / "R&D<x>.svg").getroot()
        title = root.find("{http://www.w3.org/2000/svg}title")
        assert title.text == "R&D<x>"

    @pytest.mark.parametrize("subject", ["../evil", "sub/evil", "."])
    def test_plot_dir_refuses_path_subject(self, tmp_path, subject):
        work = tmp_path / "work"
        work.mkdir()
        path = work / "results.csv"
        path.write_text(f"year,subject_code,pass_pct\n2003,{subject},50\n2004,{subject},60\n")
        plot_dir = work / "plots"
        proc = run_cli("analyze-results", str(path), "--plot-dir", str(plot_dir))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["results.csv", "work"]

    def test_plot_dir_failure_leaves_stdout_empty(self, tmp_path):
        plot_dir = tmp_path / "plots"
        plot_dir.write_text("")
        proc = run_cli("analyze-results", "--plot-dir", str(plot_dir))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1

    def test_anomaly_listed(self):
        proc = run_cli("analyze-results")
        assert proc.returncode == 0
        assert "BE-105 2007 delta=-44.71" in proc.stdout

    def test_single_year_subject_exit_2(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("year,subject_code,pass_pct\n2003,X,50\n2004,X,60\n2003,Y,70\n")
        proc = run_cli("analyze-results", str(path))
        assert proc.returncode == 2
        assert proc.stderr == "error: subject 'Y' has fewer than 2 years of data\n"

    @pytest.mark.parametrize("content", ["", "# no header\n"], ids=["empty", "comment"])
    def test_no_header_exit_2(self, tmp_path, content):
        path = tmp_path / "results.csv"
        path.write_text(content)
        proc = run_cli("analyze-results", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: results file is empty\n"

    def test_malformed_bands_exit_3(self):
        proc = run_cli("analyze-results", "--bands", "70:C,50:F,85:B,100:A")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--bands", "NaN:F,100:A"),
            ("--bands", "sNaN:F,100:A"),
            ("--anomaly-threshold", "NaN"),
            ("--anomaly-threshold", "sNaN"),
        ],
    )
    def test_nan_exit_3(self, flag, value):
        proc = run_cli("analyze-results", flag, value)
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"error: {flag}")
        assert proc.stderr.count("\n") == 1

    def test_infinite_anomaly_threshold_flags_none(self):
        proc = run_cli("analyze-results", "--anomaly-threshold", "Infinity")
        assert proc.returncode == 0
        assert "anomalies:\n  none\n" in proc.stdout


class TestDeterminism:
    def test_mine_seq_stable_across_runs(self, db1_file, tmp_path):
        outputs = []
        for run in range(2):
            out = tmp_path / f"o{run}.txt"
            proc = run_cli(
                "mine-seq", db1_file, "--min-support", "0.5", "--algo", "gsp",
                "--out", str(out),
            )
            assert proc.returncode == 0
            outputs.append(out.read_bytes())
        assert len(set(outputs)) == 1


# bytes that a damaged or foreign file holds: NUL, a BOM, U+0085, U+2028, a
# lone \r, invalid UTF-8, and the separators the formats split on
JUNK = (b"\x00", b"\xef\xbb\xbf", "\x85".encode(), "\u2028".encode(), b"\r", b"\xff",
        b"\xc3", b",", b"\n", b" ", b"#", b"-1")
FUZZ_RUNS = [
    ("mine-seq", "--min-support", "0.5", "--max-length", "4"),
    ("mine-stream", "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "2"),
    ("mine-itemsets", "--min-support", "0.5", "--min-confidence", "0.5"),
    ("analyze-results",),
]


@st.composite
def mutated_inputs(draw):
    """One of the three CSV formats with its lines shuffled and bytes deleted,
    inserted or duplicated."""
    data = draw(st.sampled_from([DB1_CSV.encode(), TDB1_CSV.encode(), BUNDLED_CSV]))
    if draw(st.booleans()):
        data = b"\n".join(draw(st.permutations(data.split(b"\n"))))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        kind = draw(st.sampled_from(["delete", "insert", "duplicate"]))
        if kind == "delete":
            data = data[:i] + data[j:]
        elif kind == "insert":
            data = data[:i] + draw(st.sampled_from(JUNK) | st.binary(min_size=1, max_size=3)) + data[i:]
        else:
            data = data[:j] + data[i:j] + data[j:]
    return data


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.csv"


@settings(max_examples=150)
@given(data=mutated_inputs())
def test_fuzzed_input_exits_0_or_2_with_one_error_line(fuzz_path, data):
    fuzz_path.write_bytes(data)
    for command, *flags in FUZZ_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(fuzz_path), *flags])
        assert code in (0, 2), (command, err.getvalue())
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
            # only mine-stream reports before it has read its whole input
            if command != "mine-stream":
                assert out.getvalue() == ""
