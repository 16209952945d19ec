"""perfbench's probes still reach every layer the CLI runs.

``perfbench/tracing.py`` rebinds the layer functions ``seqmine.cli`` calls
(the miners on ``seqmine.cli`` itself) and records a span around each call;
a command that stopped calling through one of those names would drop its
layer from the benchmark's per-layer metrics without failing it.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

SEQUENCES = "s1,1,a\ns1,2,a b\ns1,3,c\ns2,1,a\ns2,2,c\ns2,3,b\ns3,1,b\ns3,2,a b\ns3,3,c\ns4,1,a\ns4,5,b\n"
BASKETS = "t1,a b c\nt2,a b\nt3,a c\nt4,b c\n"


@pytest.mark.parametrize(
    "content, argv, spans",
    [
        (SEQUENCES,
         ["mine-seq", "--algo", "gsp", "--max-gap", "3", "--max-length", "3", "--min-support", "0.5"],
         {"dataset.load", "sequences.gsp_mine", "textfmt.format"}),
        (SEQUENCES,
         ["mine-seq", "--algo", "prefixspan", "--closed", "--max-length", "8", "--min-support", "0.5"],
         {"dataset.load", "sequences.prefixspan_mine", "sequences.filter_closed", "textfmt.format"}),
        (SEQUENCES,
         ["mine-stream", "--sigma", "0.5", "--epsilon", "0.1", "--batch-size", "3", "--max-length", "3"],
         {"dataset.iter", "stream.process_batch", "stream.query_output", "stream.flush",
          "stream.tree_len", "probe.tree_sample", "textfmt.format"}),
        (BASKETS,
         ["mine-itemsets", "--min-support", "0.5", "--min-confidence", "0.5"],
         {"dataset.load", "itemsets.mine", "itemsets.rules", "textfmt.format"}),
    ],
    ids=["gsp", "prefixspan-closed", "stream", "itemsets-rules"],
)
def test_traced_run_records_every_layer_and_keeps_the_bytes(tmp_path, content, argv, spans):
    path = tmp_path / "input.csv"
    path.write_text(content)
    argv = [argv[0], str(path), *argv[1:]]
    tracer = tracing.Tracer(0)
    with tracing.instrumented(tracer):
        traced = tracing.cli_output(argv)
    assert {name for name, *_ in tracer.spans} == spans
    assert traced == tracing.cli_output(argv) != b""
