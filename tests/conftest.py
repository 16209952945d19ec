import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest
from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "seqmine",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    # every phase but explain: hypothesis 6.155.2's explain phase can crash
    # while it shrinks a failure, and then no falsifying example is printed
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
settings.load_profile("seqmine")

from seqmine.model import Alphabet, DataSequence, SequenceDatabase


def start_cli(*args, python_args=("-m", "seqmine")):
    """Start ``python -m seqmine args`` in a child interpreter that imports
    seqmine from src/, its stdout and stderr piped as text. ``python_args``
    replace ``-m seqmine``, as in ``("-S", "-c", script)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, *python_args, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def run_cli(*args, timeout=None, python_args=("-m", "seqmine")):
    """Run :func:`start_cli`'s process to its end and return it as a
    ``subprocess.CompletedProcess``; past ``timeout`` seconds it is killed."""
    with start_cli(*args, python_args=python_args) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def make_sequence(seq_id, *txns):
    """txns are (time, items) pairs; items may be any iterable of ids."""
    return DataSequence(
        seq_id, tuple(t for t, _ in txns), tuple(tuple(sorted(set(items))) for _, items in txns)
    )


def delete_last_item(pattern):
    """The pattern's parent: the pattern minus its last item."""
    tail = pattern[-1]
    if len(tail) == 1:
        return pattern[:-1]
    return pattern[:-1] + (tail[:-1],)


A, B, C = 0, 1, 2


@pytest.fixture
def db1():
    """Four small data-sequences over items a, b, c used across the suite."""
    alphabet = Alphabet(["a", "b", "c"])
    return SequenceDatabase(
        (
            make_sequence("s1", (1, (A,)), (2, (A, B)), (3, (C,))),
            make_sequence("s2", (1, (A,)), (2, (C,)), (3, (B,))),
            make_sequence("s3", (1, (B,)), (2, (A, B)), (3, (C,))),
            make_sequence("s4", (1, (A,)), (5, (B,))),
        ),
        alphabet,
    )


@pytest.fixture
def tdb1():
    """Four unordered transactions over items a, b, c."""
    return [(A, B, C), (A, B), (A, C), (B, C)]
