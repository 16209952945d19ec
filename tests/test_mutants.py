"""scripts/mutants.py: the mutation catalogue stays in step with the source.

The whole catalogue takes minutes (``python scripts/mutants.py``); here only
its texts are checked and a few cheap mutants are run."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))


def test_every_old_text_occurs_once_in_its_module():
    mutants = CATALOGUE["MUTANTS"]
    assert len({m.name for m in mutants}) == len(mutants)
    for mutant in mutants:
        assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new


def test_a_cheap_mutant_is_killed():
    mutant = next(m for m in CATALOGUE["MUTANTS"] if m.name == "pattern-ends-no-extend")
    killed, _ = CATALOGUE["run"](mutant, ("tests/test_model.py::TestSupport",))
    assert killed


def _killed_by_the_kernel_identity(name):
    mutant = next(m for m in CATALOGUE["MUTANTS"] if m.name == name)
    test = "tests/test_model.py::TestFirstAllowedAndUpto::test_one_and_counts_each_s_extension"
    killed, _ = CATALOGUE["run"](mutant, (test,))
    return killed


def test_a_short_smear_is_killed_by_the_kernel_identity():
    assert _killed_by_the_kernel_identity("upto-smear-short")


def test_a_bounded_popcount_count_is_killed_by_the_kernel_identity():
    assert _killed_by_the_kernel_identity("bounded-s-popcount")


def test_a_late_section_split_is_killed_by_the_pinned_bytes():
    mutant = next(m for m in CATALOGUE["MUTANTS"] if m.name == "itemset-sections-split")
    test = "tests/test_cli.py::TestMineItemsets::test_sections_bytes_pinned"
    killed, _ = CATALOGUE["run"](mutant, (test,))
    assert killed


def test_a_strict_floor_is_killed_though_the_package_no_longer_imports():
    mutant = next(m for m in CATALOGUE["MUTANTS"] if m.name == "at-least-strict")
    killed, _ = CATALOGUE["run"](mutant, ("tests/test_model.py::TestFloors",))
    assert killed


def test_a_floor_of_zero_records_is_killed_by_the_empty_database_table():
    mutant = next(m for m in CATALOGUE["MUTANTS"] if m.name == "min-count-floor-zero")
    test = "tests/test_model.py::test_an_empty_database_is_refused_by_one_floor"
    killed, _ = CATALOGUE["run"](mutant, (test,))
    assert killed
