"""The mutation list in mutants.py stays runnable as the code it targets moves."""

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_target_text_occurs_once_in_its_file(mutant):
    text = (ROOT / "src" / "lexsweep" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_named_test_files_exist(mutant):
    for name in mutant.tests:
        assert (ROOT / "tests" / name).is_file(), name
