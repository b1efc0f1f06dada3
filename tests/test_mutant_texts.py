"""Each mutant of `tests/mutants.py` names source text that occurs exactly once in its file.

The mutants script stops when a mutant's text is missing or repeated, and it runs
outside CI; this test finds a mutant that a source change left stale without running
any mutant.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutants_text_occurs_once_in_its_file(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
