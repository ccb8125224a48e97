"""The standing mutant list of ``tests/mutants.py`` stays runnable.

Running the mutants takes about a minute and is done by hand; these checks
catch a stale list, which the script would refuse to run, in every test run.
"""

import mutants


def test_every_mutant_edits_text_that_occurs_once():
    assert mutants.check_list(mutants.MUTANTS) == []


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(names) == len(set(names))
