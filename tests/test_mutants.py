"""The mutation gate of `mutants.py`: every snippet still matches, and a
fixed sample of its mutants is killed (about 5.5 s on 2 CPUs; the whole gate
runs with `python tests/mutants.py`)."""

import mutants

SAMPLE = (11, 16, 17, 32, 42)   # the rhs subtraction, SideIds.row's guard,
# the pair kernel's kept verdicts not read, a term error's index, and the
# pivot search's stop at its floor


def test_every_mutant_snippet_occurs_once():
    assert [k for k, m in enumerate(mutants.MUTANTS)
            if mutants.mutated(m) is None] == []
    assert len(mutants.MUTANTS) >= 10


def test_a_sample_of_mutants_is_killed():
    assert [mutants.run(mutants.MUTANTS[k]) for k in SAMPLE] == \
        ["killed"] * len(SAMPLE)
