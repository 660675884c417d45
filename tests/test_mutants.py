"""The mutants of ``tests/mutants.py`` still apply to ``src/``."""

import pytest

from mutants import MUTANTS, ROOT, SRC


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once_in_src(mutant):
    counts = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8").count(mutant.old)
              for p in SRC.rglob("*.py")}
    assert {f: n for f, n in counts.items() if n} == {mutant.file: 1}
