"""The mutant table in tools/mutants.py stays applicable to this tree.

A change that rewrites a mutated line fails here until its mutant is
updated, instead of leaving the mutant to go stale until the table runs.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools/mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_applies_once_and_changes_its_file():
    mutants = load_mutants()
    names = [name for name, *_ in mutants]
    assert len(set(names)) == len(names)
    for name, path, old, new, _ in mutants:
        assert (ROOT / path).read_text().count(old) == 1, name
        assert new != old, name
