"""The mutation audit's list must stay applicable: every mutant's old text
occurs exactly once in its file, so a refactor that moves it fails here
rather than at the next audit. No suite runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

MUTANTS_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("edgesim_mutants", MUTANTS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_mutant_applies_exactly_once(mutants):
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    mutants._check_unique(mutants.ROOT, mutants.MUTANTS)
