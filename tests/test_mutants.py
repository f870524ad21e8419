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


def test_kill_map_names_mutants_and_test_files(mutants):
    # a stale entry only costs the audit a whole-suite run, but a map that
    # names no mutant or no test file has drifted from the list
    kills = mutants._read_kills()
    assert set(kills) <= {m.name for m in mutants.MUTANTS}
    for node in kills.values():
        assert (mutants.ROOT / node.split("::")[0]).is_file(), node
