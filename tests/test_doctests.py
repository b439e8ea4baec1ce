"""Run the doctests embedded in module and class docstrings.

Documentation examples are part of the public API contract; this test
keeps them executable.
"""

import doctest

import pytest

import repro.catalog.dictionary
import repro.core.partitioner
import repro.core.synopsis
import repro.core.workload_mode
import repro.txn.crash

MODULES = [
    repro.catalog.dictionary,
    repro.core.partitioner,
    repro.core.synopsis,
    repro.core.workload_mode,
    repro.txn.crash,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module}"
    assert results.attempted > 0, f"{module.__name__} has no doctests to run"
