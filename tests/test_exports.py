"""Every exported name resolves: no export list names a deleted symbol."""

from __future__ import annotations

import importlib

import pytest

PACKAGES = ("repro", "repro.core", "repro.engine", "repro.algorithms")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_in_all_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_the_deleted_counting_entry_points_are_gone():
    import repro.core

    for name in ("STRATEGIES", "make_counter", "count_answers_all_strategies"):
        assert not hasattr(repro.core, name), name
        assert name not in repro.core.__all__
