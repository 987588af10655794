"""The public surface: every name a module exports through ``__all__`` resolves."""

import importlib

import pytest

MODULES = (
    "conedp",
    "conedp.eja",
    "conedp.mechanisms",
    "conedp.mwu",
    "conedp.oracles",
    "conedp.solvers",
    "conedp.harness",
    "conedp.harness.audit",
    "conedp.harness.generators",
    "conedp.harness.instances",
    "conedp.harness.runner",
)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
