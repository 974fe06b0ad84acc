"""Every exported name resolves, so a deletion cannot leave an export behind."""

import importlib

import pytest

MODULES = ["urnmix", "urnmix.bounds", "urnmix.chains", "urnmix.exact", "urnmix.montecarlo", "urnmix.verify"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
