"""Every exported name resolves, so a deletion cannot leave an export behind.

The package resolves its exports lazily, from their home submodules.
"""

import importlib

import pytest

MODULES = ["urnmix", "urnmix.bounds", "urnmix.chains", "urnmix.exact", "urnmix.montecarlo", "urnmix.verify"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve_lazily_to_their_homes():
    import urnmix

    assert set(dir(urnmix)) >= set(urnmix.__all__)
    namespace = {}
    exec("from urnmix import *", namespace)
    assert set(urnmix.__all__) <= set(namespace)
    for module, names in urnmix._HOMES.items():
        home = importlib.import_module(f"urnmix.{module}")
        for name in names:
            assert namespace[name] is getattr(home, name) is getattr(urnmix, name)


def test_unknown_package_attribute_raises():
    import urnmix

    with pytest.raises(AttributeError, match="no_such_name"):
        urnmix.no_such_name  # noqa: B018
    assert not hasattr(urnmix, "no_such_name")


def test_exact_reexports_the_pure_model_helpers():
    from urnmix import exact, models

    assert exact.SpaceCapError is models.SpaceCapError
    assert exact.space_size is models.space_size
