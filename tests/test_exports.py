"""Every exported name resolves, so a deletion cannot leave an export behind.

The package resolves its exports lazily, from their home submodules.  The
README's library quick start runs as written and prints what it promises.
"""

import importlib
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

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


def test_readme_quick_start_prints_its_comments(capsys):
    """The first five prints of the quick start print their `# <literal>` comments."""
    section = README.read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[:5] == ["31/162", "0.0523890600169058", "0.22888656582880917", "5", "65"]
