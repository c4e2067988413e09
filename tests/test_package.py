"""The package's public names, and what each entry point loads."""
import collections
import importlib
import subprocess
import sys

import pytest

import distlab


def test_every_name_in_all_resolves_and_is_listed_once():
    """``distlab.__all__`` names only what the package has, each once, so
    ``from distlab import *`` never fails on a name that was removed."""
    counts = collections.Counter(distlab.__all__)
    assert [name for name, count in counts.items() if count > 1] == []
    assert [name for name in counts if not hasattr(distlab, name)] == []
    namespace = {}
    exec("from distlab import *", namespace)
    assert all(namespace[name] is getattr(distlab, name) for name in distlab.__all__)


def test_each_export_is_its_defining_submodules_object():
    """A name resolves, on first access, to the very object its submodule
    defines, and stays bound on the package after that."""
    for name, owner in distlab._OWNER.items():
        module = importlib.import_module(f"distlab.{owner}")
        value = getattr(distlab, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
        assert vars(distlab)[name] is value, name
    assert set(distlab.__all__) == {*distlab._OWNER, "__version__"}


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'distlab' has no attribute 'no_such_name'"):
        distlab.no_such_name
    assert not hasattr(distlab, "matrix_diameter")


def test_dir_lists_every_public_name():
    assert set(distlab.__all__) <= set(dir(distlab))


def _newly_loaded(statement: str) -> set[str]:
    """Modules that ``statement`` loads in a fresh interpreter, against the
    ones that interpreter had loaded at start-up (``site`` may preload some)."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _submodules(loaded: set[str]) -> set[str]:
    return {name.removeprefix("distlab.") for name in loaded if name.startswith("distlab.")}


def test_package_import_loads_no_submodule():
    assert "distlab" in _newly_loaded("import distlab")
    assert _submodules(_newly_loaded("import distlab")) == set()


def test_census_import_loads_only_the_census_layers():
    """The census runs no SAT layer, no bounds and no dataclass."""
    loaded = _newly_loaded("import distlab.enumeration")
    assert _submodules(loaded) == {"_kernels", "graphs", "canon", "enumeration"}
    assert loaded.isdisjoint({"dataclasses", "inspect"})
    assert _submodules(_newly_loaded("from distlab import survey")) == _submodules(loaded)


def test_search_import_loads_no_census_or_stream_layer():
    loaded = _submodules(_newly_loaded("import distlab.sat.search"))
    assert "sat.search" in loaded
    assert loaded.isdisjoint({"enumeration", "canon", "bounds", "graph6", "cli"})


@pytest.mark.parametrize("module", ["distlab.sat.search", "distlab.bounds", "distlab.cli"])
def test_search_bounds_and_cli_load_no_dataclass(module):
    """The outcomes, params and bound report are plain records, so no entry
    point pays for ``dataclasses`` and the ``inspect`` it pulls in."""
    assert _newly_loaded(f"import {module}").isdisjoint({"dataclasses", "inspect"})
