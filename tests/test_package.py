"""The package's public names."""
import collections

import distlab


def test_every_name_in_all_resolves_and_is_listed_once():
    """``distlab.__all__`` names only what the package has, each once, so
    ``from distlab import *`` never fails on a name that was removed."""
    counts = collections.Counter(distlab.__all__)
    assert [name for name, count in counts.items() if count > 1] == []
    assert [name for name in counts if not hasattr(distlab, name)] == []
