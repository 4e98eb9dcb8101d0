"""The package's public surface: every exported name exists."""

import eulersum


def test_every_exported_name_resolves():
    missing = [name for name in eulersum.__all__ if not hasattr(eulersum, name)]
    assert missing == []
    assert len(set(eulersum.__all__)) == len(eulersum.__all__)


def test_star_import():
    namespace = {}
    exec("from eulersum import *", namespace)
    assert set(eulersum.__all__) <= namespace.keys()
