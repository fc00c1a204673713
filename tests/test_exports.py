"""The package's public name list stays in step with its modules."""

import keisler_lab


def test_every_exported_name_resolves():
    names = keisler_lab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(keisler_lab, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from keisler_lab import *", namespace)
    assert set(keisler_lab.__all__) <= set(namespace)
