"""The package's public surface."""

import graphnest as gn


def test_every_public_name_resolves():
    missing = [name for name in gn.__all__ if not hasattr(gn, name)]
    assert missing == []
    assert len(set(gn.__all__)) == len(gn.__all__)
