"""The package's public names."""

import spinpair


def test_every_exported_name_resolves_once():
    assert len(spinpair.__all__) == len(set(spinpair.__all__))
    for name in spinpair.__all__:
        assert hasattr(spinpair, name), name
