import ndtcache


def test_every_exported_name_resolves_once():
    assert len(ndtcache.__all__) == len(set(ndtcache.__all__))
    for name in ndtcache.__all__:
        assert hasattr(ndtcache, name), name
