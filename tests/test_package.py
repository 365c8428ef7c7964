import qspectra


def test_every_exported_name_resolves():
    assert len(set(qspectra.__all__)) == len(qspectra.__all__)
    for name in qspectra.__all__:
        assert hasattr(qspectra, name), name
