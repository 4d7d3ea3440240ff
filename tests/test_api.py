import circpart as cp


def test_every_exported_name_resolves_once():
    assert len(cp.__all__) == len(set(cp.__all__))
    assert [name for name in cp.__all__ if not hasattr(cp, name)] == []
