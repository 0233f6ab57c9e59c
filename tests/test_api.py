import twinrep


def test_all_names_resolve():
    missing = [name for name in twinrep.__all__ if not hasattr(twinrep, name)]
    assert missing == []
