import distnewton


def test_every_public_name_is_an_attribute_listed_once():
    names = distnewton.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(distnewton, n)] == []
