import lbgame


def test_public_names_resolve_once_in_sorted_order():
    names = lbgame.__all__
    assert all(hasattr(lbgame, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from lbgame import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lbgame.__all__)
