import types

import eulerlab


def test_public_surface_importable():
    for name in eulerlab.__all__:
        assert getattr(eulerlab, name, None) is not None, name


def test_version():
    assert eulerlab.__version__


def test_all_is_the_public_names_once():
    names = eulerlab.__all__
    assert len(names) == len(set(names))
    assert not [n for n in names if isinstance(getattr(eulerlab, n), types.ModuleType)]
    assert [n for n in names if n.startswith("_")] == ["__version__"]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from eulerlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(eulerlab.__all__)
