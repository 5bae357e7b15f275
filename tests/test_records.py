"""Record types: only a record that validates in __post_init__ is a dataclass."""

import dataclasses
import importlib
import pkgutil

import pzbeam


def test_every_dataclass_has_its_own_post_init():
    # building a dataclass costs about 1 ms of every CLI start, so a plain
    # record is a typing.NamedTuple
    found = []
    for info in pkgutil.iter_modules(pzbeam.__path__):
        module = importlib.import_module(f"pzbeam.{info.name}")
        found += [obj for obj in vars(module).values() if isinstance(obj, type)
                  and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)]
    assert found
    assert [cls.__qualname__ for cls in found if "__post_init__" not in vars(cls)] == []
