"""Every annotation and every export in the package resolves: the modules
use postponed evaluation, so a name missing from a module's imports only
shows up when the hints are read, and a stale `__all__` entry only when
someone star-imports the module."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import normbits

MODULES = sorted(m.name for m in pkgutil.iter_modules(normbits.__path__))


def _functions(module):
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                attr = attr.fget if isinstance(attr, property) else attr
                attr = getattr(attr, "__func__", attr)
                if inspect.isfunction(attr):
                    yield attr


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(f"normbits.{name}")
    functions = list(_functions(module))
    assert functions
    for func in functions:
        typing.get_type_hints(func)


@pytest.mark.parametrize("name", ["normbits"] + [f"normbits.{m}" for m in MODULES])
def test_exports_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
