"""Shared fixtures.

The package memoises what it reuses with ``functools`` on the functions that
build it, and every cover of P^n shares those records.  A test that stubs a
builder, or counts what a cold run builds, takes ``fresh_memos``: the memos
are emptied before the test, so the stub really builds, and after it, so no
stubbed record outlives the test.  The fixture's value empties them again
mid-test.
"""

import importlib
import pkgutil

import pytest

import superthick


def package_memos() -> list:
    """Every ``functools`` memo of the package: on module functions and on
    methods of the package's classes."""
    owners = []
    for info in pkgutil.iter_modules(superthick.__path__):
        module = importlib.import_module(f"superthick.{info.name}")
        owners.append(module)
        owners.extend(value for value in vars(module).values()
                      if isinstance(value, type) and value.__module__ == module.__name__)
    return [value for owner in owners for value in vars(owner).values()
            if callable(getattr(value, "cache_clear", None))]


def clear_memos() -> None:
    for memo in package_memos():
        memo.cache_clear()


@pytest.fixture
def fresh_memos():
    clear_memos()
    yield clear_memos
    clear_memos()
