"""Every name a ``repro`` package exports in ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_exported_name(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= namespace.keys()
