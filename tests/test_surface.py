"""The library's public names are what its own modules run."""

import ast
from pathlib import Path

import pytest

import geoverify
from geoverify import metrics, tc


def test_every_public_name_has_a_caller_in_the_package():
    """A name of ``geoverify.__all__`` that no module of the package refers to ships
    only for its tests; a fixture builder belongs in ``tests/``.

    ``metrics.psnr``, ``metrics.pointwise_rmse`` and ``tc.track_cyclone`` have no
    caller in the package and are not exported: they remain as module functions only
    for bench/tracer.py, which wraps them, until ROADMAP item 3's bench half deletes
    them together with the tracer's wraps.
    """
    package = Path(geoverify.__file__).parent
    referenced = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert set(geoverify.__all__) - referenced == set()


@pytest.mark.parametrize("module, name", [
    (metrics, "psnr"), (metrics, "pointwise_rmse"), (tc, "track_cyclone"),
])
def test_the_traced_functions_live_in_their_modules_only(module, name):
    assert callable(getattr(module, name))
    with pytest.raises(AttributeError):
        getattr(geoverify, name)


def test_every_exported_name_resolves():
    namespace = {}
    exec("from geoverify import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(geoverify.__all__)
