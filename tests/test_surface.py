"""The library's public names are what its own modules run."""

import ast
from pathlib import Path

import geoverify


def test_every_public_name_but_the_traced_three_has_a_caller_in_the_package():
    """A name of ``geoverify.__all__`` that no module of the package refers to ships
    only for its tests; a fixture builder belongs in ``tests/``.

    ``psnr``, ``pointwise_rmse`` and ``track_cyclone`` have no caller in the package
    but stay while bench/tracer.py wraps them: ROADMAP item 3 deletes them together
    with the tracer's wraps.
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
    assert set(geoverify.__all__) - referenced == {"psnr", "pointwise_rmse", "track_cyclone"}
