"""The package's public list: what __init__ imports is exactly what __all__ names."""

import ast
from pathlib import Path

import gwt_lab

INIT = Path(gwt_lab.__file__)


def test_all_matches_the_imported_names():
    tree = ast.parse(INIT.read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(gwt_lab.__all__) == len(set(gwt_lab.__all__))
    assert sorted(imported) == sorted(gwt_lab.__all__)
    for name in gwt_lab.__all__:
        assert hasattr(gwt_lab, name), name
