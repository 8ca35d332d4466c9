"""The README's "Library surface" import block runs, and every name it
documents is exported through ``probud.__all__``."""

import ast
import pathlib

import probud

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_surface_block() -> str:
    section = README.read_text().split("## Library surface", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_surface_block_executes():
    namespace: dict = {}
    exec(_library_surface_block(), namespace)
    assert callable(namespace["check_axiom"])


def test_readme_library_surface_names_are_in_all():
    tree = ast.parse(_library_surface_block())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.module == "probud" for node in imports)
    names = [alias.name for node in imports for alias in node.names]
    assert len(names) > 20
    assert sorted(set(names) - set(probud.__all__)) == []
