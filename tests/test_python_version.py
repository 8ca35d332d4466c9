"""Every file under ``src/probud`` and ``tests`` parses under the oldest
Python that ``pyproject.toml`` admits.  This is best-effort: ``ast.parse``
with ``feature_version`` rejects newer syntax, not library APIs added
after that version."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sources_parse_under_the_oldest_supported_python():
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert floor, "pyproject.toml states no requires-python floor of the form >=3.N"
    version = (3, int(floor.group(1)))
    paths = sorted([*(ROOT / "src" / "probud").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(paths) > 15
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
