"""Every file under ``src/probud`` and ``tests`` parses under the oldest
Python that ``pyproject.toml`` admits.  This is best-effort: ``ast.parse``
with ``feature_version`` rejects newer syntax, not library APIs added
after that version.  No module under ``src/probud`` calls the builtin
``sum``, whose float result changed in Python 3.12."""

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


def test_the_package_calls_no_builtin_sum():
    # from Python 3.12 on the builtin sum compensates float rounding, so a
    # total it forms can differ by an ulp from the ascending left fold that
    # the subset walk, the doublings and model.fits rely on
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "probud").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert not calls, f"add float totals with functools.reduce(operator.add, ..., 0.0), not sum: {calls}"
