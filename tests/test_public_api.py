"""The README's "Library surface" import block runs, and every name it
documents is exported through ``probud.__all__``; each ``$ probud ...``
CLI example prints what the README shows; the instance file shown in the
``probud.harness`` docstring parses."""

import ast
import contextlib
import io
import pathlib
import re
import shlex
import textwrap

import pytest

import probud
from probud.cli import main
from probud.harness import parse_instance_file

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


def _cli_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ probud ...`` command of the README's CLI examples with the
    lines shown under it, up to the next blank line."""
    section = README.read_text().split("Examples, using the bundled fixtures:", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    examples = [example.partition("\n") for example in block.strip().split("\n\n")]
    assert examples and all(command.startswith("$ probud ") for command, _, _ in examples)
    return [(command[2:], shown.splitlines()) for command, _, shown in examples]


CLI_EXAMPLES = _cli_examples()


@pytest.mark.parametrize("command, shown", CLI_EXAMPLES, ids=[command.split()[1] for command, _ in CLI_EXAMPLES])
def test_readme_cli_example_prints_what_it_shows(monkeypatch, command, shown):
    # a trailing "; echo $?" shows the exit code as the last line; without
    # it the command must succeed
    command, echo, _ = command.partition(" ; echo $?")
    argv = shlex.split(command)
    assert argv[0] == "probud"
    expected_code = 0
    if echo:
        shown, expected_code = shown[:-1], int(shown[-1])
    monkeypatch.chdir(README.parent)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv[1:])
    assert code == expected_code
    # a "..." line stands for any number of printed lines
    pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n" for line in shown)
    assert re.fullmatch(pattern, out.getvalue()), out.getvalue()


def test_harness_docstring_example_is_the_fixture_it_names():
    # it used to carry inline "# ..." notes, which the parser reads as
    # part of a line, and declared m = 3 over a single item
    doc = probud.harness.__doc__
    assert "``fixtures/ex1.pb``::" in doc
    example = textwrap.dedent(doc.split("``fixtures/ex1.pb``::\n\n", 1)[1].split("\n\n", 1)[0])
    fixture = (README.parent / "fixtures" / "ex1.pb").read_text(encoding="utf-8")
    assert example.strip() == fixture.strip()
    assert parse_instance_file(example) == parse_instance_file(fixture)
