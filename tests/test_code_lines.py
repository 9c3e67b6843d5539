"""``tools/code_lines.py``: the code-line counter CI prints for ``src/egmin``."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
)
code_lines_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines_module)
code_lines = code_lines_module.code_lines


@pytest.mark.parametrize(
    "source, expected",
    [
        ("", 0),
        ("\n\n# a comment\n\n", 0),
        ("x = 1  # a comment\n\n# another\ny = 2\n", 2),
        ('"""Module.\n\nMore about it.\n"""\nx = 1\n', 1),
        ('class A:\n    """Class.\n\n    More.\n    """\n\n    x = 1\n', 2),
        ('def f():\n    "Function."\n    return 1\n', 2),
        ('async def f():\n    """Coroutine."""\n    return 1\n', 2),
        ('def f():\n    "Implicitly " "joined."\n    return 1\n', 2),
        # A docstring shares its line with other code: the line counts.
        ('def f(): "doc"\n', 1),
        ('class A:\n    """doc"""; x = 1\n', 2),
        # Columns past non-ASCII text: ast counts UTF-8 bytes, tokenize characters.
        ('class A:\n    "\u00e9\u00e9\u00e9"; x\n', 2),
        # A string expression that is not a first statement is code.
        ('x = 1\n"not a docstring"\n', 2),
        ('def f():\n    x = 1\n    """Not a docstring."""\n    return x\n', 4),
        # Each line of a string token spanning several lines counts.
        ('x = """a\nb\nc"""\n', 3),
        # Continued statements count every line.
        ("x = (1 +\n     2)\n", 2),
        ("x = 1 + \\\n    2\n", 2),
    ],
)
def test_counts(source, expected):
    assert code_lines(source) == expected


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "pkg" / "b.py").write_text("def f():\n    return 2\n")
    assert code_lines_module.main([str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["1", "2", "3"]
    assert out[-1].split()[1] == "total"
