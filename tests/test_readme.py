"""The README's Python examples run, and print what their comments say;
its command-line examples run too."""

import ast
import re
import shlex
import shutil
from pathlib import Path

from bstghz.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def python_blocks() -> list[str]:
    return BLOCK.findall(README.read_text(encoding="utf-8"))


def test_readme_has_python_examples():
    assert python_blocks()


def test_readme_python_examples_run():
    for source in python_blocks():
        lines = source.splitlines()
        namespace: dict = {}
        for stmt in ast.parse(source).body:
            code = ast.get_source_segment(source, stmt)
            if not isinstance(stmt, ast.Expr):
                exec(code, namespace)
                continue
            value = eval(code, namespace)
            # an expression line may carry its expected repr as a comment
            _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
            if hash_:
                assert repr(value) == comment.strip(), code


def command_lines() -> list[list[str]]:
    """The ``bstghz`` lines of the "Command line" block, continuations
    joined and comments dropped, as argument lists."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.DOTALL | re.MULTILINE)
    source = block.group(1).replace("\\\n", " ")
    argvs = (shlex.split(line, comments=True) for line in source.splitlines())
    return [argv for argv in argvs if argv and argv[0] == "bstghz"]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    shutil.copytree(README.parent / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    argvs = command_lines()
    assert argvs[0][:3] == ["bstghz", "ghz", "build"]
    for argv in argvs:
        code = main(argv[1:])
        err = capsys.readouterr().err
        assert code in (0, 1) and err == "", (argv, code, err)
