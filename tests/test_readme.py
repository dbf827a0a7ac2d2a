"""The README's Python examples run, and print what their comments say."""

import ast
import re
from pathlib import Path

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
