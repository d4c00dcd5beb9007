"""The README's Python examples run, in order and in one namespace, and
each `# value` comment on an expression line equals that line's value."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _comments(source: str) -> dict[int, str]:
    """The text of the comment on each line that has one, by line number."""
    return {tok.start[0]: tok.string[1:].strip()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT}


def test_readme_examples_have_their_commented_values():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    namespace: dict = {}
    checked = 0
    for source in blocks:
        comments = _comments(source)
        for node in ast.parse(source).body:
            comment = comments.get(node.end_lineno)
            if comment is None:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
                continue
            line = ast.unparse(node)
            assert isinstance(node, ast.Expr), f"{line}: a value comment needs an expression"
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert value == eval(comment, namespace), f"{line} = {value!r}, not {comment}"
            checked += 1
    assert checked
