"""README's python examples run as written and state what they print: each
bare expression of a block carries a comment that opens with the value's
repr."""
import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_state_their_values():
    stated = []
    for block in re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        lines, namespace = block.splitlines(), {}
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
                comment = lines[node.end_lineno - 1].partition("#")[2].strip()
                assert comment.startswith(repr(value)), (ast.unparse(node), value, comment)
                stated.append(repr(value))
            else:
                exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
    assert {"StateType(p=5, q=5)", "(25, 25, 1)"} <= set(stated), stated
