import ast
import pathlib

import torsys


def test_no_assert_statements_in_src():
    # assert vanishes under python -O, so invariants in the library raise
    found = []
    for path in sorted(pathlib.Path(torsys.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
