"""Checks on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multireg"


def test_every_private_def_is_referenced():
    """A private module-level or class-level function or class that no
    name, attribute or import in the package refers to is dead code,
    such as a helper left behind when its job moved elsewhere."""
    defs = []
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in [tree] + [n for n in tree.body
                               if isinstance(n, ast.ClassDef)]:
            for node in scope.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                        and node.name.startswith("_")
                        and not node.name.endswith("__")):
                    defs.append(f"{path.name}:{node.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
    assert defs
    assert [d for d in defs if d.split(":")[1] not in used] == []
