"""Static checks on the package source: no module-level private name is dead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "birkhoff_attn"


def private_definitions(tree: ast.Module):
    """Module-level ``_name`` functions, classes and constants (dunders excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the tree, as bare names or as attributes.

    An import alone is not a use: the importing module must read the name too.
    """
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private definition that no source reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*(used_names(tree) for tree in trees.values()))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in private_definitions(tree) if name not in used)


def test_every_private_name_in_src_is_used():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 1
    assert dead_private_names(sources) == []


def test_the_check_finds_dead_names():
    sources = {
        "a": "_CONST = 1\n_dead: int = 2\ndef _helper(): return _CONST\n"
             "class _Unused: pass\ndef public(): return _helper()\n__all__ = ['public']\n",
        "b": "from .a import _dead\nimport a\nx = a._helper\n",
    }
    assert dead_private_names(sources) == ["a._Unused", "a._dead"]
