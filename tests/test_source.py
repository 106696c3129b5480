"""Static checks on the source: no dead module-level private name, no scipy import,
test oracles that share no code with the package, operator names spelled only in
the operator table, matrix text parsed only in core.py, no read of argparse's
private action list, and an export list that is the package's imports, sorted."""

import ast
from pathlib import Path

import birkhoff_attn
from birkhoff_attn import OPERATOR_NAMES

SRC = Path(__file__).resolve().parents[1] / "src" / "birkhoff_attn"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
PACKAGE = SRC.name


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


def imports(tree: ast.Module):
    """Absolute module names a source imports anywhere, inside functions too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def scipy_imports(sources: dict[str, str]) -> list[str]:
    """``module: name`` of each scipy module a source imports."""
    return sorted(f"{module}: {name}" for module, text in sources.items()
                  for name in imports(ast.parse(text))
                  if name == "scipy" or name.startswith("scipy."))


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


def test_no_module_in_src_imports_scipy_at_import_time():
    # nor later: a function-local import counts too, so no route loads scipy
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 1
    assert scipy_imports(sources) == []


def test_the_check_finds_import_time_scipy():
    sources = {
        "a": "import numpy as np\nimport scipy\nfrom scipy.linalg import cho_solve\n"
             "import scipyx, scipy.stats as st\nfrom . import scipy\n",
        "b": "try:\n    from scipy import special\nexcept ImportError:\n    pass\n"
             "class C:\n    import scipy.sparse\n",
        "c": "def f():\n    from scipy.linalg import cho_factor\n    return cho_factor\n"
             "g = lambda: __import__('scipy')\n",
    }
    assert scipy_imports(sources) == [
        "a: scipy", "a: scipy.linalg", "a: scipy.stats", "b: scipy", "b: scipy.sparse",
        "c: scipy.linalg"]


def package_imports(text: str) -> list[str]:
    """Each import of the package in a source, at any depth; a relative import counts too."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == PACKAGE]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == PACKAGE:
                found.append(module)
    return sorted(found)


def test_the_oracles_import_nothing_from_the_package():
    assert package_imports(ORACLES.read_text()) == []


def test_the_check_finds_package_imports():
    text = (f"import numpy as np, {PACKAGE}.core\n"
            f"from {PACKAGE} import project\n"
            "from . import sibling\n"
            f"import {PACKAGE}x\n"
            "def f():\n"
            f"    from {PACKAGE}.qontot import _run\n"
            "    return _run\n")
    assert package_imports(text) == sorted([f"{PACKAGE}.core", PACKAGE, ".", f"{PACKAGE}.qontot"])


# decomposition_check's own helpers: the dense merge, the census, the column sort, the key range
DECOMPOSITION_HELPERS = {"_merge", "_census", "_sort_columns", "_key_space"}


def reached(text: str, roots: list[str]) -> set[str]:
    """Module-level functions that ``roots`` read, directly or through one another."""
    functions = {node.name: node for node in ast.parse(text).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(used_names(functions[name]) & functions.keys())
    return seen - set(roots)


def test_the_pruned_count_reaches_no_decomposition_helper():
    # count_brute is the reference decomposition_check asserts against, so the
    # two routes share no classification code
    text = (SRC / "counting.py").read_text()
    assert DECOMPOSITION_HELPERS <= reached(text, ["decomposition_check"])
    assert reached(text, ["count_brute", "_completions"]) & DECOMPOSITION_HELPERS == set()


def test_the_check_finds_a_helper_reached_through_another():
    text = ("def _merge(hist): pass\n"
            "def _step(x): return _merge(x)\n"
            "def count_brute(): return [_step]\n"
            "def _completions(): return _rows()\n"
            "def _rows(): pass\n"
            "def decomposition_check(): return _census()\n"
            "def _census(): pass\n")
    assert reached(text, ["count_brute", "_completions"]) == {"_step", "_merge", "_rows"}


def name_literals(sources: dict[str, str], names) -> list[str]:
    """``module: literal`` of each string constant in a source equal to one of ``names``.

    Docstrings (bare string statements) and pieces of f-strings do not count,
    nor do longer strings that merely mention a name.
    """
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        skip = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        skip |= {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                 for part in node.values}
        found += [f"{module}: {node.value}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and id(node) not in skip
                  and isinstance(node.value, str) and node.value in names]
    return sorted(found)


def test_only_the_operator_table_spells_an_operator_name():
    # every other module names an operator through its spec (or SPECS), so a
    # renamed or added operator is edited in operators.py alone
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
               if path.stem != "operators"}
    assert len(sources) > 1
    assert name_literals(sources, OPERATOR_NAMES) == []


def test_the_check_finds_operator_name_literals():
    sources = {
        "a": '"""Uses qr."""\nNAMES = ("qr", "softmax")\nHELP = "the qr operator"\n',
        "b": 'def f(name):\n    """qr"""\n    return name == "qr" or {"qr": 1}\n',
        "c": 'x = f"{1}qr"\n"qr"\nclass C:\n    name = "softmax"\n',
    }
    assert name_literals(sources, ("qr", "softmax")) == [
        "a: qr", "a: softmax", "b: qr", "b: qr", "c: softmax"]


_PARSERS = {("np", "loadtxt"), ("numpy", "loadtxt"), ("json", "load"), ("json", "loads")}


def parser_calls(sources: dict[str, str]) -> list[str]:
    """``module: call`` of each np.loadtxt, json.load or json.loads call in a source."""
    return sorted(f"{module}: {node.func.value.id}.{node.func.attr}"
                  for module, text in sources.items() for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)
                  and (node.func.value.id, node.func.attr) in _PARSERS)


def test_only_core_parses_matrix_input():
    # files and stdin share core's one read path, so every input reads alike
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
               if path.stem != "core"}
    assert len(sources) > 1
    assert parser_calls(sources) == []


def test_the_check_finds_parser_calls():
    sources = {
        "a": "import numpy as np\ndef f(p):\n    return np.loadtxt(p, delimiter=',')\n",
        "b": "import json\nx = json.loads('1')\ndef g(fh):\n    return json.load(fh)\n",
        "c": "import json\njson.dump({}, out)\nnp.savetxt(out, m)\nloads = 1\n",
    }
    assert parser_calls(sources) == ["a: np.loadtxt", "b: json.load", "b: json.loads"]


def attribute_reads(sources: dict[str, str], attribute: str) -> list[str]:
    """``module: line`` of each ``x.attribute`` in a source, or of a string naming it."""
    return sorted(f"{module}: {node.lineno}" for module, text in sources.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Attribute) and node.attr == attribute
                  or isinstance(node, ast.Constant) and node.value == attribute)


def test_no_module_in_src_reads_argparse_actions():
    # the CLI's flags are its own table, so nothing rebuilds them from the parser
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 1
    assert attribute_reads(sources, "_actions") == []


def test_the_check_finds_actions_reads():
    sources = {
        "a": "def f(sub):\n    return [a.dest for a in sub._actions]\n",
        "b": "x = getattr(p, '_actions')\ny = p._actions_seen\nz = '_actions here'\n"
             "p._actions = []\n",
    }
    assert attribute_reads(sources, "_actions") == ["a: 2", "b: 1", "b: 4"]


def export_faults(text: str, exported: list[str]) -> list[str]:
    """How ``exported`` departs from the names ``text`` imports, sorted, then ``__version__``."""
    want = sorted(alias.asname or alias.name for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for alias in node.names) + ["__version__"]
    faults = [f"not imported: {name}" for name in exported if name not in want]
    faults += [f"not exported: {name}" for name in want if name not in exported]
    return faults or (["out of order"] if exported != want else [])


def test_the_export_list_is_the_sorted_imports():
    # nothing else reads __all__ but a star import, so a stale entry would fail only there
    text = (SRC / "__init__.py").read_text()
    assert len(birkhoff_attn.__all__) > 1
    assert export_faults(text, birkhoff_attn.__all__) == []


def test_the_check_finds_export_faults():
    text = "from .a import f, g\nfrom .b import h as k\n__version__ = '1'\n"
    assert export_faults(text, ["f", "g", "k", "__version__"]) == []
    assert export_faults(text, ["f", "k", "old", "__version__"]) == [
        "not imported: old", "not exported: g"]
    assert export_faults(text, ["f", "g", "k"]) == ["not exported: __version__"]
    assert export_faults(text, ["g", "f", "k", "__version__"]) == ["out of order"]
    assert export_faults(text, ["__version__", "f", "g", "k"]) == ["out of order"]
