"""No module of the package imports a sibling module's private names.

A ``_``-prefixed name is private to the module that defines it.  The one
shared private helper is ``permanent._laplace_step``: the Laplace step that
both the ``prk`` walk in ``permanent`` and the enumeration tables in
``_batch`` build on, as both module docstrings say.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "permrank"
ALLOWED = {("permanent", "_laplace_step")}


def sibling_imports(path):
    """``(line, module, name)`` for every name imported from a sibling module,
    at module level or inside a function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("permrank."):
            module = node.module[len("permrank.") :]
        else:
            continue
        for alias in node.names:
            yield node.lineno, module, alias.name


def test_no_private_imports_between_modules():
    offenders = []
    seen_allowed = set()
    for path in sorted(SRC.glob("*.py")):
        for line, module, name in sibling_imports(path):
            if not name.startswith("_"):
                continue
            if (module, name) in ALLOWED:
                seen_allowed.add((module, name))
            else:
                offenders.append(f"{path.name}:{line} imports {module}.{name}")
    assert offenders == []
    # the walk does see relative imports: the one exception is found
    assert seen_allowed == ALLOWED
