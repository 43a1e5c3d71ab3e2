"""Module boundaries of the package.

No module imports a sibling module's private names.  A ``_``-prefixed name is
private to the module that defines it.  The one shared private helper is
``permanent._laplace_step``: the Laplace step that both the ``prk`` walk in
``permanent`` and the enumeration tables in ``_batch`` build on, as both
module docstrings say.

Every import sits at module level, the sibling imports form no cycle, and a
``_``-prefixed attribute is assigned only by its own object, through
``self``.
"""

import ast
import graphlib
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


def sibling_modules(path):
    """The sibling modules that ``path`` imports, at any depth of its tree."""
    siblings = {p.stem for p in SRC.glob("*.py")}
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("permrank."):
            names = [node.module[len("permrank.") :]]
        elif isinstance(node, ast.Import):
            prefix = "permrank."
            names = [a.name[len(prefix) :] for a in node.names if a.name.startswith(prefix)]
        else:
            continue
        found.update(name.split(".")[0] for name in names if name.split(".")[0] in siblings)
    return found


def test_no_imports_inside_functions():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                offenders += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert offenders == []


def test_sibling_imports_have_no_cycle():
    graph = {p.stem: sibling_modules(p) for p in SRC.glob("*.py") if p.stem != "__init__"}
    # the graph is not empty: sampling draws supported members from subspace
    assert "subspace" in graph["sampling"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_private_attributes_are_assigned_only_through_self():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if (
                        isinstance(sub, ast.Attribute)
                        and sub.attr.startswith("_")
                        and not (isinstance(sub.value, ast.Name) and sub.value.id == "self")
                    ):
                        offenders.append(f"{path.name}:{sub.lineno} assigns {sub.attr}")
    assert offenders == []
