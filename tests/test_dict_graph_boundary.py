"""CSR arrays are the only graph the library runs on, and label arrays
the only assignments: outside a short allow-list (the dict dataset view
and the dict partitioning writer the benchmark harness traces) no module
under ``src/repro`` imports the dictionary graph types, and no function
takes a ``{vertex: partition}`` mapping or a per-vertex placement
callable."""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
DICT_MODULES = {"repro.graph.digraph", "repro.graph.undirected"}
ALLOWED = {
    f"graph/{name}.py"
    for name in ("undirected", "digraph", "conversion", "datasets", "generators", "csr")
}


def _imported_modules(path: Path) -> set[str]:
    """Every module an ``import`` statement in ``path`` names, at any depth."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_only_the_allow_list_imports_the_dict_graphs():
    offenders = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if str(path.relative_to(SRC)) not in ALLOWED
        and _imported_modules(path) & DICT_MODULES
    )
    assert offenders == []



#: Functions outside :data:`ALLOWED` that may take a dictionary assignment.
ALLOWED_FUNCTIONS = {"graph/io.py::write_partitioning"}
#: A ``{vertex: partition}`` mapping or a per-vertex placement callable.
DICT_ASSIGNMENT = re.compile(
    r"\b(Mapping|dict|Dict)\[int, int\]|\bCallable\[\[int\], int\]|\bPlacementFn\b"
)


def _dict_assignment_aliases(trees) -> set[str]:
    """Module-level names bound to a dictionary-assignment type anywhere in ``src``."""
    aliases = {"PlacementFn"}
    for tree in trees:
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if any(isinstance(t, ast.Name) for t in targets) and DICT_ASSIGNMENT.search(
                ast.unparse(value)
            ):
                aliases.update(t.id for t in targets if isinstance(t, ast.Name))
    return aliases


def _parameters(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.arg]:
    args = function.args
    extra = [arg for arg in (args.vararg, args.kwarg) if arg is not None]
    return [*args.posonlyargs, *args.args, *args.kwonlyargs, *extra]


def test_no_function_takes_a_dict_assignment_or_placement_callable():
    trees = {
        str(path.relative_to(SRC)): ast.parse(path.read_text(encoding="utf-8"))
        for path in SRC.rglob("*.py")
    }
    aliases = _dict_assignment_aliases(trees.values())
    alias_pattern = re.compile(r"\b(" + "|".join(sorted(aliases)) + r")\b")
    offenders = []
    for module, tree in sorted(trees.items()):
        if module in ALLOWED:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if f"{module}::{node.name}" in ALLOWED_FUNCTIONS:
                continue
            for arg in _parameters(node):
                if arg.annotation is None:
                    continue
                text = ast.unparse(arg.annotation)
                if DICT_ASSIGNMENT.search(text) or alias_pattern.search(text):
                    offenders.append(f"{module}::{node.name}({arg.arg}: {text})")
    assert offenders == []
