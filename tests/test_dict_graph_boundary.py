"""CSR arrays are the only graph the library runs on: outside a short
allow-list (the dict dataset view the benchmark harness traces and
METIS's coarsening) no module under ``src/repro`` imports the
dictionary graph types."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
DICT_MODULES = {"repro.graph.digraph", "repro.graph.undirected"}
ALLOWED = {
    *(f"graph/{name}.py" for name in ("undirected", "digraph", "conversion", "datasets",
                                     "generators", "csr")),
    *(f"partitioners/{name}.py" for name in ("metis", "wang", "csr_stream")),
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

