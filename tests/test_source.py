"""Static checks on the package source, by an ast walk (no linter is needed)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pibounds"

# (module, name) imported and never used there, each with the reason it stays
KEPT = {
    ("scan", "evaluate"): "bench/tracer.py patches scan.evaluate; ROADMAP item 1 removes it",
}


def unused_imports(path):
    """Names path imports and never reads, apart from those its __all__ re-exports."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", [])] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    # a name kept on purpose must still be unused, so a stale entry shows too
    assert unused_imports(path) == sorted(n for m, n in KEPT if m == path.stem)
