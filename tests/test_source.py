"""Static checks on the package source, by an ast walk (no linter is needed)."""

import ast
import dataclasses
from pathlib import Path

import pytest

import pibounds
from pibounds import bounds, claims

SRC = Path(__file__).resolve().parents[1] / "src" / "pibounds"


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
    assert unused_imports(path) == []


def private_without_caller():
    """Private top-level functions and classes of src that no other top-level
    statement there names, as a Name or an attribute."""
    nodes = [node for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body]
    names = [{getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}
             for node in nodes]
    return sorted(
        node.name for i, node in enumerate(nodes)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and not any(node.name in used for j, used in enumerate(names) if j != i))


def test_every_private_helper_has_a_caller_in_src():
    # a helper that only tests call is code kept for them alone: fold it or delete it
    assert private_without_caller() == []


def bound_constants_in_claims():
    """Float literals of claims.py that equal a nonzero parameter of a builtin
    bound (a field other than name and valid_from), with their line numbers.
    A zero parameter is a term the bound lacks (psi_lower has no log^2 term),
    not a constant a claim could restate."""
    params = {getattr(b, f.name) for b in bounds._builtin_entries() for f in dataclasses.fields(b)
              if f.name not in ("name", "valid_from")} - {0.0}
    tree = ast.parse((SRC / "claims.py").read_text())
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and node.value in params)


def test_claims_names_bounds_and_never_their_constants():
    # a claim that restates 1.11 or c2 checks its own copy, not the number the
    # scans run with; ints stay out, as the one flip a crossover expects equals
    # psi_upper's offset
    assert bound_constants_in_claims() == []


def unread_payload_keys():
    """Keys of the builtin_claims() payloads that no string constant of
    claims.py names outside builtin_claims and the docstrings."""
    tree = ast.parse((SRC / "claims.py").read_text())
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
            and ast.get_docstring(node) is not None}
    named = {node.value for top in tree.body if getattr(top, "name", None) != "builtin_claims"
             for node in ast.walk(top) if isinstance(node, ast.Constant)
             and type(node.value) is str and id(node) not in docs}
    return sorted({key for claim in claims.builtin_claims() for key in claim.payload} - named)


def test_every_payload_key_is_read_by_claims():
    # a key that no code reads states a fact that nothing checks
    assert unread_payload_keys() == []


def unread_claim_fields():
    """Fields of claims.Claim that no attribute access in src reads."""
    read = {node.attr for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    return sorted({f.name for f in dataclasses.fields(claims.Claim)} - read)


def test_every_claim_field_is_read_in_src():
    # a field that no code reads, as a key no code reads, states a fact that nothing checks
    assert unread_claim_fields() == []


def constants_read_away():
    """Upper-case module constants of src that another src module reads, by
    import or as an attribute, apart from DEFAULT_CAP, public API, and
    PSI_ERR_FACTOR, the guard that scan puts on primes' psi sums."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = {stem: {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                      for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                      if isinstance(t, ast.Name) and t.id.isupper()}
               for stem, tree in trees.items()}
    read = set()
    for stem, tree in trees.items():
        theirs = set().union(*(names for other, names in defined.items() if other != stem))
        theirs -= defined[stem]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read |= {node.attr} & theirs
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names} & theirs
    return sorted(read - {"DEFAULT_CAP", "PSI_ERR_FACTOR"})


def test_module_constants_are_read_at_home():
    # a constant another module reads splits one decision between two places
    assert constants_read_away() == []


def exports_unread_in_src():
    """Names of pibounds.__all__ that no src module other than __init__ reads,
    as a Name or an attribute."""
    read = {getattr(node, "id", None) or getattr(node, "attr", None)
            for path in SRC.glob("*.py") if path.stem != "__init__"
            for node in ast.walk(ast.parse(path.read_text()))}
    return sorted(set(pibounds.__all__) - read)


def test_every_export_is_read_in_src():
    # a name the package exports and never uses itself is API kept for
    # callers outside it: it lives in its module, not in the package root
    assert exports_unread_in_src() == []
