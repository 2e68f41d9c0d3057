"""The package exports no name that only the tests call.

Every name in haarconc.__all__ must be referenced by a module of the package
other than __init__, outside the name's own definition, unless it belongs to
the paper's API below.  Imports alone do not count: a name that is imported
but never used is not reached.
"""

import ast
from pathlib import Path

import haarconc

PAPER_API = {
    "sample_haar_unitary",
    "sample_reflection_step",
    "sample_haar_permutation",
    "pair_function",
    "compose",
    "invert",
}


def used_names(tree: ast.Module, skip: str) -> set:
    """Names loaded and attributes read anywhere in the module, outside the
    top-level definition called `skip`."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def test_every_export_is_reached_or_paper_api():
    package = Path(haarconc.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"]
    unreached = [name for name in haarconc.__all__
                 if name not in PAPER_API
                 and not any(name in used_names(tree, name) for tree in trees)]
    assert unreached == []
    assert PAPER_API <= set(haarconc.__all__)
