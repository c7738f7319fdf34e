"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import trivext

MODULES = sorted(p for p in Path(trivext.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # the package re-exports its imports

# (module, name) pairs imported without being used
UNUSED_ALLOWED = {
    # bench/test_bench.py asserts that the tracer patches this binding of
    # `compose`, so it must stay although the module never calls it
    ("trivial_extension", "compose"),
}


def _annotation_names(tree):
    """Names inside string annotations, such as -> "Echelon"."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in
                            args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg] if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield from (n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                            if isinstance(n, ast.Name))


def unused_imports(path: Path) -> list[str]:
    """Names bound by an import statement of `path` that its code never
    reads and its `__all__` does not list."""
    tree = ast.parse(path.read_text())
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_annotation_names(tree))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used | exported
            and (path.stem, name) not in UNUSED_ALLOWED]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path) == []


def test_detector_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "import os\nfrom dataclasses import dataclass, field\n"
                   "from math import gcd\n__all__ = ['gcd']\n\n"
                   "def f(x: 'Path') -> field:\n    return os.sep\n")
    assert unused_imports(src) == ["dataclass (line 3)"]
