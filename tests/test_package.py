"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import trivext

PACKAGE = sorted(Path(trivext.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE
           if p.name != "__init__.py"]  # the package re-exports its imports
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))

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


def unread_locals(path: Path) -> list[str]:
    """Names that a function of `path` assigns and that neither it nor a
    function nested in it ever reads.  Names starting with an underscore
    are meant to be unread and are left out, as are names declared global
    or nonlocal."""
    unread = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        unread += [f"{func.name}: {name} (line {line})" for name, line in stored.items()
                   if name not in read and not name.startswith("_")]
    return unread


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_module_reads_every_local(path):
    assert unread_locals(path) == []


def test_detector_flags_an_unread_local(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f(xs):\n    total = 0\n    tok, col = xs\n"
                   "    for k, _v in enumerate(xs):\n        total += k\n"
                   "    def g():\n        return tok\n    return total, g\n\n"
                   "def h():\n    global seen\n    seen = dead = 1\n")
    assert unread_locals(src) == ["f: col (line 3)", "h: dead (line 12)"]


# modules above linalg, which owns the Q / F_p scalar arithmetic
FIELD_FREE = ("algebra", "trivial_extension", "criteria", "corpus", "cli", "quiver")


def _normalizations(tree):
    """(line, text) of every `.numerator` or `.denominator` read and every
    `%` (or `%=`) by `p`, `.p` or `.characteristic` in `tree`."""
    def is_modulus(node):
        return ((isinstance(node, ast.Name) and node.id == "p")
                or (isinstance(node, ast.Attribute) and node.attr in ("p", "characteristic")))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
            yield node.lineno, f".{node.attr}"
        elif (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod)
              and is_modulus(node.right if isinstance(node, ast.BinOp) else node.value)):
            yield node.lineno, ast.unparse(node)


def field_normalizations(path: Path) -> list[str]:
    """The places where `path` normalizes a scalar by hand: a `.numerator`
    or `.denominator` read, or a `%` (or `%=`) by `p`, `.p` or
    `.characteristic`.  Other remainders, such as index wraps `% n`, are
    not scalar arithmetic and are left out."""
    found = sorted(_normalizations(ast.parse(path.read_text())))
    return [f"{text} (line {line})" for line, text in found]


@pytest.mark.parametrize("name", FIELD_FREE)
def test_scalar_arithmetic_lives_in_linalg(name):
    path = Path(trivext.__file__).parent / f"{name}.py"
    assert field_normalizations(path) == []


def test_detector_flags_a_field_normalization(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f(x, p, field, i, n):\n"
                   "    if x.denominator == 1:\n        x = x.numerator\n"
                   "    x %= p\n    y = (x + 1) % field.p\n"
                   "    return y % field.characteristic, (i + 1) % n, '%d' % i\n")
    assert field_normalizations(src) == [
        ".denominator (line 2)", ".numerator (line 3)", "x %= p (line 4)",
        "(x + 1) % field.p (line 5)", "y % field.characteristic (line 6)"]


# the definitions of linalg that may normalize a scalar by hand, each with
# every method of a class listed: the scalar arithmetic, the one sparse
# row kernel, the coercion of the rows an Echelon is given, and the
# integer engine of the bar-complex ranks
LINALG_NORMALIZERS = {"_rational", "GroundField", "combine", "Echelon._sparse",
                      "SparseRank"}


def normalizing_definitions(path: Path) -> set[str]:
    """The innermost definitions of `path`, named as `_definitions` names
    them, that hold a field normalization; one in a dunder method counts
    as its class's."""
    tree = ast.parse(path.read_text())
    spans = [(node.lineno, node.end_lineno, name) for name, node in _definitions(tree)]
    return {max((name for lo, hi, name in spans if lo <= line <= hi),
                key=lambda name: name.count("."), default="<module>")
            for line, _ in _normalizations(tree)}


def test_linalg_normalizes_scalars_in_its_kernels_only():
    # Echelon's row operations go through `combine`; a normalization
    # anywhere else in linalg is a second copy of that arithmetic
    places = normalizing_definitions(Path(trivext.__file__).parent / "linalg.py")
    assert "combine" in places
    assert {place for place in places if place not in LINALG_NORMALIZERS
            and place.partition(".")[0] not in LINALG_NORMALIZERS} == set()


def _definitions(tree):
    """(qualified name, node) of every top-level function and class and of
    every method of a top-level class, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                    yield f"{node.name}.{sub.name}", sub


def _name_uses(tree):
    """(name, line, through an attribute) of every Name, Attribute and
    import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for name in (alias.name.split(".")[-1], alias.asname):
                    yield name, node.lineno, False


def unnamed_definitions(defining: list[Path], reading: list[Path]) -> list[str]:
    """Definitions in the `defining` files whose name the `reading` files
    never mention outside the definition itself.  A method is mentioned
    only as an attribute (`x.name`); a bare name of the same spelling, such
    as a local variable, does not count."""
    uses = {path: list(_name_uses(ast.parse(path.read_text()))) for path in reading}
    unnamed = []
    for path in defining:
        for qualname, node in _definitions(ast.parse(path.read_text())):
            name, method = qualname.split(".")[-1], "." in qualname
            if not any(n == name and (attr or not method)
                       and not (p == path and node.lineno <= line <= node.end_lineno)
                       for p, found in uses.items() for n, line, attr in found):
                unnamed.append(f"{path.stem}.{qualname}")
    return unnamed


# definitions that only the package's re-exports name: API for library
# users, not dead code
LIBRARY_ONLY = {
    # the DSL's inverse, which an emitter of T(A) as .quiver text will call
    "dsl.serialize_presentation",
}


def test_every_definition_is_named():
    # the imports of __init__.py re-export names and do not use them, so
    # that a definition only they name shows up here
    assert set(unnamed_definitions(PACKAGE, MODULES + BENCH)) == LIBRARY_ONLY


def test_detector_flags_an_unnamed_definition(tmp_path):
    mod, user = tmp_path / "mod.py", tmp_path / "user.py"
    mod.write_text("class C:\n    def __init__(self):\n        self.m()\n"
                   "    def m(self):\n        pass\n"
                   "    def lonely(self):\n        return self.lonely()\n"
                   "    def shadowed(self):\n        pass\n\n"
                   "def f():\n    return f()\n\n"
                   "def g():\n    pass\n\n"
                   "def h():\n    pass\n")
    user.write_text("from mod import C as D, g\n\nD().m()\n\n"
                    "def main():\n    shadowed = 1\n    return mod.h, shadowed\n")
    assert unnamed_definitions([mod], [mod, user]) == [
        "mod.C.lonely", "mod.C.shadowed", "mod.f"]
