"""Every public module-level function and class in `vem` has a caller
outside the test suite: another `vem` module, its own module, or the
benchmark. A name only tests reach is dead weight in the package."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vem"


def _public_defs(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def test_public_names_have_non_test_callers():
    modules = {p: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py")))
    unused = []
    for path, text in modules.items():
        for name in _public_defs(ast.parse(text)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if len(word.findall(text)) > 1 or word.search(bench):
                continue
            if any(word.search(other) for p, other in modules.items() if p != path):
                continue
            unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names with no caller outside tests: {unused}"


def _dataclass_fields(tree):
    """(class node, field names) of each `@dataclasses.dataclass` class."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            out.append((node, [s.target.id for s in node.body
                               if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]))
    return out


def _attribute_reads(tree, own_self):
    """Names read as `x.name`; reads through `self` count only when
    `own_self` is set (inside the dataclass that owns the field)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and (own_self or not (isinstance(node.value, ast.Name) and node.value.id == "self"))}


def test_dataclass_fields_are_read():
    """Every field of a `vem` dataclass is read as `.name` somewhere in the
    package or the benchmark; a field only tests read is dead weight."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    reads = set().union(*(_attribute_reads(t, False) for t in trees.values()))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, fields in _dataclass_fields(trees[path]):
            own = _attribute_reads(cls, True)
            unread += [f"{path.stem}.{cls.name}.{f}" for f in fields if f not in reads | own]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def _fields_set(tree, name, fields):
    """Fields of dataclass `name` that `tree` sets: passed by keyword or by
    position to a `name(...)` call, or assigned as `x.field = ...` (stores
    through `self` belong to the class that runs them, not to the dataclass)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            out.update(fields[:len(node.args)])
            out.update(kw.arg for kw in node.keywords if kw.arg)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and getattr(node.value, "id", None) != "self":
            out.add(node.attr)
    return out


def _defaulted(cls):
    """Fields of a dataclass node that carry a default value."""
    return [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)
            and isinstance(s.target, ast.Name) and s.value is not None]


def test_defaulted_dataclass_fields_are_set():
    """Every defaulted field of a `vem` dataclass is set by some code in the
    package or the benchmark; a default nothing overrides is a constant
    dressed as a knob, and belongs in the code that uses it."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, fields in _dataclass_fields(trees[path]):
            seen = set().union(*(_fields_set(t, cls.name, fields) for t in trees.values()))
            never += [f"{path.stem}.{cls.name}.{f}" for f in _defaulted(cls)
                      if f not in seen]
    assert not never, f"defaulted dataclass fields nothing sets: {never}"
