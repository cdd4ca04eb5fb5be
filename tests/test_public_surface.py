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
