"""Every public module-level function and class in `vem`, and every public
method and property of its public classes, has a caller outside the test
suite: another `vem` module, its own module, or the benchmark. A name only
tests reach is dead weight in the package."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vem"


def _public_defs(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _public_methods(tree):
    """(class, method) of each public method and property of a module's
    public classes."""
    return [(node.name, f.name) for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def test_public_names_have_non_test_callers():
    """A module-level name is used when its word appears twice in its own
    module or once in another module or the benchmark; a method or property
    when some `x.name` in the package or the benchmark reads it."""
    modules = {p: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    bench_paths = sorted((ROOT / "bench").glob("*.py"))
    bench = "\n".join(p.read_text(encoding="utf-8") for p in bench_paths)
    trees = {p: ast.parse(text) for p, text in modules.items()}
    reads = set().union(*(_attribute_reads(t, True) for t in trees.values()),
                        *(_attribute_reads(ast.parse(p.read_text(encoding="utf-8")), True)
                          for p in bench_paths))
    unused = []
    for path, text in modules.items():
        for name in _public_defs(trees[path]):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if len(word.findall(text)) > 1 or word.search(bench):
                continue
            if any(word.search(other) for p, other in modules.items() if p != path):
                continue
            unused.append(f"{path.stem}.{name}")
        unused += [f"{path.stem}.{cls}.{name}" for cls, name in _public_methods(trees[path])
                   if name not in reads]
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


def _signatures(tree):
    """(qualified name, name a call uses, positional parameters, defaulted
    parameters) of each public function of a module and each public method,
    `__init__` and `__call__` of its public classes. A constructor is called
    by its class name; a `__call__` by no name (None), so only keywords can
    be matched to it."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append((node.name, node.name, node.args, 0))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and (
                        not f.name.startswith("_") or f.name in ("__init__", "__call__")):
                    called = {"__init__": node.name, "__call__": None}.get(f.name, f.name)
                    static = any("staticmethod" in ast.unparse(d) for d in f.decorator_list)
                    out.append((f"{node.name}.{f.name}", called, f.args, 0 if static else 1))
    sigs = []
    for qual, called, args, bound in out:
        positional = [a.arg for a in args.posonlyargs + args.args][bound:]
        defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        sigs.append((qual, called, positional, defaulted))
    return sigs


def _calls(tree):
    """(called name, positional argument count, keyword names) of each call;
    a `*` argument makes the count None (every position), a `**` one passes
    no keyword."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out.append((name, None if starred else len(node.args),
                        {kw.arg for kw in node.keywords if kw.arg}))
    return out


# defaulted parameters that only tests pass, each with the reason it stays
PASSED_BY_TESTS_ONLY = {
    # the console script calls main() with no argument; argv is how a test
    # drives the CLI in-process
    "cli.main(argv)",
}


def test_defaulted_parameters_are_passed():
    """Every defaulted parameter of a public `vem` function or method is
    passed, by keyword or by position, by some call in the package or the
    benchmark (its own checks included); a default that only `tests/`
    overrides is a constant dressed as a knob, and belongs in the code that
    uses it. PASSED_BY_TESTS_ONLY names the exceptions."""
    paths = [p for d in ("src", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    calls = [c for p in paths for c in _calls(ast.parse(p.read_text(encoding="utf-8")))]
    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, called, positional, defaulted in _signatures(ast.parse(path.read_text("utf-8"))):
            seen = set()
            for name, n_args, keywords in calls:
                if called is None:
                    seen |= keywords
                elif name == called:
                    seen |= keywords | set(positional[:n_args])
            never += [f"{path.stem}.{qual}({p})" for p in defaulted if p not in seen]
    unexplained = sorted(set(never) - PASSED_BY_TESTS_ONLY)
    assert not unexplained, f"defaulted parameters only tests pass: {unexplained}"


def _all_signatures(tree):
    """(qualified name, name a call uses, positional and keyword-only
    parameters) of every function of a module and every method of its
    classes, private ones included. `__call__` is left out: a call does not
    name it."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node.name, node.args, 0))
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and f.name != "__call__":
                    called = node.name if f.name == "__init__" else f.name
                    static = any("staticmethod" in ast.unparse(d) for d in f.decorator_list)
                    out.append((f"{node.name}.{f.name}", called, f.args, 0 if static else 1))
    return [(qual, called, [a.arg for a in args.posonlyargs + args.args][bound:],
             {a.arg for a in args.kwonlyargs}) for qual, called, args, bound in out]


def _module_constants(tree):
    """Names a module binds by a top-level assignment."""
    out = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def _constant_value(node, constants):
    """The literal an argument spells, or the `vem` constant it names; None
    for anything else."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        pass
    return node.id if isinstance(node, ast.Name) and node.id in constants else None


def test_no_parameter_always_gets_the_same_constant():
    """No parameter of a `vem` function or method is passed the same literal,
    or the same module-level `vem` name, by every call that passes it, when
    at least two calls in the package or the benchmark do (tests do not
    count): a value every caller fixes is a constant of the function."""
    package = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    constants = set().union(*map(_module_constants, package.values()))
    callers = [p for d in ("src", "bench") for p in sorted((ROOT / d).rglob("*.py"))
               if "tests" not in p.relative_to(ROOT).parts]
    calls = [node for p in callers for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    fixed = []
    for path, tree in package.items():
        for qual, called, positional, kwonly in _all_signatures(tree):
            passed = {}
            for call in calls:
                if (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) != called:
                    continue
                for param, arg in zip(positional, call.args):
                    if isinstance(arg, ast.Starred):
                        break
                    passed.setdefault(param, []).append(_constant_value(arg, constants))
                for kw in call.keywords:
                    if kw.arg in positional or kw.arg in kwonly:
                        passed.setdefault(kw.arg, []).append(_constant_value(kw.value, constants))
            fixed += [f"{path.stem}.{qual}({param})" for param, values in passed.items()
                      if len(values) >= 2 and len(set(values)) == 1 and values[0] is not None]
    assert not fixed, f"parameters every caller passes the same constant: {fixed}"


def test_package_init_re_exports_nothing():
    """`vem/__init__.py` binds only its submodules and `__version__`: a
    second name for a function or class is a second import path to keep in
    step with the first."""
    submodules = {p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = _module_constants(tree) | {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    bound |= {a.asname or a.name for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert bound - submodules == {"__version__"}, f"names besides the submodules: {bound}"
