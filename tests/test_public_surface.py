"""Every public module-level function and class in `vem`, and every public
method and property of its public classes, has a caller outside the test
suite: another `vem` module, its own module, or the benchmark. A name only
tests reach is dead weight in the package."""

import argparse
import ast
import re
from pathlib import Path

from vem import cli

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
    # only bench/tests/test_bench.py passes it; its deletion is on the list
    # of bench/ changes that wait for the next benchmark change
    "autograd.Var.__init__(requires_grad)",
}


def test_defaulted_parameters_are_passed():
    """Every defaulted parameter of a public `vem` function or method is
    passed, by keyword or by position, by some call in the package or the
    benchmark, its tests excluded as in the same-constant lint; a default
    that only tests override is a constant dressed as a knob, and belongs
    in the code that uses it. PASSED_BY_TESTS_ONLY names the exceptions."""
    paths = [p for d in ("src", "bench") for p in sorted((ROOT / d).rglob("*.py"))
             if "tests" not in p.relative_to(ROOT).parts]
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
    """The literal an argument spells, or the `vem` constant it names, bare
    (`NAME`) or through its module (`module.NAME`); None for anything else."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        pass
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr if node.attr in constants else None
    return node.id if isinstance(node, ast.Name) and node.id in constants else None


# parameters every non-test caller passes the same constant, each with the
# reason it stays
SAME_CONSTANT_FROM_EVERY_CALLER = {
    # the CLI and bench/workloads.py always resample to audiofeat.SAMPLE_RATE,
    # and only tests resample to other rates; bench/ pins the two-argument call
    "audiofeat.resample(target_hz)",
}


def test_no_parameter_always_gets_the_same_constant():
    """No parameter of a `vem` function or method is passed the same literal,
    or the same module-level `vem` name, by every call that passes it, when
    at least two calls in the package or the benchmark do (tests do not
    count): a value every caller fixes is a constant of the function.
    SAME_CONSTANT_FROM_EVERY_CALLER names the exceptions."""
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
    unexplained = sorted(set(fixed) - SAME_CONSTANT_FROM_EVERY_CALLER)
    assert not unexplained, f"parameters every caller passes the same constant: {unexplained}"


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


def _rasterizes_at_fps(node):
    """Whether `node` is an `np.floor`/`np.ceil` call on an expression that
    names DEFAULT_FPS."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr in ("floor", "ceil") \
        and any(getattr(n, "id", getattr(n, "attr", None)) == "DEFAULT_FPS"
                for arg in node.args for n in ast.walk(arg))


def test_timeline_rules_have_one_owner():
    """Only `timeline.from_timestamps` turns a time into a 16 fps frame, and
    only `parsing` (where `Storyboard.covers` lives) reads a storyboard's
    end: a module that floors or ceils a DEFAULT_FPS product, or tests a
    time against `.end_s`, restates a rule the rest of `vem` must agree on."""
    restated = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        if path.name != "timeline.py" and any(map(_rasterizes_at_fps, nodes)):
            restated.append(f"{path.stem}: floor/ceil of a DEFAULT_FPS product")
        if path.name != "parsing.py" and any(
                isinstance(n, ast.Attribute) and n.attr == "end_s" for n in nodes):
            restated.append(f"{path.stem}: reads .end_s")
    assert not restated, f"timeline rules restated outside their owner: {restated}"


def test_clip_metrics_have_one_owner():
    """Only `evalsuite.clip_scores` scores a clip: outside `timeline`, which
    defines the IoUs, and `evalsuite`, no module calls `beats_iou`,
    `transitions_beats_iou` or `tw_score`, so `vem eval` and the sampler's
    TB-IoU cannot drift apart."""
    metrics = {"beats_iou", "transitions_beats_iou", "tw_score"}
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("timeline.py", "evalsuite.py"):
            continue
        callers += [f"{path.stem}: {name}" for name, _, _ in
                    _calls(ast.parse(path.read_text(encoding="utf-8"))) if name in metrics]
    assert not callers, f"clip metrics called outside evalsuite: {callers}"


def _writing_opens(tree):
    """Line numbers of the calls in `tree` that open a file for writing: an
    `open`/`io.open` call whose mode writes, appends, creates or updates (or
    is not a literal), an `os.open`, or a `Path.write_text`/`write_bytes`."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if func in ("open", "io.open"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                    or set(mode.value) & set("wax+"):
                lines.append(node.lineno)
        elif func == "os.open" or func.endswith((".write_text", ".write_bytes")):
            lines.append(node.lineno)
    return lines


def test_files_are_written_only_through_open_replacing():
    """`container.open_replacing` is the one place `vem` opens a file for
    writing: every output replaces its target whole or leaves it as it was,
    and two files change together only by nesting one block in the other."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "container.py":
            func = next(n for n in tree.body
                        if isinstance(n, ast.FunctionDef) and n.name == "open_replacing")
            allowed = set(_writing_opens(func))
            assert allowed, "open_replacing opens no file for writing"
        found += [f"{path.stem}.py:{line}" for line in _writing_opens(tree) if line not in allowed]
    assert not found, f"files opened for writing outside open_replacing: {found}"


def _option_dest(call):
    """The `args` attribute an `add_argument` call fills: its `dest=`, else
    its first long flag (`--ref-wav` -> `ref_wav`), else its positional name."""
    dest = next((kw.value.value for kw in call.keywords if kw.arg == "dest"), None)
    if dest:
        return dest
    names = [a.value for a in call.args if isinstance(a, ast.Constant)]
    name = next((n for n in names if n.startswith("--")), names[0])
    return name.lstrip("-").replace("-", "_")


def test_every_cli_option_is_read():
    """Every option `cli.build_parser` declares is read as `args.<dest>`
    somewhere in `cli`: a flag whose value nothing reads is a knob with no
    effect. The CLI counterpart of the dataclass-field and defaulted-parameter
    lints, which cannot see argparse."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    parser = next(n for n in tree.body
                  if isinstance(n, ast.FunctionDef) and n.name == "build_parser")
    dests = [_option_dest(n) for n in ast.walk(parser) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Attribute) and n.func.attr == "add_argument"]
    assert dests, "build_parser declares no options"
    reads = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and isinstance(n.ctx, ast.Load) and getattr(n.value, "id", None) == "args"}
    unread = sorted(set(dests) - reads)
    assert not unread, f"CLI options nothing reads: {unread}"


_CLI_OPTIONS = {
    "vem": ["-h", "--help", "--seed", "--out-dir"],
    "features": ["-h", "--help", "wav"],
    "beats": ["-h", "--help", "wav"],
    "curate": ["-h", "--help", "corpus"],
    "synth": ["-h", "--help", "--n"],
    "train": ["-h", "--help", "--stage", "--corpus", "--steps", "--widths", "--t-steps"],
    "sample": ["-h", "--help", "ckpt", "manifest", "--steps", "--unconditional", "--wav-out"],
    "eval": ["-h", "--help", "dir", "--metrics", "--tol-s"],
    "sweep-steps": ["-h", "--help", "ckpt", "manifest", "--steps", "--ref-wav"],
}


def test_cli_options_are_pinned():
    """The top-level parser and each subcommand declare exactly the options
    (positionals by name) listed above, in order: a knob added or dropped
    shows up as a diff of this table. `tests/data/cli_help.txt` pins only
    the top level."""
    def declared(parser):
        return [name for action in parser._actions
                if not isinstance(action, argparse._SubParsersAction)
                for name in action.option_strings or [action.dest]]

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {"vem": declared(parser),
           **{name: declared(sub) for name, sub in commands.choices.items()}}
    assert got == _CLI_OPTIONS
