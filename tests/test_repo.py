"""Repository hygiene: nothing that .gitignore excludes is tracked, every
export resolves, no import goes unused, every defaulted parameter and
dataclass field has a caller outside the tests, every function, method and
class is referenced outside the tests, and every package name and sampler
statistic the benchmark reaches exists."""

import ast
import collections
import dataclasses
import fnmatch
import importlib
import importlib.util
import inspect
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("needs git and a git checkout")
    listed = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.split()
    assert listed == []


PACKAGE = ROOT / "src" / "symadit"


def _modules():
    return sorted(PACKAGE.rglob("*.py"))


def _top_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level, including inside if/try blocks."""
    names: set[str] = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_names(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse
            stack += getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                stack += handler.body
    return names


def _bound_names(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    return [a.asname or a.name for a in node.names]


def _declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def test_every_exported_name_resolves():
    stale = []
    for path in _modules():
        tree = ast.parse(path.read_text())
        defined = _top_level_names(tree)
        stale += [f"{path.relative_to(PACKAGE)}: {name}"
                  for name in _declared_all(tree) if name not in defined]
    assert stale == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in _modules():
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(_declared_all(tree))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                continue
            unused += [f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}"
                       for name in _bound_names(node) if name not in used]
    assert unused == []


WARNING_CALLS = {"catch_warnings", "simplefilter", "filterwarnings", "warn",
                 "warn_explicit"}


def test_no_module_issues_or_filters_warnings():
    """A collapsed orbit is data that `expand_orbits` counts; no module issues
    a warning or installs a process-global filter around one."""
    found = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    name == "warnings" for name in
                    [getattr(node, "module", None)]
                    + [a.name for a in node.names]):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: "
                             "imports warnings")
            elif isinstance(node, ast.Call):
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                if name in WARNING_CALLS:
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}:"
                                 f" {name}")
    assert found == []


PERFBENCH = ROOT / "perfbench"
CALLERS = (PACKAGE, PERFBENCH, ROOT / "tools")

# defaulted parameters that no caller outside the tests sets, with the reason
UNSET_DEFAULTS_ALLOWED = {
    "evaluate_pipeline.validity_hook":
        "the paper's compositional-validity column; the SMACT checker it "
        "needs is a download, so nothing in the repository can pass one yet",
    "Tensor.*":
        "Tensor's elementary ops, which the test oracles compose",
    "mhsa.pad_mask":
        "attention_block, the one caller that passed a mask, is now one tape "
        "node; mhsa stays as the chain of layer nodes that the block's "
        "oracle, chain_attention_block, composes with a mask",
}


def _defaulted_parameters(path):
    """(qualified name, callee name, parameter, positional index) for each
    defaulted parameter of a function in the module. The index of a
    keyword-only parameter is None; a method's index does not count self.
    A class's `__init__` is called by the class name."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{cls}.{node.name}" if cls else node.name
                callee = cls if node.name == "__init__" else node.name
                bound = cls is not None and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in node.decorator_list)
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                out.extend((qual, callee, arg.arg, i - bound) for i, arg in
                           enumerate(positional[first:], first))
                out.extend((qual, callee, arg.arg, None) for arg, default in
                           zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None)
                visit(node.body, None)

    visit(ast.parse(path.read_text()).body, None)
    return out


def _calls_by_name():
    """Callee name -> [(positional count, keyword names)] for every call in
    the package, perfbench and tools, resolved by name only. `cls(...)`
    names its enclosing class; a starred argument counts as every position
    and `**` as every keyword (the name None)."""
    calls = {}

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            n_pos = (float("inf") if any(isinstance(a, ast.Starred)
                                         for a in node.args)
                     else len(node.args))
            calls.setdefault(cls if name == "cls" else name, []).append(
                (n_pos, {kw.arg for kw in node.keywords}))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            visit(ast.parse(path.read_text()), None)
    return calls


def test_every_defaulted_parameter_has_a_caller_outside_the_tests():
    """A default that no caller in the package, perfbench or tools ever
    overrides is a constant in disguise: one more configuration for the
    suite to cover, which nothing uses."""
    calls = _calls_by_name()
    unset, allowed = [], set()
    for path in _modules():
        for qual, callee, param, index in _defaulted_parameters(path):
            if any(param in keywords or None in keywords
                   or (index is not None and n_pos > index)
                   for n_pos, keywords in calls.get(callee, [])):
                continue
            matched = {pattern for pattern in UNSET_DEFAULTS_ALLOWED
                       if fnmatch.fnmatchcase(f"{qual}.{param}", pattern)}
            if matched:
                allowed |= matched
            else:
                unset.append(f"{path.relative_to(PACKAGE)}: {qual}.{param}")
    assert unset == []
    assert allowed == set(UNSET_DEFAULTS_ALLOWED)  # no stale entry


# defaulted dataclass fields that no code outside the tests sets, with the
# reason
UNSET_FIELDS_ALLOWED = {
    "AEConfig.sigma_*":
        "the paper's augmentation noise; criterion 6 trains without "
        "augmentation by setting all three to zero, and its recipe must not "
        "change",
    "SampleStats.*":
        "decode_rejections and failures are always 0, and perfbench's "
        "generate workload and sample counters read them",
}


def _dataclasses(path):
    """Class name -> (field names in order, defaulted field names,
    classmethod names) for each dataclass in the module."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.ClassDef) and any(
                _callee(getattr(d, "func", d)) == "dataclass"
                for d in node.decorator_list)):
            continue
        fields = [item for item in node.body
                  if isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)]
        out[node.name] = (
            [f.target.id for f in fields],
            {f.target.id for f in fields if f.value is not None},
            {item.name for item in node.body
             if isinstance(item, ast.FunctionDef) and any(
                 getattr(d, "id", None) == "classmethod"
                 for d in item.decorator_list)})
    return out


def _callee(func):
    return (func.attr if isinstance(func, ast.Attribute)
            else getattr(func, "id", None))


def _keyword_flow(trees):
    """(carried, envs): `carried(expr, env)` is the set of keyword names a
    value can carry, and `envs` maps each module and function node to the
    names its local variables carry. A value carries the keywords of each
    `dict(...)` call in it, of each variable it reads and of the return
    value of each function it calls, resolved by name only."""
    scopes = [node for tree in trees for node in ast.walk(tree)
              if isinstance(node, (ast.Module, ast.FunctionDef))]
    envs = {scope: {} for scope in scopes}
    returns: dict[str, set] = {}

    def carried(expr, env):
        out = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                out |= env.get(node.id, set())
            elif isinstance(node, ast.Call):
                if _callee(node.func) == "dict":
                    out |= {kw.arg for kw in node.keywords if kw.arg}
                out |= returns.get(_callee(node.func), set())
        return out

    def grow(table, key, names) -> bool:
        if names <= table.setdefault(key, set()):
            return False
        table[key] |= names
        return True

    changed = True
    while changed:
        changed = False
        for scope in scopes:
            env = envs[scope]
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            changed |= grow(env, target.id,
                                            carried(node.value, env))
                elif (isinstance(node, ast.Return) and node.value
                        and isinstance(scope, ast.FunctionDef)):
                    changed |= grow(returns, scope.name,
                                    carried(node.value, env))
    return carried, envs


def _fields_set_outside_the_tests(classes):
    """Class name -> the fields some code in the package, perfbench or tools
    sets: by keyword or position in a call to the class or one of its
    classmethods (`cls(...)` inside the class), by the keywords of a
    `dict(...)` that reaches such a call through `**`, or by assigning the
    attribute of that name on anything but `self`."""
    trees = [ast.parse(path.read_text()) for root in CALLERS
             for path in sorted(root.rglob("*.py"))]
    carried, envs = _keyword_flow(trees)
    assigned, by_class = set(), {name: set() for name in classes}

    def named(node, enclosing):
        name = _callee(node)
        return enclosing if name == "cls" else name

    def target_class(func, enclosing):
        """The dataclass a call constructs, through the class or `cls`, or
        through a classmethod of either."""
        name = named(func, enclosing)
        if name in classes:
            return name
        if isinstance(func, ast.Attribute):
            name = named(func.value, enclosing)
            if name in classes and func.attr in classes[name][2]:
                return name
        return None

    def attributes(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return [a for elt in target.elts for a in attributes(elt)]
        if isinstance(target, ast.Starred):
            return attributes(target.value)
        if (isinstance(target, ast.Attribute)
                and getattr(target.value, "id", None) != "self"):
            return [target.attr]
        return []

    def visit(node, enclosing, env):
        if isinstance(node, ast.ClassDef):
            enclosing = node.name
        elif isinstance(node, ast.FunctionDef):
            env = envs[node]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            assigned.update(a for target in targets
                            for a in attributes(target))
        elif isinstance(node, ast.Call):
            cls = target_class(node.func, enclosing)
            if cls is not None:
                names = by_class[cls]
                for kw in node.keywords:
                    names |= ({kw.arg} if kw.arg
                              else carried(kw.value, env))
                if named(node.func, enclosing) == cls:   # not a classmethod
                    names.update(classes[cls][0][:len(node.args)])
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, env)

    for tree in trees:
        visit(tree, None, envs[tree])
    return {name: names | (set(classes[name][0]) & assigned)
            for name, names in by_class.items()}


def test_every_defaulted_dataclass_field_has_a_setter_outside_the_tests():
    """A config field that no code outside the tests sets is a constant in
    disguise: a settable value that every checkpoint sidecar and train
    manifest records, and that nothing ever changes."""
    classes = {}
    for path in _modules():
        classes.update(_dataclasses(path))
    set_fields = _fields_set_outside_the_tests(classes)
    unset, allowed = [], set()
    for name, (_, defaulted, _) in sorted(classes.items()):
        for field in sorted(defaulted - set_fields[name]):
            matched = {pattern for pattern in UNSET_FIELDS_ALLOWED
                       if fnmatch.fnmatchcase(f"{name}.{field}", pattern)}
            if matched:
                allowed |= matched
            else:
                unset.append(f"{name}.{field}")
    assert unset == []
    assert allowed == set(UNSET_FIELDS_ALLOWED)  # no stale entry


# functions, methods and classes that no code outside the tests references,
# with the reason
UNREFERENCED_ALLOWED = {
    "cli._Parser.error":
        "argparse calls it on a usage error, and the override raises "
        "UsageError in place of argparse's exit",
    "flowmatch.target_field":
        "the paper's conditional velocity, which criterion 5 and the "
        "flow-matching tests check; the sampler's step writes "
        "dt * (combined - z) / (1 - t), which rounds differently from "
        "dt * target_field(...), so calling it there would move every sample",
}


def _definitions(path):
    """(qualified name, definition node) for each function, method and class
    the module defines, nested ones included. Dunder methods are left out:
    the interpreter calls them."""
    module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{prefix}.{child.name}"
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    out.append((qual, child))
                visit(child, qual)
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), module)
    return out


def _references(node):
    """Counter of the names that the code under `node` references: read as
    a variable or an attribute, or named by a string that is a dotted name
    (perfbench's span table names what it traces so). `__all__` lists are
    not references."""
    exports = {id(n) for child in ast.walk(node)
               if isinstance(child, ast.Assign) and any(
                   getattr(t, "id", None) == "__all__" for t in child.targets)
               for n in ast.walk(child.value)}
    refs = collections.Counter()
    for child in ast.walk(node):
        if id(child) in exports:
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            refs[child.id] += 1
        elif (isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Load)):
            refs[child.attr] += 1
        elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
                and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*",
                                 child.value)):
            refs.update(child.value.split("."))
    return refs


def test_every_definition_has_a_reference_outside_the_tests():
    """A function, method or class that only the tests reach is code the
    program never runs. Names resolve by name only, and a definition's
    references to itself, inside its own body, do not count."""
    refs = collections.Counter()
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            refs += _references(ast.parse(path.read_text()))
    unreferenced, allowed = [], set()
    for path in _modules():
        for qual, node in _definitions(path):
            if refs[node.name] > _references(node)[node.name]:
                continue
            if qual in UNREFERENCED_ALLOWED:
                allowed.add(qual)
            else:
                unreferenced.append(qual)
    assert unreferenced == []
    assert allowed == set(UNREFERENCED_ALLOWED)  # no stale entry


def _resolve_from(module: str, name: str):
    """`from module import name` as the interpreter resolves it."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def test_benchmark_reach_into_the_package_resolves():
    """Every `from symadit... import`, every attribute read off a package
    module, and every traced (owner, attribute) in perfbench must exist,
    including names only a traced run touches."""
    checked, missing = 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "symadit":
                        checked += 1
                        module = importlib.import_module(alias.name)
                        modules[alias.asname or "symadit"] = (
                            module if alias.asname
                            else importlib.import_module("symadit"))
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "symadit"):
                for alias in node.names:
                    checked += 1
                    try:
                        obj = _resolve_from(node.module, alias.name)
                    except ImportError:
                        missing.append(f"{path.name}: {node.module}."
                                       f"{alias.name}")
                        continue
                    if inspect.ismodule(obj):
                        modules[alias.asname or alias.name] = obj
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                checked += 1
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{path.name}:{node.lineno}: "
                                   f"{node.value.id}.{node.attr}")
    for owner, attr, *_ in _perfbench_layers().SPAN_POINTS:
        checked += 1
        if not hasattr(owner, attr):
            missing.append(f"layers.py SPAN_POINTS: {owner.__name__}.{attr}")
    assert checked > 100
    assert missing == []


def _perfbench_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _unpacks_sample_stats(value, out_param) -> bool:
    """Whether `value` is a `sample(...)` call, or the traced output handed
    to the span counter of `flowmatch.sample`."""
    if isinstance(value, ast.Call):
        func = value.func
        return (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)) == "sample"
    return isinstance(value, ast.Name) and value.id == out_param


def _sample_stats_reads():
    """(file:line, attribute) for each attribute perfbench reads off the
    stats that `flowmatch.sample` returns, the second of the two names a
    sample result is unpacked into."""
    from symadit import flowmatch

    counters = {point[3].__name__ for point in _perfbench_layers().SPAN_POINTS
                if point[:2] == (flowmatch, "sample") and point[3]}
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            out_param = (fn.args.args[-1].arg if path.name == "layers.py"
                         and fn.name in counters else None)
            names = {node.targets[0].elts[1].id for node in ast.walk(fn)
                     if isinstance(node, ast.Assign)
                     and isinstance(node.targets[0], ast.Tuple)
                     and len(node.targets[0].elts) == 2
                     and isinstance(node.targets[0].elts[1], ast.Name)
                     and _unpacks_sample_stats(node.value, out_param)}
            reads.update((f"{path.name}:{node.lineno}", node.attr)
                         for node in ast.walk(fn)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.value, ast.Name)
                         and node.value.id in names)
    return sorted(reads)


def test_benchmark_reads_only_fields_of_sample_stats():
    """The benchmark reads its sample counts off `SampleStats`; a field it
    reads must not be dropped, though only a `generate` run would reach it."""
    from symadit.flowmatch import SampleStats

    fields = {f.name for f in dataclasses.fields(SampleStats)}
    reads = _sample_stats_reads()
    assert reads
    assert [f"{where}: stats.{attr}" for where, attr in reads
            if attr not in fields] == []


def _benchmark_calls():
    """(file:line, callable, call) for each call perfbench makes to a package
    name it imported, or to an attribute of such a name (a module function
    or a class's alternate constructor)."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "symadit"):
                for alias in node.names:
                    names[alias.asname or alias.name] = _resolve_from(
                        node.module, alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                target = names[func.id]
            elif (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in names):
                target = getattr(names[func.value.id], func.attr, None)
            else:
                continue
            if callable(target) and not inspect.ismodule(target):
                out.append((f"{path.name}:{node.lineno}", target, node))
    return out


def test_benchmark_calls_bind_to_the_package_signatures():
    """Each perfbench call's positional count and keywords must bind to the
    signature it reaches, not just name something that exists."""
    checked, unbound = 0, []
    for where, target, call in _benchmark_calls():
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                kw.arg is None for kw in call.keywords):
            continue
        checked += 1
        try:
            inspect.signature(target).bind(
                *range(len(call.args)), **{kw.arg: 0 for kw in call.keywords})
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
    assert checked > 20
    assert unbound == []


def test_benchmark_reaches_the_layers_in_the_shapes_it_traces():
    from symadit.flowmatch import Denoiser
    from symadit.nncore import adaln, attention_block

    inspect.signature(adaln).bind("x", "cond", "w", "b")
    inspect.signature(attention_block).bind("x", "params", "prefix",
                                            "n_heads", "mask")
    # perfbench counts a forward's rows from its first argument after self
    params = list(inspect.signature(Denoiser.forward).parameters)
    assert params[:2] == ["self", "z_t"]
