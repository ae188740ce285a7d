"""Repository hygiene: nothing that .gitignore excludes is tracked, every
export resolves, no import goes unused, and every package name the
benchmark reaches exists."""

import ast
import importlib
import importlib.util
import inspect
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


PERFBENCH = ROOT / "perfbench"


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
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for owner, attr, *_ in layers.SPAN_POINTS:
        checked += 1
        if not hasattr(owner, attr):
            missing.append(f"layers.py SPAN_POINTS: {owner.__name__}.{attr}")
    assert checked > 100
    assert missing == []


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
