"""``src/diracwalk`` holds what the pipeline runs: every top-level function,
class and constant is used by other package code or by the benchmark in
``perfbench/``, and every defaulted parameter is passed by a call there.
Code that only tests call belongs in ``tests/oracles.py``, and a default
that only tests change is a constant."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "diracwalk").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# no caller yet: the closed-form CDF is for the limit-law report of ROADMAP
# item 1, and this exception goes when that report lands
UNUSED_BY_DESIGN = {"limit_cdf_gaussian"}


def top_level_definitions(tree):
    """(name, node) of each function, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def uses(tree, skip=None):
    """Every name a tree loads, reads as an attribute or spells as a
    string (the benchmark patches functions by name), outside ``skip``.
    Imports are not uses, so a re-export in ``__init__`` counts for
    nothing."""
    inside = set() if skip is None else {id(n) for n in ast.walk(skip)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_src_defines_only_what_the_pipeline_uses():
    trees = {path: ast.parse(path.read_text()) for path in SRC + PERFBENCH}
    used = {path: uses(tree) for path, tree in trees.items()}
    unused = []
    for path in SRC:
        elsewhere = set().union(*(names for other, names in used.items()
                                  if other != path))
        for name, node in top_level_definitions(trees[path]):
            if name in elsewhere or name in UNUSED_BY_DESIGN \
                    or name in uses(trees[path], skip=node):
                continue
            unused.append(f"{path.name}: {name}")
    assert not unused, "defined in src/ but used only by tests (move them " \
        "to tests/oracles.py): " + ", ".join(unused)


# defaulted parameters that no call in src/ or perfbench/ passes, and why
# each stays
UNPASSED_BY_DESIGN = {
    ("spectral_coefficients", "n_phi"):
        "the README's accuracy table and the convergence tests vary it",
    ("_show_warning", "file"): "warnings.showwarning's signature has it",
    ("_show_warning", "line"): "warnings.showwarning's signature has it",
}


def defaulted_parameters(tree):
    """(function, parameter, position) of each parameter with a default;
    the position counts from the first argument a call passes (after self
    or cls), and is None for a keyword-only parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = node.args
        positional = spec.posonlyargs + spec.args
        bound = int(bool(positional) and positional[0].arg in ("self", "cls"))
        first = len(positional) - len(spec.defaults)
        for pos in range(first, len(positional)):
            yield node.name, positional[pos].arg, pos - bound
        for arg, default in zip(spec.kwonlyargs, spec.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def passed_parameters(trees):
    """Per called name, the positions (or "*" for a starred argument) and
    keywords (or "**") that some call passes."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            seen = passed.setdefault(name, set())
            for pos, arg in enumerate(node.args):
                seen.add("*" if isinstance(arg, ast.Starred) else pos)
            seen.update(kw.arg or "**" for kw in node.keywords)
    return passed


def test_src_sets_every_default_it_defines():
    trees = {path: ast.parse(path.read_text()) for path in SRC + PERFBENCH}
    passed = passed_parameters(trees.values())
    unpassed = []
    for path in SRC:
        for func, param, pos in defaulted_parameters(trees[path]):
            seen = passed.get(func, set())
            if (func, param) in UNPASSED_BY_DESIGN or param in seen \
                    or "**" in seen or (pos is not None
                                        and (pos in seen or "*" in seen)):
                continue
            unpassed.append(f"{path.name}: {func}({param}=)")
    assert not unpassed, "defaulted parameters that only tests set (make " \
        "them constants, or drop them): " + ", ".join(unpassed)


def raised_names(tree):
    """(line, name) of each ``raise`` that raises something: the called
    or raised name, or None for an expression that is neither."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            yield node.lineno, exc.id if isinstance(exc, ast.Name) else None


def test_src_raises_only_input_and_health_errors():
    # one rule: a refused input is an InputError (exit 1), a failed
    # numerical check a NumericalHealthError (exit 2); a bare ``raise``
    # re-raises what it caught
    stray = [f"{path.name}:{line} raises {name}"
             for path in SRC
             for line, name in raised_names(ast.parse(path.read_text()))
             if name not in ("InputError", "NumericalHealthError")]
    assert not stray, stray


def test_main_maps_exactly_the_two_errors():
    # anything else a run raises is a bug, and propagates with its
    # traceback rather than reading as a usage error
    tree = ast.parse((ROOT / "src" / "diracwalk" / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [ast.unparse(handler.type) for node in ast.walk(main)
              if isinstance(node, ast.Try) for handler in node.handlers]
    assert caught == ["InputError", "NumericalHealthError"], caught


def private_imports(tree):
    """(line, module, name) of each ``_``-prefixed name, dunders aside,
    that a tree imports from a package module: a relative import or one
    from ``diracwalk``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "diracwalk":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__")):
                yield node.lineno, module, name


def test_src_imports_no_private_name_of_another_module():
    # a module's private names are its own: what another module needs of
    # it is public, so each per-mode layer stays behind one module
    stray = [f"{path.name}:{line} imports {name} from {module or '.'}"
             for path in SRC
             for line, module, name in private_imports(
                 ast.parse(path.read_text()))]
    assert not stray, stray
