"""``src/diracwalk`` holds what the pipeline runs: every top-level function,
class and constant is used by other package code or by the benchmark in
``perfbench/``.  Code that only tests call belongs in ``tests/oracles.py``."""

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
