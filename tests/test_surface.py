"""The library keeps what its commands use: every public module-level
function or class of the package, and every public method of its classes,
has a caller in the package."""

import ast
from pathlib import Path

import quadmeas

# input states and the back-action output that no command reads yet
_NOT_YET_READ = {"fock_state", "coherent_gaussian",
                 "squeezed_vacuum_gaussian", "conjugate_variance_after"}

# methods read from outside the package: the benchmark's sample check reads
# the oracle's post moments
_READ_OUTSIDE = {"GaussianSchemeOracle.post_quadrature_moments"}


def _references(tree, modules, skip=None):
    """Names a module's code refers to, outside the node ``skip``: bare
    names, imported names, and attributes of the package's modules."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_caller_in_the_package():
    root = Path(quadmeas.__file__).parent
    # __init__ re-exports every name, so it counts as no caller
    trees = {p.stem: ast.parse(p.read_text()) for p in root.glob("*.py")
             if p.stem != "__init__"}
    used_by = {m: _references(t, trees) for m, t in trees.items()}
    unused = []
    for module, tree in trees.items():
        others = set().union(*(refs for m, refs in used_by.items()
                               if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") \
                    or node.name in _NOT_YET_READ:
                continue
            if node.name not in others \
                    and node.name not in _references(tree, trees, node):
                unused.append(f"{module}.{node.name}")
    assert unused == []


def _attributes(tree, skip=None):
    """Attribute names a module's code reads, outside the node ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_method_has_a_caller_in_the_package():
    root = Path(quadmeas.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in root.glob("*.py")
             if p.stem != "__init__"}
    unused = []
    for module, tree in trees.items():
        others = set().union(*(_attributes(t) for m, t in trees.items()
                               if m != module))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                name = f"{cls.name}.{getattr(node, 'name', '')}"
                if not isinstance(node, ast.FunctionDef) \
                        or node.name.startswith("_") or name in _READ_OUTSIDE:
                    continue
                if node.name not in others \
                        and node.name not in _attributes(tree, node):
                    unused.append(f"{module}.{name}")
    assert unused == []
