"""Module boundaries of the package, read from the source's syntax trees."""

import ast
from pathlib import Path

from consensus_net.dynamics import HYPERBOLIC_OFFSET

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "consensus_net"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _names_from_siblings(tree):
    """(line, name) of every name imported from a module of the package, and
    of every attribute read from a module of the package imported whole."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("consensus_net")):
            for alias in node.names:
                if node.module in (None, "consensus_net"):
                    modules.add(alias.asname or alias.name)
                found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((node.lineno, node.attr))
    return found


def test_modules_found():
    assert {"dynamics.py", "kernels.py", "sim.py", "analysis.py"} <= set(TREES)


def test_no_private_names_from_sibling_modules():
    """A name with a leading underscore is private to its module."""
    private = [(module, line, name) for module, tree in TREES.items()
               for line, name in _names_from_siblings(tree)
               if name.startswith("_") and not name.startswith("__")]
    assert private == []


def test_disturbance_offset_only_in_dynamics():
    """The vanishing term is written once, in ``DisturbanceProfile.vanishing``:
    no other module reads ``HYPERBOLIC_OFFSET`` or writes its value."""
    uses = [(module, getattr(node, "lineno", None)) for module, tree in TREES.items()
            if module != "dynamics.py" for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "HYPERBOLIC_OFFSET")
            or (isinstance(node, ast.Attribute) and node.attr == "HYPERBOLIC_OFFSET")
            or (isinstance(node, ast.alias) and node.name == "HYPERBOLIC_OFFSET")
            or (isinstance(node, ast.Constant) and type(node.value) is float
                and node.value == HYPERBOLIC_OFFSET)]
    assert uses == []
