"""Module boundaries of the package, read from the source's syntax trees."""

import ast
from dataclasses import fields
from pathlib import Path

from consensus_net.dynamics import HYPERBOLIC_OFFSET
from consensus_net.gains import MatchedGains, UnmatchedGains

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


def _imports_run_at_import(tree):
    """(line, module) of every import that runs when the module is imported:
    everything outside a function body."""
    found, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_level_scipy_import():
    """scipy is imported inside the functions that need it: importing
    ``scipy.linalg`` costs about 0.2 s and 25 MiB per process, and the
    builtin runs never need it.  A static companion to the fresh-interpreter
    tests in test_scenario_cli."""
    found = [(module, line, name) for module, tree in TREES.items()
             for line, name in _imports_run_at_import(tree)
             if name == "scipy" or name.startswith("scipy.")]
    assert found == []


def test_sparse_rule_applied_only_where_storage_is_decided():
    """``sparsity.is_sparse`` decides the storage of L in ``graph`` and of P
    in ``spectral``, and ``sparsity`` applies it to the gain forms; every
    other layer, ``gains`` among them, reads the storage it is given."""
    callers = {module for module, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and "is_sparse" in (
                   getattr(node.func, "attr", None), getattr(node.func, "id", None))}
    assert callers == {"graph.py", "spectral.py", "sparsity.py"}


def test_gain_fields_named_only_in_gains():
    """The gain dataclasses are the one statement of the gain names: the
    scenario codec, the CLI and the positivity checks read them with
    ``dataclasses.fields``.  No other module spells a gain name as a string,
    except the builtin documents in ``scenario._BUILTINS``."""
    names = {f.name for cls in (MatchedGains, UnmatchedGains) for f in fields(cls)}
    builtins = next(node for node in TREES["scenario.py"].body if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["_BUILTINS"])
    allowed = {id(node) for node in ast.walk(builtins)}
    found = [(module, node.lineno, node.value) for module, tree in TREES.items()
             if module != "gains.py" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in names and id(node) not in allowed]
    assert found == []
