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


def _reaches_scipy_sparse(node) -> list:
    """(line, what) of every import of ``scipy.sparse``, ``sparse`` attribute
    and ``is_sparse`` call under ``node``."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            found += [(sub.lineno, alias.name) for alias in sub.names
                      if alias.name.startswith("scipy.sparse")]
        elif isinstance(sub, ast.ImportFrom) and (
                (sub.module or "").startswith("scipy.sparse")
                or (sub.module == "scipy" and "sparse" in [a.name for a in sub.names])):
            found.append((sub.lineno, sub.module))
        elif isinstance(sub, ast.Attribute) and sub.attr in ("sparse", "is_sparse"):
            found.append((sub.lineno, sub.attr))
        elif isinstance(sub, ast.Name) and sub.id == "is_sparse":
            found.append((sub.lineno, sub.id))
    return found


def test_schur_route_reaches_no_scipy_sparse():
    """The Schur route applies the balancing permutation by indexing:
    ``spectral._shifted_schur`` and ``_lyapunov_from_schur``, and every
    function of ``spectral`` or ``sparsity`` they reach, import no
    ``scipy.sparse`` and ask no ``is_sparse`` about the factor."""
    start = [FUNCTIONS["spectral.py"][name] for name in ("_shifted_schur", "_lyapunov_from_schur")]
    reached = _reached("spectral.py", start, siblings=("sparsity",))
    assert {("spectral.py", "_lyapunov_blocked"), ("spectral.py", "_trsyl")} <= set(reached)
    assert [found for node in [*start, *reached.values()] for found in _reaches_scipy_sparse(node)] == []


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


def _is_call(node, module: str, name: str) -> bool:
    """Whether ``node`` calls ``module.name(...)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and isinstance(node.func.value, ast.Name)
            and node.func.value.id == module)


def _blas_calls(node) -> list:
    """(line, what) of every ``@``, ``dot``/``matmul`` call and ``linalg``
    reference under ``node``: the ways code here reaches BLAS."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
            found.append((sub.lineno, "@"))
        elif isinstance(sub, ast.Call) and "dot" in (
                getattr(sub.func, "attr", None), getattr(sub.func, "id", None)):
            found.append((sub.lineno, "dot"))
        elif isinstance(sub, ast.Call) and "matmul" in (
                getattr(sub.func, "attr", None), getattr(sub.func, "id", None)):
            found.append((sub.lineno, "matmul"))
        elif "linalg" in (getattr(sub, "attr", None), getattr(sub, "id", None)):
            found.append((sub.lineno, "linalg"))
    return found


#: the sibling modules whose functions ``runner`` calls as ``<module>.<name>``
#: on the way to a CSV table's text
_CSV_MODULES = ("analysis", "csvtext")


#: every function of the package, by module and name
FUNCTIONS = {module: {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
             for module, tree in TREES.items()}


def _reached(module: str, start: list, siblings=_CSV_MODULES) -> dict:
    """The functions that the nodes ``start`` of ``module`` reach by name,
    transitively, keyed by (module, name): a bare name of a function of the
    module the calling code is in, or ``<sibling>.<name>`` for a module of
    ``siblings``."""
    reached, pending = {}, [(module, node) for node in start]
    while pending:
        module, node = pending.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                key = (module, sub.id)
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id in siblings):
                key = (sub.value.id + ".py", sub.attr)
            else:
                continue
            found = FUNCTIONS[key[0]].get(key[1])
            if found is not None and key not in reached:
                reached[key] = found
                pending.append((key[0], found))
    return reached


def test_one_fork_whose_child_only_formats_and_exits():
    """``os.fork`` is called in one place, ``runner._fork_writer``.  Its
    child branch (``if pid == 0``) ends in a ``try`` whose ``finally`` ends
    in ``os._exit``, so the child never returns into the caller.  numpy's
    BLAS threads do not exist in the child, so nothing the branch reaches
    may reach BLAS: its claim loop (``_claims``) and writes (``_write_all``),
    and
    the CSV writer that a table's ``text`` is (``trajectory_csv_text``,
    ``metrics_csv_text``), with whatever they call in ``runner``,
    ``analysis`` and ``csvtext``, the number formatter, and whatever that
    calls in turn."""
    forks = [(module, node) for module, tree in TREES.items() for node in ast.walk(tree)
             if _is_call(node, "os", "fork")]
    assert [module for module, _ in forks] == ["runner.py"]
    forking = FUNCTIONS["runner.py"]["_fork_writer"]
    assign = next(node for node in ast.walk(forking)
                  if isinstance(node, ast.Assign) and node.value is forks[0][1])
    pid = assign.targets[0].id
    branch = next(node.body for node in ast.walk(forking) if isinstance(node, ast.If)
                  and ast.dump(node.test) == ast.dump(ast.parse(f"{pid} == 0", mode="eval").body))
    last = branch[-1]
    assert isinstance(last, ast.Try) and last.finalbody
    assert isinstance(last.finalbody[-1], ast.Expr) and _is_call(last.finalbody[-1].value, "os", "_exit")
    reached = _reached("runner.py", [*branch, *(FUNCTIONS["runner.py"][name] for name in
                                                ("trajectory_csv_text", "metrics_csv_text"))])
    assert {("runner.py", "_claims"), ("runner.py", "_write_all"),
            ("runner.py", "_csv_chunks"), ("analysis.py", "row_blocks"),
            ("csvtext.py", "rows_text"), ("csvtext.py", "_decimal")} <= set(reached)
    assert [found for node in [*branch, *reached.values()] for found in _blas_calls(node)] == []


def test_forked_writer_has_no_report_channel():
    """The CSV child writes trajectory.csv's temporary file itself and
    reports by its exit status alone: ``runner`` packs no binary records
    (no ``struct``), opens no pipe and reads no bytes back by offset."""
    tree = TREES["runner.py"]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} | {node.module for node in ast.walk(tree)
                                            if isinstance(node, ast.ImportFrom)}
    assert "struct" not in imported
    assert [node.lineno for node in ast.walk(tree)
            if _is_call(node, "os", "pipe") or _is_call(node, "os", "pread")] == []


TRACING = PACKAGE.parents[1] / "perfbench" / "tracing.py"


def _traced_spans(targets: str) -> list:
    """The module attributes that the benchmark's tracer wraps in spans, from
    its tuple ``targets`` of (attribute, name, kind), read from its source."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    node = next(node for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [targets])
    return [attr for attr, _name, kind in ast.literal_eval(node.value) if kind == "span"]


def test_benchmark_spans_are_looked_up_at_call_time():
    """The benchmark's tracer times each layer by replacing, for one run, the
    ``runner`` and ``analysis`` attributes that ``runner.run`` looks up at
    call time, and it skips a target the program no longer has without an
    error.  So each span target of ``runner`` is a name that ``runner``'s
    top level defines or imports and that a function body reads, and each
    of ``analysis`` is an ``analysis`` function that ``runner`` calls as
    ``analysis.<name>`` in a function body.  A target bound into an object
    at import time, or renamed away, would read 0 s."""
    runner, analysis = TREES["runner.py"], TREES["analysis.py"]
    top_level = {alias.asname or alias.name for node in runner.body
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    top_level |= {node.name for node in runner.body if isinstance(node, ast.FunctionDef)}
    bodies = [sub for node in ast.walk(runner) if isinstance(node, ast.FunctionDef)
              for sub in ast.walk(node)]
    read = {node.id for node in bodies if isinstance(node, ast.Name)}
    spans = _traced_spans("_RUNNER_TARGETS")
    assert spans and [name for name in spans if name not in top_level & read] == []
    functions = {node.name for node in analysis.body if isinstance(node, ast.FunctionDef)}
    called = {node.func.attr for node in bodies if isinstance(node, ast.Call)
              and _is_call(node, "analysis", getattr(node.func, "attr", None))}
    spans = _traced_spans("_ANALYSIS_TARGETS")
    assert spans and [name for name in spans if name not in functions & called] == []


def _calls_named(node, name: str) -> list:
    """Lines of every call of ``<anything>.name(...)`` or ``name(...)`` under
    ``node``."""
    return [sub.lineno for sub in ast.walk(node) if isinstance(sub, ast.Call)
            and name in (getattr(sub.func, "attr", None), getattr(sub.func, "id", None))]


def test_one_home_for_the_spectrum_and_the_norm():
    """L's spectrum is computed once, by ``graph.build_laplacian``, and
    ``spectral.solve_P``'s shifted-spectrum gate reads the smallest real part
    it recorded: ``spectral`` calls no ``eigvals``.  The spectral norm of L
    has one route at every size: ``graph._spectral_norm`` calls no ``svd``."""
    assert _calls_named(TREES["spectral.py"], "eigvals") == []
    assert _calls_named(FUNCTIONS["graph.py"]["_spectral_norm"], "svd") == []


def test_one_home_for_indented_json():
    """The ``indent=2`` layout is written once, in ``jsontext``: no module
    of the package calls ``json.dumps`` or ``json.dump`` with ``indent``,
    and every JSON file it writes goes through ``jsontext.indented_json``."""
    found = [(module, node.lineno) for module, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dumps", "dump")
             and any(keyword.arg == "indent" for keyword in node.keywords)]
    assert found == []
    users = {module for module, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "indented_json"}
    assert users == {"cli.py", "runner.py", "scenario.py"}


def test_one_home_for_the_csv_number_format():
    """``%.17g``, the CSV files' number format, is spelled in one module,
    ``csvtext``, the package's one CSV number formatter: no other module
    holds it, or the ``.17g`` of a format spec, in a string or bytes."""
    def spelled(module):
        return [node.lineno for node in ast.walk(TREES[module])
                if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))
                and ".17g" in str(node.value)]

    assert spelled("csvtext.py")
    assert [(module, spelled(module)) for module in TREES
            if module != "csvtext.py" and spelled(module)] == []
