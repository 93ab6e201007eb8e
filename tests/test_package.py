"""Package-wide checks: the public name list, the modules' imports and the
README's copy of the sweep CSV header."""

import ast
from pathlib import Path

import unwrapkit
from unwrapkit import simkit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "unwrapkit"


def test_public_names_resolve_sorted_and_unique():
    names = unwrapkit.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(unwrapkit, name)] == []


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports and never reads; a name listed in the
    module's ``__all__`` counts as read (a re-export)."""
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = {
        path.name: names
        for path in modules
        if (names := _unused_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert unused == {}


#: The ``os`` names that read or set the process environment.
_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _environment_reads(tree: ast.Module) -> list:
    """Line numbers where a module reads one of ``_ENVIRONMENT_NAMES`` as an
    attribute of ``os`` or imports it from ``os``."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_NAMES
            and isinstance(node.value, ast.Name) and node.value.id == "os")
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name in _ENVIRONMENT_NAMES for a in node.names))
    )


def test_no_module_reads_the_environment():
    # the package has no environment-variable settings, so a run's output
    # depends on its arguments alone
    modules = sorted(SRC.glob("*.py"))
    assert modules
    reads = {
        path.name: lines
        for path in modules
        if (lines := _environment_reads(ast.parse(path.read_text(), filename=str(path))))
    }
    assert reads == {}


def _plan_constant_names(tree: ast.Module) -> set:
    """The constants of ``PlanConstants``: its ``_lazy`` descriptors and the
    attributes its ``__init__`` sets on ``self``."""
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "PlanConstants")
    names = set()
    for node in cls.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name) and node.value.func.id == "_lazy"):
            names.update(t.id for t in node.targets)
        elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
            names.update(
                t.attr for sub in ast.walk(node) if isinstance(sub, ast.Assign)
                for t in sub.targets
                if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            )
    return names


def test_every_plan_constant_has_a_reader():
    # a per-plan constant is built for every plan, so one that nothing in
    # the package reads as an attribute is work and memory for nothing
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    constants = _plan_constant_names(trees["estimators.py"])
    assert {"plan", "lam0", "beat_lam", "w_delta_f", "ef_slack"} <= constants
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert sorted(constants - read) == []


def test_readme_csv_schema_matches_the_header():
    lines = (ROOT / "README.md").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("Simulation CSV schema"))
    fence = next(i for i in range(at + 1, len(lines)) if lines[i].startswith("```"))
    assert lines[fence + 1] == simkit.CSV_HEADER
